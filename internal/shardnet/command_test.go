package shardnet

import (
	"testing"

	"mcorr/internal/manager"
)

// modelCommander is the model-state half of the fleet surface.
type modelCommander interface {
	SetAdaptive(bool)
	ResetChains()
}

// TestShardNetModelCommandSurvivesWorkerRestart pins that SetAdaptive and
// ResetChains reach every worker durably: a worker restarted from its data
// dir after the command has it in the checkpoint it reloads, and a worker
// whose connection was already gone when the command was issued is revived
// and given it. CheckpointEvery exceeds the row count, so no cadence
// checkpoint hides a command that was only applied in memory. The
// reference is a Manager given the same calls at the same rows.
func TestShardNetModelCommandSurvivesWorkerRestart(t *testing.T) {
	commands := []struct {
		name  string
		apply func(modelCommander)
	}{
		{"SetAdaptive", func(m modelCommander) { m.SetAdaptive(false) }},
		{"ResetChains", func(m modelCommander) { m.ResetChains() }},
	}
	orders := []struct {
		name               string
		commandAt, crashAt func(rows int) int
	}{
		{"command then restart", func(n int) int { return n / 3 }, func(n int) int { return 2 * n / 3 }},
		{"restart then command", func(n int) int { return n / 2 }, func(n int) int { return n / 2 }},
	}
	mcfg := manager.Config{Model: tinyModel(true)}
	history, rows := fixtures(t, 3, 5)
	for _, cmd := range commands {
		for _, order := range orders {
			t.Run(cmd.name+"/"+order.name, func(t *testing.T) {
				ref, err := manager.New(history, mcfg)
				if err != nil {
					t.Fatalf("manager.New: %v", err)
				}
				defer ref.Close()
				f := startFabric(t, 2)
				c, err := New(history, Config{Workers: f.addrs, Manager: mcfg, CheckpointEvery: len(rows) + 1})
				if err != nil {
					t.Fatalf("shardnet.New: %v", err)
				}
				defer c.Close()

				for i, row := range rows {
					// The restart comes first on a row both fall on: the
					// command then finds a connection nobody has seen fail.
					if i == order.crashAt(len(rows)) {
						addr := f.addrs[1]
						f.kill(1)
						f.start(1, addr)
					}
					if i == order.commandAt(len(rows)) {
						cmd.apply(c)
						cmd.apply(ref)
					}
					compareReports(t, i, c.Step(row), ref.Step(row))
				}
			})
		}
	}
}
