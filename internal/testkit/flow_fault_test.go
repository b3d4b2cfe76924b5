package testkit_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mcorr/internal/collector"
	"mcorr/internal/simulator"
	"mcorr/internal/testkit"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// TestSlowSinkShedsWithoutStalling injects a sink that needs 20ms per
// batch and hammers the server from several agents at once. With a small
// admission queue and the reject policy, overflowing batches must be
// acked stored-0 promptly (no handler ever stalls on the sink), the shed
// counter must move, and the store must hold exactly the samples the
// server acked — the ack stream stays truthful under overload.
func TestSlowSinkShedsWithoutStalling(t *testing.T) {
	store, err := tsdb.NewStore(timeseries.SampleStep, 0)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	slow := &testkit.SlowSink{Next: store, Delay: 20 * time.Millisecond}
	srv, err := collector.NewServer(slow, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.SetFlow(collector.FlowConfig{
		QueueDepth:    2,
		Shed:          collector.ShedReject,
		ThrottleDelay: 10 * time.Millisecond,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	const agents = 4
	const batches = 3
	const perBatch = 8
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	ackedByAgents := 0
	ids := make([]timeseries.MeasurementID, agents)
	for g := 0; g < agents; g++ {
		machine := fmt.Sprintf("flow-%d", g)
		ids[g] = timeseries.MeasurementID{Machine: machine, Metric: "cpu"}
		a, err := collector.Dial(addr.String(), machine)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer a.Close()
		wg.Add(1)
		go func(a *collector.Agent, id timeseries.MeasurementID) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]tsdb.Sample, perBatch)
				for i := range batch {
					batch[i] = tsdb.Sample{
						ID:    id,
						Time:  timeseries.MonitoringStart.Add(time.Duration(b*perBatch+i) * timeseries.SampleStep),
						Value: float64(i),
					}
				}
				err := a.Send(batch)
				var pe *collector.PartialSendError
				switch {
				case err == nil:
				case errors.As(err, &pe) && pe.Err == nil:
					// Shed: acked stored-0 (or a stored prefix), samples
					// stay with the sender. Expected under overload.
				default:
					t.Errorf("Send: %v", err)
					return
				}
			}
			mu.Lock()
			ackedByAgents += a.Sent()
			mu.Unlock()
		}(a, ids[g])
	}
	wg.Wait()
	// Every batch takes at most ~queue*delay to ack even when accepted;
	// anything near this bound means no handler sat stalled on the sink.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sends took %v with a slow sink — handlers stalled", elapsed)
	}
	if st := srv.Stats(); st.Shed == 0 {
		t.Errorf("slow sink never shed: %+v", st)
	}
	stored := 0
	for _, id := range ids {
		stored += store.Len(id)
	}
	if stored != ackedByAgents {
		t.Errorf("store holds %d samples but agents were acked %d — acks must stay truthful under shedding", stored, ackedByAgents)
	}
}

// TestCrashRecoveryWithFlowControl reruns the durability acceptance test
// on a paced stream: SIGKILL mid-stream, recover, and require the
// trajectory to be bit-identical to an uninterrupted, unpaced baseline —
// proving nothing reorders or sheds between WAL and scorer.
func TestCrashRecoveryWithFlowControl(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real binaries; skipped in -short")
	}
	mcdetect := testkit.BuildBinary(t, "mcorr/cmd/mcdetect")
	dir := t.TempDir()
	csv := filepath.Join(dir, "group.csv")
	testkit.WriteGroupCSV(t, csv, simulator.GroupConfig{
		Name: "A", Machines: 3, Days: 2, Seed: 11,
	})
	args := func(dataDir, pace string, extra ...string) []string {
		base := []string{
			"-data", csv,
			"-train-days", "1",
			"-max-measurements", "12",
			"-data-dir", dataDir,
			"-checkpoint-every", "40",
			"-fsync", "batch",
			"-pace", pace,
		}
		return append(base, extra...)
	}

	// The baseline runs unpaced; the crash run is paced so the kill lands
	// mid-stream.
	baseline := testkit.StepMap(testkit.Run(t, mcdetect, args(filepath.Join(dir, "base"), "0")...))
	if len(baseline) == 0 {
		t.Fatal("baseline run produced no STEP lines")
	}
	crashDir := filepath.Join(dir, "crash")
	killed := testkit.RunKillAfterSteps(t, mcdetect, 60, args(crashDir, "2ms")...)
	resumed := testkit.Run(t, mcdetect, args(crashDir, "0")...)

	got := testkit.StepMap(append(append([]string(nil), killed...), resumed...))
	if diffs := testkit.DiffStepMaps(baseline, got); len(diffs) > 0 {
		sort.Strings(diffs)
		max := len(diffs)
		if max > 10 {
			max = 10
		}
		t.Fatalf("flow-controlled trajectory diverges from inline baseline at %d of %d steps:\n%s",
			len(diffs), len(baseline), strings.Join(diffs[:max], "\n"))
	}
}
