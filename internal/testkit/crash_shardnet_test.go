package testkit_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mcorr/internal/simulator"
	"mcorr/internal/testkit"
)

// shardWorker is one running mcshard process.
type shardWorker struct {
	t      *testing.T
	cmd    *exec.Cmd
	addr   string
	dir    string
	stderr *bytes.Buffer
}

// startShardWorker launches mcshard and parses the LISTEN line. addr ""
// lets the worker pick a free port; a concrete addr restarts a crashed
// worker in place.
func startShardWorker(t *testing.T, bin, dir, addr string) *shardWorker {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cmd := exec.Command(bin, "-data-dir", dir, "-listen", addr)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("mcshard stdout: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start mcshard: %v", err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("mcshard produced no LISTEN line: %v\nstderr:\n%s", err, stderr.String())
	}
	listen, ok := strings.CutPrefix(strings.TrimSpace(line), "LISTEN ")
	if !ok {
		t.Fatalf("unexpected first mcshard line %q", line)
	}
	go io.Copy(io.Discard, stdout)
	w := &shardWorker{t: t, cmd: cmd, addr: listen, dir: dir, stderr: &stderr}
	t.Cleanup(func() { w.kill() })
	return w
}

// kill delivers SIGKILL — no flush, no checkpoint, no goodbye.
func (w *shardWorker) kill() {
	if w.cmd.Process != nil {
		_ = w.cmd.Process.Kill()
		_, _ = w.cmd.Process.Wait()
		w.cmd.Process = nil
	}
}

// runTriggerAfterSteps runs bin to completion, firing trigger once as soon
// as n "STEP " lines have appeared on stdout, and returns all stdout lines.
func runTriggerAfterSteps(t *testing.T, bin string, n int, trigger func(), args ...string) []string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	var lines []string
	steps, fired := 0, false
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if strings.HasPrefix(line, "STEP ") {
			steps++
			if steps >= n && !fired {
				fired = true
				trigger()
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("%s exited: %v\nstderr:\n%s", bin, err, stderr.String())
	}
	if !fired {
		t.Fatalf("run finished after %d steps, before the %d-step trigger", steps, n)
	}
	return lines
}

// TestCrashRecoveryShardWorker is the networked-fabric durability
// acceptance test: SIGKILL one mcshard worker process mid-stream, restart
// it from its on-disk checkpoint on the same address, and require the
// coordinator's merged %.17g STEP trajectory to be bit-identical to both
// an uninterrupted networked run and one in-process manager over the same
// data. Exactly-once outcome return is what makes this
// hold: the replayed rows' outcomes must neither skip nor double-merge.
func TestCrashRecoveryShardWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real binaries; skipped in -short")
	}
	mcdetect := testkit.BuildBinary(t, "mcorr/cmd/mcdetect")
	mcshard := testkit.BuildBinary(t, "mcorr/cmd/mcshard")
	dir := t.TempDir()
	csv := filepath.Join(dir, "group.csv")
	testkit.WriteGroupCSV(t, csv, simulator.GroupConfig{
		Name: "A", Machines: 3, Days: 2, Seed: 23,
	})
	const workers = 4
	baseArgs := []string{
		"-data", csv,
		"-train-days", "1",
		"-max-measurements", "12",
		"-checkpoint-every", "40",
		"-print-steps",
	}

	// (A) Uninterrupted in-process baseline: one manager.
	local := testkit.Run(t, mcdetect, baseArgs...)
	requireShardCount(t, local, 1)
	baseline := testkit.StepMap(local)
	if len(baseline) == 0 {
		t.Fatal("baseline run produced no STEP lines")
	}

	startFleet := func(sub string) (addrs []string, fleet []*shardWorker) {
		for k := 0; k < workers; k++ {
			w := startShardWorker(t, mcshard, filepath.Join(dir, sub, fmt.Sprint(k)), "")
			fleet = append(fleet, w)
			addrs = append(addrs, w.addr)
		}
		return addrs, fleet
	}
	netArgs := func(addrs []string) []string {
		return append(append([]string(nil), baseArgs...), "-shard-workers", strings.Join(addrs, ","))
	}

	t.Run("uninterrupted", func(t *testing.T) {
		addrs, _ := startFleet("flat")
		lines := testkit.Run(t, mcdetect, netArgs(addrs)...)
		requireShardCount(t, lines, workers)
		requireSameTrajectory(t, baseline, testkit.StepMap(lines), "uninterrupted networked run")
	})

	t.Run("worker-crash", func(t *testing.T) {
		addrs, fleet := startFleet("crash")
		victim := 2
		args := append(netArgs(addrs), "-pace", "2ms")
		lines := runTriggerAfterSteps(t, mcdetect, 60, func() {
			fleet[victim].kill()
			// Restart in place: same control address, same checkpoint dir.
			// A brief delay leaves the coordinator mid-stream against a
			// dead worker, exercising the redial + ring-replay path.
			time.Sleep(100 * time.Millisecond)
			fleet[victim] = startShardWorker(t, mcshard, fleet[victim].dir, fleet[victim].addr)
		}, args...)
		requireSameTrajectory(t, baseline, testkit.StepMap(lines), "crash-recovery networked run")
	})
}

// requireShardCount fails unless mcdetect's training line reports n
// shards: the networked worker count, 1 for a run in one process.
func requireShardCount(t *testing.T, lines []string, n int) {
	t.Helper()
	want := fmt.Sprintf(" pairs, %d shards)", n)
	for _, l := range lines {
		if strings.HasPrefix(l, "training on ") {
			if !strings.Contains(l, want) {
				t.Fatalf("training line %q does not report %d shards", l, n)
			}
			return
		}
	}
	t.Fatal("no training line")
}

// requireSameTrajectory fails unless got covers baseline bit for bit.
func requireSameTrajectory(t *testing.T, baseline, got map[string]string, what string) {
	t.Helper()
	if diffs := testkit.DiffStepMaps(baseline, got); len(diffs) > 0 {
		sort.Strings(diffs)
		show := len(diffs)
		if show > 10 {
			show = 10
		}
		t.Fatalf("%s diverges from in-process baseline at %d of %d steps:\n%s",
			what, len(diffs), len(baseline), strings.Join(diffs[:show], "\n"))
	}
}
