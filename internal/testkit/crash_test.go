package testkit_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mcorr/internal/simulator"
	"mcorr/internal/testkit"
)

// TestCrashRecoveryReproducesTrajectory is the durability acceptance test:
// SIGKILL mcdetect mid-stream, restart it against the same -data-dir, and
// require the union of the two runs' per-step fitness lines to be
// bit-identical (Q printed at %.17g — full float64 precision) to an
// uninterrupted baseline over the same data.
func TestCrashRecoveryReproducesTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real binaries; skipped in -short")
	}
	mcdetect := testkit.BuildBinary(t, "mcorr/cmd/mcdetect")
	dir := t.TempDir()
	csv := filepath.Join(dir, "group.csv")
	testkit.WriteGroupCSV(t, csv, simulator.GroupConfig{
		Name: "A", Machines: 3, Days: 2, Seed: 7,
	})
	args := func(dataDir, pace string) []string {
		return []string{
			"-data", csv,
			"-train-days", "1",
			"-max-measurements", "12",
			"-data-dir", dataDir,
			"-checkpoint-every", "40",
			"-fsync", "batch",
			"-pace", pace,
		}
	}

	// Uninterrupted baseline trajectory.
	baseline := testkit.StepMap(testkit.Run(t, mcdetect, args(filepath.Join(dir, "base"), "0")...))
	if len(baseline) == 0 {
		t.Fatal("baseline run produced no STEP lines")
	}

	// Crash run: pace the stream so the kill lands mid-flight, SIGKILL
	// after 60 scored steps (past the 40-row checkpoint, with WAL tail),
	// then restart from the same data-dir and let it run to completion.
	crashDir := filepath.Join(dir, "crash")
	killed := testkit.RunKillAfterSteps(t, mcdetect, 60, args(crashDir, "2ms")...)
	// The data dir holds checkpoint and wal/, plus at most the temporary of
	// a checkpoint the kill interrupted.
	entries, err := os.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "checkpoint.tmp-") {
			names = append(names, e.Name())
		}
	}
	if strings.Join(names, " ") != "checkpoint wal" {
		t.Fatalf("data dir holds %v, want checkpoint and wal", names)
	}
	resumed := testkit.Run(t, mcdetect, args(crashDir, "0")...)

	if !containsRecoveryBanner(resumed) {
		t.Fatalf("restart did not report recovery; first lines:\n%s",
			strings.Join(head(resumed, 5), "\n"))
	}
	got := testkit.StepMap(append(append([]string(nil), killed...), resumed...))
	if diffs := testkit.DiffStepMaps(baseline, got); len(diffs) > 0 {
		sort.Strings(diffs)
		max := len(diffs)
		if max > 10 {
			max = 10
		}
		t.Fatalf("recovered trajectory diverges from baseline at %d of %d steps:\n%s",
			len(diffs), len(baseline), strings.Join(diffs[:max], "\n"))
	}
}

func containsRecoveryBanner(lines []string) bool {
	for _, l := range lines {
		if strings.Contains(l, "recovered from") {
			return true
		}
	}
	return false
}

func head(lines []string, n int) []string {
	if len(lines) < n {
		return lines
	}
	return lines[:n]
}
