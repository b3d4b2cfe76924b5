package testkit_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mcorr/internal/simulator"
	"mcorr/internal/testkit"
)

// TestCrashRecoveryShardedTrajectory is the sharded-durability acceptance
// test: for each shard count, SIGKILL mcdetect mid-stream past a
// checkpoint, restart it against the same -data-dir (recovering the
// checkpoint file plus the WAL tail), and require the union of the
// two runs' %.17g STEP lines to be bit-identical to an uninterrupted
// UNSHARDED baseline over the same data — crash recovery and sharding
// must both preserve the exact trajectory.
func TestCrashRecoveryShardedTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real binaries; skipped in -short")
	}
	mcdetect := testkit.BuildBinary(t, "mcorr/cmd/mcdetect")
	dir := t.TempDir()
	csv := filepath.Join(dir, "group.csv")
	testkit.WriteGroupCSV(t, csv, simulator.GroupConfig{
		Name: "A", Machines: 3, Days: 2, Seed: 11,
	})
	args := func(dataDir, pace string, shards int) []string {
		return []string{
			"-data", csv,
			"-train-days", "1",
			"-max-measurements", "12",
			"-data-dir", dataDir,
			"-checkpoint-every", "40",
			"-fsync", "batch",
			"-pace", pace,
			"-shards", fmt.Sprint(shards),
		}
	}

	// Uninterrupted unsharded baseline trajectory.
	baseline := testkit.StepMap(testkit.Run(t, mcdetect, args(filepath.Join(dir, "base"), "0", 1)...))
	if len(baseline) == 0 {
		t.Fatal("baseline run produced no STEP lines")
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			crashDir := filepath.Join(dir, fmt.Sprintf("crash-%d", shards))
			killed := testkit.RunKillAfterSteps(t, mcdetect, 60, args(crashDir, "2ms", shards)...)
			// One layout for every shard count: checkpoint and wal/, plus at
			// most the temporary of a checkpoint the kill interrupted.
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
			resumed := testkit.Run(t, mcdetect, args(crashDir, "0", shards)...)
			if !shardRecoveryBanner(resumed, shards) {
				t.Fatalf("restart did not report sharded recovery; first lines:\n%s",
					strings.Join(resumed[:min(5, len(resumed))], "\n"))
			}
			got := testkit.StepMap(append(append([]string(nil), killed...), resumed...))
			if diffs := testkit.DiffStepMaps(baseline, got); len(diffs) > 0 {
				sort.Strings(diffs)
				show := len(diffs)
				if show > 10 {
					show = 10
				}
				t.Fatalf("sharded recovery diverges from unsharded baseline at %d of %d steps:\n%s",
					len(diffs), len(baseline), strings.Join(diffs[:show], "\n"))
			}
		})
	}
}

func shardRecoveryBanner(lines []string, shards int) bool {
	want := fmt.Sprintf("%d shards", shards)
	for _, l := range lines {
		if strings.Contains(l, "recovered from") && strings.Contains(l, want) {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
