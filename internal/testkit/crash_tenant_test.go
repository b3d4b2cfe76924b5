package testkit_test

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mcorr/internal/simulator"
	"mcorr/internal/testkit"
)

// tenantSteps extracts the STEP lines carrying " tenant=<name>" and
// strips the suffix, so the result is comparable with a single-tenant
// run's StepMap keyed the same way.
func tenantSteps(lines []string, name string) []string {
	suffix := " tenant=" + name
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l, "STEP ") && strings.HasSuffix(l, suffix) {
			out = append(out, strings.TrimSuffix(l, suffix))
		}
	}
	return out
}

// TestCrashRecoveryTenants is the multi-tenant durability acceptance
// test: run two tenants with disjoint workloads in ONE durable process, SIGKILL it mid-stream past a checkpoint,
// restart against the same -data-dir, and require each tenant's union
// STEP trajectory to be bit-identical to (a) the same two-tenant
// process run uninterrupted and (b) a dedicated single-tenant process
// fed only that tenant's workload. Tenancy and crash recovery must both be
// invisible in the %.17g trajectories.
func TestCrashRecoveryTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real binaries; skipped in -short")
	}
	mcdetect := testkit.BuildBinary(t, "mcorr/cmd/mcdetect")
	dir := t.TempDir()
	csvs := map[string]string{
		"alpha": filepath.Join(dir, "alpha.csv"),
		"beta":  filepath.Join(dir, "beta.csv"),
	}
	testkit.WriteGroupCSV(t, csvs["alpha"], simulator.GroupConfig{
		Name: "A", Machines: 3, Days: 2, Seed: 7,
	})
	testkit.WriteGroupCSV(t, csvs["beta"], simulator.GroupConfig{
		Name: "B", Machines: 3, Days: 2, Seed: 13,
	})
	args := func(tenantArg, dataDir, pace string) []string {
		return []string{
			"-tenant", tenantArg,
			"-train-days", "1",
			"-max-measurements", "8",
			"-data-dir", dataDir,
			"-checkpoint-every", "40",
			"-fsync", "batch",
			"-pace", pace,
		}
	}
	both := "alpha=" + csvs["alpha"] + ",beta=" + csvs["beta"]

	// Uninterrupted two-tenant baseline.
	baseline := testkit.Run(t, mcdetect, args(both, filepath.Join(dir, "base"), "0")...)
	want := map[string]map[string]string{}
	for name := range csvs {
		steps := tenantSteps(baseline, name)
		if len(steps) == 0 {
			t.Fatalf("baseline produced no STEP lines for tenant %s", name)
		}
		want[name] = testkit.StepMap(steps)
	}

	// Process-layout equivalence: a dedicated single-tenant process per
	// workload must produce the same trajectory as the co-tenant run.
	for name, csv := range csvs {
		solo := testkit.Run(t, mcdetect, args(name+"="+csv, filepath.Join(dir, "solo-"+name), "0")...)
		got := testkit.StepMap(tenantSteps(solo, name))
		if diffs := testkit.DiffStepMaps(want[name], got); len(diffs) > 0 {
			sort.Strings(diffs)
			t.Fatalf("tenant %s: dedicated process diverges from co-tenant run at %d steps:\n%s",
				name, len(diffs), strings.Join(diffs[:min(10, len(diffs))], "\n"))
		}
	}

	// Crash the two-tenant run mid-stream, past checkpoints for both
	// tenants (the merged clock interleaves them row by row), recover,
	// and stitch each tenant's trajectory back together.
	crashDir := filepath.Join(dir, "crash")
	killed := testkit.RunKillAfterSteps(t, mcdetect, 120, args(both, crashDir, "2ms")...)
	resumed := testkit.Run(t, mcdetect, args(both, crashDir, "0")...)
	for name := range csvs {
		if !tenantRecoveryBanner(resumed, name) {
			t.Fatalf("restart did not report recovery for tenant %s; first lines:\n%s",
				name, strings.Join(resumed[:min(8, len(resumed))], "\n"))
		}
		union := append(tenantSteps(killed, name), tenantSteps(resumed, name)...)
		got := testkit.StepMap(union)
		if diffs := testkit.DiffStepMaps(want[name], got); len(diffs) > 0 {
			sort.Strings(diffs)
			t.Fatalf("tenant %s: crash recovery diverges at %d of %d steps:\n%s",
				name, len(diffs), len(want[name]), strings.Join(diffs[:min(10, len(diffs))], "\n"))
		}
	}
}

func tenantRecoveryBanner(lines []string, name string) bool {
	for _, l := range lines {
		if strings.Contains(l, "recovered from") && strings.Contains(l, "tenant="+name) {
			return true
		}
	}
	return false
}
