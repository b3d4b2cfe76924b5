package mcorr_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// feedRows streams n full rows starting at from into the durable monitor,
// mirroring mcdetect's durable loop (Ingest + forced flush per row).
func feedRows(t *testing.T, dm *mcorr.Monitor, ds *timeseries.Dataset, from time.Time, n int) []mcorr.StepReport {
	t.Helper()
	var out []mcorr.StepReport
	for k := 0; k < n; k++ {
		tm := from.Add(time.Duration(k) * timeseries.SampleStep)
		var batch []mcorr.Sample
		for _, id := range ds.IDs() {
			s := ds.Get(id)
			if i, ok := s.IndexOf(tm); ok {
				batch = append(batch, mcorr.Sample{ID: id, Time: tm, Value: s.Values[i]})
			}
		}
		rep, err := dm.Ingest(batch...)
		if err != nil {
			t.Fatalf("Ingest row %d: %v", k, err)
		}
		out = append(out, rep...)
		forced, err := dm.FlushUpTo(tm.Add(timeseries.SampleStep))
		if err != nil {
			t.Fatalf("FlushUpTo row %d: %v", k, err)
		}
		out = append(out, forced...)
	}
	return out
}

func TestDurableMonitorRecoveryReproducesTrajectory(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "D", Machines: 2, Days: 2, Seed: 41,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, day1)
	mcfg := mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true}}
	const total = 30

	// Baseline: an uninterrupted durable run over all rows.
	base, err := mcorr.NewDurableMonitor(history, mcfg, mcorr.DurabilityConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewDurableMonitor: %v", err)
	}
	want := make(map[time.Time]uint64, total)
	for _, r := range feedRows(t, base, ds, day1, total) {
		want[r.Time] = math.Float64bits(r.System)
	}
	if len(want) != total {
		t.Fatalf("baseline scored %d rows, want %d", len(want), total)
	}
	if err := base.Close(); err != nil {
		t.Fatalf("baseline Close: %v", err)
	}

	// Crashed run: same data, checkpoint every 10 rows, abandoned without
	// Close after 17 rows (the manager pool is released, the WAL and
	// checkpoint are left as the "crash" would leave them).
	dir := t.TempDir()
	dcfg := mcorr.DurabilityConfig{DataDir: dir, CheckpointEvery: 10}
	crash, err := mcorr.NewDurableMonitor(history, mcfg, dcfg)
	if err != nil {
		t.Fatalf("NewDurableMonitor(crash): %v", err)
	}
	pre := feedRows(t, crash, ds, day1, 17)
	for _, r := range pre {
		if bits, ok := want[r.Time]; !ok || bits != math.Float64bits(r.System) {
			t.Fatalf("pre-crash row %s diverged from baseline", r.Time)
		}
	}
	crash.Manager().Close()

	if !mcorr.HasCheckpoint(dir) {
		t.Fatal("HasCheckpoint = false after a checkpointed run")
	}
	dm, recovered, err := mcorr.OpenDurableMonitor(dcfg, nil)
	if err != nil {
		t.Fatalf("OpenDurableMonitor: %v", err)
	}
	defer dm.Close()
	applied, _ := dm.RecoveryStats()
	if applied == 0 {
		t.Error("recovery replayed 0 WAL samples; the tail after the checkpoint should not be empty")
	}
	// Rows 10..16 were after the last checkpoint: recovery re-scores them.
	if len(recovered) != 7 {
		t.Fatalf("recovered %d rows, want 7 (rows after the 10-row checkpoint)", len(recovered))
	}
	resumeAt := day1.Add(17 * timeseries.SampleStep)
	if !dm.Cursor().Equal(resumeAt) {
		t.Fatalf("Cursor after recovery = %s, want %s", dm.Cursor(), resumeAt)
	}

	post := feedRows(t, dm, ds, resumeAt, total-17)
	seen := make(map[time.Time]bool)
	for _, r := range append(recovered, post...) {
		bits, ok := want[r.Time]
		if !ok {
			t.Fatalf("recovered run scored unexpected row %s", r.Time)
		}
		if bits != math.Float64bits(r.System) {
			t.Fatalf("row %s: Q=%x after recovery, baseline %x — trajectory diverged",
				r.Time, math.Float64bits(r.System), bits)
		}
		seen[r.Time] = true
	}
	for k := 10; k < total; k++ {
		tm := day1.Add(time.Duration(k) * timeseries.SampleStep)
		if !seen[tm] {
			t.Errorf("row %s missing from recovered trajectory", tm)
		}
	}
}

func TestDurableMonitorCleanCloseRecoversInstantly(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "D", Machines: 2, Days: 2, Seed: 43,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	dir := t.TempDir()
	dcfg := mcorr.DurabilityConfig{DataDir: dir}
	dm, err := mcorr.NewDurableMonitor(ds.Slice(timeseries.MonitoringStart, day1), mcorr.ManagerConfig{}, dcfg)
	if err != nil {
		t.Fatalf("NewDurableMonitor: %v", err)
	}
	feedRows(t, dm, ds, day1, 5)
	if err := dm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := dm.Ingest(); err == nil {
		t.Error("Ingest after Close: want error")
	}

	re, recovered, err := mcorr.OpenDurableMonitor(dcfg, nil)
	if err != nil {
		t.Fatalf("OpenDurableMonitor after clean close: %v", err)
	}
	defer re.Close()
	applied, skipped := re.RecoveryStats()
	if applied != 0 || skipped != 0 || len(recovered) != 0 {
		t.Errorf("clean close recovery replayed %d/%d samples, re-scored %d rows; want all zero",
			applied, skipped, len(recovered))
	}
	if wantCursor := day1.Add(5 * timeseries.SampleStep); !re.Cursor().Equal(wantCursor) {
		t.Errorf("Cursor = %s, want %s", re.Cursor(), wantCursor)
	}
}

func TestOpenDurableMonitorWithoutCheckpoint(t *testing.T) {
	_, _, err := mcorr.OpenDurableMonitor(mcorr.DurabilityConfig{DataDir: t.TempDir()}, nil)
	if !errors.Is(err, manager.ErrNoCheckpoint) {
		t.Fatalf("empty dir = %v, want ErrNoCheckpoint", err)
	}
}

// TestWALRemovedAfterCleanStop follows OPERATIONS.md's upgrade note for a
// WAL format change: stop cleanly, remove wal/, start. The monitor resumes
// where the clean stop left it, and what it logs from then on survives a
// crash: the recovery after it re-scores the uninterrupted trajectory bit
// for bit.
func TestWALRemovedAfterCleanStop(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "D", Machines: 2, Days: 2, Seed: 47})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, day1)
	mcfg := mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true}}
	const total = 20
	base, err := mcorr.NewDurableMonitor(history, mcfg, mcorr.DurabilityConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewDurableMonitor: %v", err)
	}
	want := make(map[time.Time]uint64, total)
	for _, r := range feedRows(t, base, ds, day1, total) {
		want[r.Time] = math.Float64bits(r.System)
	}
	base.Close()

	dcfg := mcorr.DurabilityConfig{DataDir: t.TempDir()}
	dm, err := mcorr.NewDurableMonitor(history, mcfg, dcfg)
	if err != nil {
		t.Fatalf("NewDurableMonitor: %v", err)
	}
	feedRows(t, dm, ds, day1, 6)
	if err := dm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.RemoveAll(filepath.Join(dcfg.DataDir, "wal")); err != nil {
		t.Fatal(err)
	}
	re, recovered, err := mcorr.OpenDurableMonitor(dcfg, nil)
	if err != nil {
		t.Fatalf("OpenDurableMonitor without wal/: %v", err)
	}
	if len(recovered) != 0 || !re.Cursor().Equal(day1.Add(6*timeseries.SampleStep)) {
		t.Fatalf("re-scored %d rows, cursor %s; want none, at row 6", len(recovered), re.Cursor())
	}
	feedRows(t, re, ds, day1.Add(6*timeseries.SampleStep), 6)
	re.Manager().Close() // crash: no checkpoint since the restart

	re2, recovered, err := mcorr.OpenDurableMonitor(dcfg, nil)
	if err != nil {
		t.Fatalf("OpenDurableMonitor after the crash: %v", err)
	}
	defer re2.Close()
	if len(recovered) != 6 {
		t.Fatalf("recovery re-scored %d rows, want the 6 logged since the restart", len(recovered))
	}
	rest := feedRows(t, re2, ds, day1.Add(12*timeseries.SampleStep), total-12)
	for _, r := range append(recovered, rest...) {
		if bits, ok := want[r.Time]; !ok || bits != math.Float64bits(r.System) {
			t.Fatalf("row %s: Q=%x, uninterrupted run %x", r.Time, math.Float64bits(r.System), bits)
		}
	}
}

// TestOldWALFormatIsRefused: a data directory whose WAL another release
// wrote fails to open with wal.ErrFormat, whose message points at the
// upgrade note, instead of replaying nothing.
func TestOldWALFormatIsRefused(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "D", Machines: 2, Days: 2, Seed: 47})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	dcfg := mcorr.DurabilityConfig{DataDir: t.TempDir(), CheckpointEvery: 1 << 20}
	dm, err := mcorr.NewDurableMonitor(ds.Slice(timeseries.MonitoringStart, day1), mcorr.ManagerConfig{}, dcfg)
	if err != nil {
		t.Fatalf("NewDurableMonitor: %v", err)
	}
	feedRows(t, dm, ds, day1, 3)
	dm.Manager().Close() // crash, so the tail is in the WAL only
	segs, err := filepath.Glob(filepath.Join(dcfg.DataDir, "wal", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "MCORWAL1")
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, _, err := mcorr.OpenDurableMonitor(dcfg, nil)
	if !errors.Is(err, wal.ErrFormat) || !strings.Contains(err.Error(), "OPERATIONS.md") {
		t.Fatalf("OpenDurableMonitor on an MCORWAL1 log = %v; want wal.ErrFormat naming OPERATIONS.md", err)
	}
	if re != nil {
		re.Close()
	}
}
