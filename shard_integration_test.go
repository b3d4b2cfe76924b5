package mcorr_test

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/obs"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// ingestRows streams n full rows into a plain monitor and returns the
// reports.
func ingestRows(t *testing.T, mon *mcorr.Monitor, ds *timeseries.Dataset, from time.Time, n int) []mcorr.StepReport {
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
		rep, err := mon.Ingest(batch...)
		if err != nil {
			t.Fatalf("Ingest row %d: %v", k, err)
		}
		out = append(out, rep...)
	}
	return out
}

// TestMonitorWithShardsBitIdentical drives the public streaming surface:
// a sharded monitor must produce bit-identical reports to an unsharded
// one over the same sample stream, before and after a live reshard.
func TestMonitorWithShardsBitIdentical(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "W", Machines: 2, Days: 2, Seed: 23,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, day1)
	mcfg := mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true}}

	plain, err := mcorr.NewMonitor(history, mcfg)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	defer plain.Close()
	if plain.Manager() == nil || plain.Coordinator() != nil || plain.Shards() != 1 {
		t.Fatal("unsharded monitor accessors inconsistent")
	}
	if _, err := plain.Reshard(2); err == nil {
		t.Error("Reshard on an unsharded monitor: want error")
	}

	shardedMon, err := mcorr.NewMonitor(history, mcfg, mcorr.WithShards(3))
	if err != nil {
		t.Fatalf("NewMonitor(WithShards): %v", err)
	}
	defer shardedMon.Close()
	if shardedMon.Manager() != nil {
		t.Error("sharded monitor: Manager() should be nil")
	}
	if shardedMon.Coordinator() == nil || shardedMon.Shards() != 3 {
		t.Fatalf("sharded monitor: Coordinator=%v Shards=%d", shardedMon.Coordinator(), shardedMon.Shards())
	}

	const total = 24
	want := ingestRows(t, plain, ds, day1, total)
	got := ingestRows(t, shardedMon, ds, day1, total/2)
	if moved, err := shardedMon.Reshard(2); err != nil || shardedMon.Shards() != 2 {
		t.Fatalf("Reshard: moved=%d err=%v shards=%d", moved, err, shardedMon.Shards())
	}
	got = append(got, ingestRows(t, shardedMon, ds, day1.Add(total/2*timeseries.SampleStep), total/2)...)

	if len(got) != len(want) {
		t.Fatalf("sharded scored %d rows, unsharded %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].System) != math.Float64bits(want[i].System) {
			t.Fatalf("row %d: sharded Q=%x unsharded Q=%x", i,
				math.Float64bits(got[i].System), math.Float64bits(want[i].System))
		}
	}
	if math.Float64bits(shardedMon.Fleet().SystemMean()) != math.Float64bits(plain.Fleet().SystemMean()) {
		t.Error("system means diverged")
	}
	// ShardFor locates every pair within the current topology.
	for _, p := range shardedMon.Coordinator().Pairs() {
		if k := mcorr.ShardFor(p, 2); k < 0 || k >= 2 {
			t.Fatalf("ShardFor(%s, 2) = %d", p, k)
		}
	}
}

// TestDurableMonitorShardedRecovery is the in-process sharded durability
// round-trip: checkpoint a sharded fleet (one file, like any other),
// abandon it mid-stream, recover, and require the combined
// trajectory to match an unsharded durable baseline bit for bit — then
// reshard the recovered fleet and keep going.
func TestDurableMonitorShardedRecovery(t *testing.T) {
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

	base, err := mcorr.NewDurableMonitor(history, mcfg, mcorr.DurabilityConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewDurableMonitor: %v", err)
	}
	want := make(map[time.Time]uint64, total)
	for _, r := range feedRows(t, base, ds, day1, total) {
		want[r.Time] = math.Float64bits(r.System)
	}
	if err := base.Close(); err != nil {
		t.Fatalf("baseline Close: %v", err)
	}

	dir := t.TempDir()
	dcfg := mcorr.DurabilityConfig{DataDir: dir, CheckpointEvery: 10}
	crash, err := mcorr.NewDurableMonitor(history, mcfg, dcfg, mcorr.WithShards(3))
	if err != nil {
		t.Fatalf("NewDurableMonitor(sharded): %v", err)
	}
	if crash.Manager() != nil || crash.Coordinator() == nil {
		t.Fatal("sharded durable monitor accessors inconsistent")
	}
	for _, r := range feedRows(t, crash, ds, day1, 17) {
		if bits, ok := want[r.Time]; !ok || bits != math.Float64bits(r.System) {
			t.Fatalf("pre-crash row %s diverged from unsharded baseline", r.Time)
		}
	}
	wantLayout := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, []string{"checkpoint", "wal"}) {
			t.Fatalf("%s the data dir holds %v, want exactly checkpoint and wal", when, names)
		}
	}
	wantLayout("with 3 shards checkpointed")
	crash.Fleet().Close() // abandon without a final checkpoint

	dm, recovered, err := mcorr.OpenDurableMonitor(dcfg, nil)
	if err != nil {
		t.Fatalf("OpenDurableMonitor: %v", err)
	}
	defer dm.Close()
	if dm.Coordinator() == nil || dm.Shards() != 3 {
		t.Fatalf("recovered topology: coord=%v shards=%d", dm.Coordinator(), dm.Shards())
	}
	// Rows 10..16 were past the last checkpoint: recovery re-scores them.
	if len(recovered) != 7 {
		t.Fatalf("recovered %d rows, want 7", len(recovered))
	}

	// The metrics count the 3-shard checkpoint as what it is, one file.
	written, _ := obs.Default().Value("mcorr_checkpoints_written_total")
	if err := dm.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	after, _ := obs.Default().Value("mcorr_checkpoints_written_total")
	if size, _ := obs.Default().Value("mcorr_checkpoint_bytes"); after != written+1 || size != float64(fi.Size()) {
		t.Errorf("one checkpoint of 3 shards: mcorr_checkpoints_written_total %v → %v, mcorr_checkpoint_bytes %v; want +1 and the %d bytes of the file", written, after, size, fi.Size())
	}

	// Continue, resharding mid-stream; Reshard checkpoints the new
	// topology immediately, so the moved models survive a further reopen.
	resumeAt := day1.Add(17 * timeseries.SampleStep)
	post := feedRows(t, dm, ds, resumeAt, 5)
	if _, err := dm.Reshard(2); err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	post = append(post, feedRows(t, dm, ds, resumeAt.Add(5*timeseries.SampleStep), total-17-5)...)
	for _, r := range append(recovered, post...) {
		bits, ok := want[r.Time]
		if !ok || bits != math.Float64bits(r.System) {
			t.Fatalf("row %s diverged after sharded recovery/reshard", r.Time)
		}
	}

	// Reopen once more: the post-reshard checkpoint must restore the
	// 2-shard topology, out of the same one file.
	if err := dm.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := dm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wantLayout("after Reshard(2), Checkpoint and Close")
	again, replayed, err := mcorr.OpenDurableMonitor(dcfg, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer again.Close()
	if len(replayed) != 0 {
		t.Errorf("clean close should replay 0 rows, got %d", len(replayed))
	}
	if again.Shards() != 2 {
		t.Errorf("reopened shards = %d, want 2", again.Shards())
	}
	if math.Float64bits(again.Fleet().SystemMean()) != math.Float64bits(base.Fleet().SystemMean()) {
		t.Error("reopened system mean diverged from baseline")
	}
}
