package mcorr_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// checkpointFixture returns the first l measurements of a simulated group
// with their day-0 training slice.
func checkpointFixture(t *testing.T, l int) (ds, history *timeseries.Dataset, day1 time.Time) {
	t.Helper()
	full, _, err := simulator.Generate(simulator.GroupConfig{Name: "C", Machines: 2, Days: 2, Seed: 23})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ds = timeseries.NewDataset()
	for _, id := range full.IDs()[:l] {
		ds.Add(full.Get(id))
	}
	day1 = timeseries.MonitoringStart.AddDate(0, 0, 1)
	return ds, ds.Slice(timeseries.MonitoringStart, day1), day1
}

// checkpointContents reads a checkpoint file back as its meta section and
// the concatenated payloads of every record from the store's first on
// (headers, series, section names, models), in order.
func checkpointContents(t *testing.T, path string) (manager.CheckpointMeta, []byte) {
	t.Helper()
	var meta manager.CheckpointMeta
	cr, err := manager.OpenCheckpointFile(path, &meta)
	if err != nil {
		t.Fatalf("OpenCheckpointFile: %v", err)
	}
	defer cr.Close()
	body, err := cr.Section(manager.SectionStore)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	rest, err := io.ReadAll(body) // runs on through every later section
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return meta, rest
}

// TestCheckpointBytesDeterministic: two back-to-back checkpoints of an
// idle tenant (discovery and diagnosis on) are byte-identical once the
// meta section's CreatedAt and Epoch — which advance with every checkpoint
// by design — are masked, and closing, recovering and checkpointing again
// (save → load → save) reproduces the same bytes.
func TestCheckpointBytesDeterministic(t *testing.T) {
	ds, history, day1 := checkpointFixture(t, 16)
	dir := t.TempDir()
	cfg := mcorr.TenantConfig{
		Name: "alpha", History: history, Durable: true,
		Durability: mcorr.DurabilityConfig{CheckpointEvery: 1 << 30, Fsync: mcorr.SyncNone},
		Options: []mcorr.MonitorOption{
			mcorr.WithDiscovery(mcorr.DiscoveryConfig{Budget: 40, RoundRows: 8}),
			mcorr.WithDiagnosis(mcorr.DiagnosisConfig{}),
		},
	}
	reg := mcorr.NewTenantRegistry(dir)
	tn, err := reg.CreateTenant(cfg)
	if err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	for k := 0; k < 30; k++ {
		if _, err := tn.Ingest(rowBatch(t, ds, day1.Add(time.Duration(k)*timeseries.SampleStep))...); err != nil {
			t.Fatalf("ingest row %d: %v", k, err)
		}
	}
	path := filepath.Join(mcorr.TenantDir(dir, "alpha"), "checkpoint")
	snap := func(tn *mcorr.Tenant) (manager.CheckpointMeta, []byte) {
		t.Helper()
		if err := tn.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return checkpointContents(t, path)
	}
	meta1, body1 := snap(tn)
	meta2, body2 := snap(tn)
	if meta2.Epoch != meta1.Epoch+1 {
		t.Errorf("epochs %d then %d, want consecutive", meta1.Epoch, meta2.Epoch)
	}
	mask := func(m manager.CheckpointMeta) manager.CheckpointMeta {
		m.CreatedAt, m.Epoch = time.Time{}, 0
		return m
	}
	if mask(meta1) != mask(meta2) || !bytes.Equal(body1, body2) {
		t.Fatalf("two checkpoints of an idle tenant differ (meta %+v vs %+v, bodies equal: %v)", meta1, meta2, bytes.Equal(body1, body2))
	}
	if len(body1) < 100_000 {
		t.Fatalf("checkpoint body is only %d bytes; the fixture no longer exercises the models", len(body1))
	}

	if err := reg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reg2 := mcorr.NewTenantRegistry(dir)
	defer reg2.Close()
	cfg.History = nil
	tn2, err := reg2.CreateTenant(cfg)
	if err != nil {
		t.Fatalf("recovering CreateTenant: %v", err)
	}
	if n := len(tn2.Recovered()); n != 0 {
		t.Fatalf("recovery of a cleanly closed tenant re-scored %d rows", n)
	}
	meta3, body3 := snap(tn2)
	if mask(meta3) != mask(meta2) || !bytes.Equal(body3, body2) {
		t.Fatalf("save → load → save changed the checkpoint (meta %+v vs %+v, bodies equal: %v)", meta2, meta3, bytes.Equal(body2, body3))
	}
}

// TestOpenDurableMonitorRejectsDamagedCheckpoint damages a committed
// checkpoint every way a disk or a copy can and requires the typed error —
// never a monitor, and so never a fleet with fewer pairs.
func TestOpenDurableMonitorRejectsDamagedCheckpoint(t *testing.T) {
	ds, history, day1 := checkpointFixture(t, 6)
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct {
		Version int
		Manager []byte
	}{1, make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	const endSection = 16 + len("#end") // record header + payload

	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		dcfg := mcorr.DurabilityConfig{DataDir: dir, Fsync: mcorr.SyncNone}
		dm, err := mcorr.NewDurableMonitor(history, mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true}}, dcfg, mcorr.WithShards(shards))
		if err != nil {
			t.Fatalf("NewDurableMonitor: %v", err)
		}
		pairs := len(dm.Fleet().Pairs())
		feedRows(t, dm, ds, day1, 10)
		if err := dm.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// The file that holds the models: the root, or a shard's.
		path := filepath.Join(dir, "checkpoint")
		if shards > 1 {
			matches, err := filepath.Glob(filepath.Join(dir, "shard-0", "checkpoint-*"))
			if err != nil || len(matches) != 1 {
				t.Fatalf("shard-0 checkpoint files = %v, %v", matches, err)
			}
			path = matches[0]
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flipped := bytes.Clone(whole)
		flipped[len(whole)-endSection-5000] ^= 0x01 // inside the last model's weights
		cases := []struct {
			name string
			data []byte
			want error
		}{
			{"flipped byte in a model record", flipped, manager.ErrCheckpointCorrupt},
			{"truncated mid-record", whole[:len(whole)-endSection-5000], manager.ErrCheckpointCorrupt},
			{"truncated at a record boundary, before the end section", whole[:len(whole)-endSection], manager.ErrCheckpointCorrupt},
			{"pre-record-format file", legacy.Bytes(), manager.ErrCheckpointFormat},
			{"intact", whole, nil},
		}
		for _, c := range cases {
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			re, _, err := mcorr.OpenDurableMonitor(dcfg, nil)
			if c.want == nil {
				if err != nil {
					t.Fatalf("shards=%d, %s: %v", shards, c.name, err)
				}
				if got := len(re.Fleet().Pairs()); got != pairs {
					t.Errorf("shards=%d: recovered %d pairs, want %d", shards, got, pairs)
				}
				re.Close()
				continue
			}
			if re != nil || !errors.Is(err, c.want) {
				t.Errorf("shards=%d, %s: monitor %v, error %v; want %v", shards, c.name, re != nil, err, c.want)
			}
		}
	}
}

// TestCheckpointBoundedAllocation pins the "one record resident"
// invariant without the benchmark: checkpointing a 120-pair fleet may
// allocate at most a quarter of the file it writes (plus 4 MiB for the
// buffers), and recovering it at most 1.5 × the file (the live weights and
// series are 1 × on their own). Materialising the fleet even once more on
// either path — a model clone, a blob per model, a whole-section buffer —
// breaks the bound.
func TestCheckpointBoundedAllocation(t *testing.T) {
	sub, history, day1 := checkpointFixture(t, 16)
	dcfg := mcorr.DurabilityConfig{DataDir: t.TempDir(), CheckpointEvery: 1 << 30, Fsync: mcorr.SyncNone}
	dm, err := mcorr.NewDurableMonitor(history, mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true}}, dcfg)
	if err != nil {
		t.Fatalf("NewDurableMonitor: %v", err)
	}
	pairs := len(dm.Fleet().Pairs())
	if pairs < 120 {
		t.Fatalf("fixture has %d pairs, want at least 120", pairs)
	}
	feedRows(t, dm, sub, day1, 80)

	const slack = 4 << 20
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	wrote := allocated(func() {
		if err := dm.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	})
	fi, err := os.Stat(filepath.Join(dcfg.DataDir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(fi.Size())
	if size < 8*slack {
		t.Fatalf("checkpoint is only %d bytes; too small for the bounds to mean anything", size)
	}
	if limit := size/4 + slack; wrote > limit {
		t.Errorf("Checkpoint() allocated %d bytes writing a %d-byte file; limit %d", wrote, size, limit)
	}
	if err := dm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var re *mcorr.Monitor
	read := allocated(func() {
		if re, _, err = mcorr.OpenDurableMonitor(dcfg, nil); err != nil {
			t.Fatalf("OpenDurableMonitor: %v", err)
		}
	})
	defer re.Close()
	if limit := size*3/2 + slack; read > limit {
		t.Errorf("recovery allocated %d bytes reading a %d-byte file; limit %d", read, size, limit)
	}
	if got := len(re.Fleet().Pairs()); got != pairs {
		t.Errorf("recovered %d pairs, want %d", got, pairs)
	}
	t.Logf("%d pairs, %.1f MB file: checkpoint allocated %.2f MB, recovery %.1f MB", pairs, float64(size)/1e6, float64(wrote)/1e6, float64(read)/1e6)
}
