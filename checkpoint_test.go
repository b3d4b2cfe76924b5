package mcorr_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
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
// idle tenant (discovery and diagnosis on) are byte-identical once the meta
// section's CreatedAt and Epoch — which advance with every checkpoint by
// design — are masked, and closing, recovering and checkpointing again
// (save → load → save) reproduces the same bytes.
func TestCheckpointBytesDeterministic(t *testing.T) {
	ds, history, day1 := checkpointFixture(t, 16)
	t.Run("one manager", func(t *testing.T) {
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
	})
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

	dir := t.TempDir()
	dcfg := mcorr.DurabilityConfig{DataDir: dir, Fsync: mcorr.SyncNone}
	dm, err := mcorr.NewDurableMonitor(history, mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true}}, dcfg)
	if err != nil {
		t.Fatalf("NewDurableMonitor: %v", err)
	}
	pairs := len(dm.Fleet().Pairs())
	feedRows(t, dm, ds, day1, 10)
	if err := dm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, "checkpoint")
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
		{"file of the previous container version", append([]byte("MCORCKP4"), whole[len(manager.CheckpointMagic):]...), manager.ErrCheckpointFormat},
		{"intact", whole, nil},
	}
	for _, c := range cases {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, _, err := mcorr.OpenDurableMonitor(dcfg, nil)
		if c.want == nil {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := len(re.Fleet().Pairs()); got != pairs {
				t.Errorf("recovered %d pairs, want %d", got, pairs)
			}
			re.Close()
			continue
		}
		if re != nil || !errors.Is(err, c.want) {
			t.Errorf("%s: monitor %v, error %v; want %v", c.name, re != nil, err, c.want)
		}
	}
}

// fuzzSeeds returns the checked-in corpus of FuzzCheckpointRecords
// (gen_checkpoint_corpus.go writes it), each file's one []byte argument by
// file name.
func fuzzSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointRecords")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string][]byte, len(entries))
	for _, e := range entries {
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(strings.TrimSpace(string(text)), "go test fuzz v1\n[]byte(")
		if ok {
			quoted, ok = strings.CutSuffix(quoted, ")")
		}
		data, err := strconv.Unquote(quoted)
		if !ok || err != nil {
			t.Fatalf("%s is not a one-[]byte seed file (%v)", e.Name(), err)
		}
		seeds[e.Name()] = []byte(data)
	}
	return seeds
}

// TestCheckpointCorpusIsCurrent keeps the checked-in fuzz corpus alive. A
// seed that opens with a checkpoint magic must open with the current one: a
// bump of manager.CheckpointMagic that forgets `make corpus` would leave
// every seed refused in its first 8 bytes and the fuzzer exploring nothing.
// And every generated seed must still mean what its name says, through the
// real entry point: the valid ones recover, the rest are corrupt.
func TestCheckpointCorpusIsCurrent(t *testing.T) {
	seeds := fuzzSeeds(t)
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
	magic := []byte(manager.CheckpointMagic)
	anyVersion := magic[:len(magic)-1] // the digit is the version
	for name, data := range seeds {
		current := bytes.HasPrefix(data, magic)
		if bytes.HasPrefix(data, anyVersion) && !current {
			t.Errorf("%s opens with %q, not %q: regenerate the corpus with `make corpus`", name, data[:len(magic)], magic)
			continue
		}
		if !strings.HasPrefix(name, "seed_") {
			continue // a crasher the fuzzer filed; the fuzz target replays it
		}
		var want error
		switch {
		case !current:
			want = manager.ErrCheckpointFormat
		case !strings.HasPrefix(name, "seed_valid_"):
			want = manager.ErrCheckpointCorrupt
		}
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "wal"), 0o755); err != nil { // an empty log to replay
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoint"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, _, err := mcorr.OpenDurableMonitor(mcorr.DurabilityConfig{DataDir: dir, Fsync: mcorr.SyncNone}, nil)
		if !errors.Is(err, want) || (re != nil) != (want == nil) {
			t.Errorf("%s: monitor %v, error %v; want %v", name, re != nil, err, want)
		}
		if re != nil {
			re.Close()
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
