package manager

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"mcorr/internal/alarm"
	"mcorr/internal/core"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// smallManager trains a manager over a 10-measurement subset (45 pair
// models) — enough structure for persistence tests at a fraction of the
// serialization volume.
func smallManager(t *testing.T, cfg Config) (*Manager, *timeseries.Dataset) {
	t.Helper()
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "P", Machines: 3, Days: 2, Seed: 19,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sub := timeseries.NewDataset()
	for _, id := range ds.IDs()[:10] {
		sub.Add(ds.Get(id))
	}
	trainEnd := timeseries.MonitoringStart.AddDate(0, 0, 1)
	mgr, err2 := New(sub.Slice(timeseries.MonitoringStart, trainEnd), cfg)
	if err2 != nil {
		t.Fatalf("New: %v", err2)
	}
	return mgr, sub
}

func TestManagerSaveLoadRoundTrip(t *testing.T) {
	mgr, ds := smallManager(t, Config{MeasurementThreshold: 0.5})
	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	if _, err := mgr.Run(ds, from, from.Add(20*timeseries.SampleStep)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := mgr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	sink := &alarm.MemorySink{}
	r, err := LoadManager(&buf, sink)
	if err != nil {
		t.Fatalf("LoadManager: %v", err)
	}
	if len(r.Pairs()) != len(mgr.Pairs()) {
		t.Fatalf("pairs %d != %d", len(r.Pairs()), len(mgr.Pairs()))
	}
	if len(r.IDs()) != len(mgr.IDs()) {
		t.Fatalf("ids %d != %d", len(r.IDs()), len(mgr.IDs()))
	}
	// Accumulated state survives.
	if r.Steps() != mgr.Steps() {
		t.Errorf("steps %d != %d", r.Steps(), mgr.Steps())
	}
	if math.Abs(r.SystemMean()-mgr.SystemMean()) > 1e-12 {
		t.Errorf("system mean %g != %g", r.SystemMean(), mgr.SystemMean())
	}
	am, bm := mgr.MeasurementMeans(), r.MeasurementMeans()
	for id, v := range am {
		if math.Abs(bm[id]-v) > 1e-12 {
			t.Errorf("measurement mean for %s differs", id)
		}
	}
	// The restored manager keeps scoring identically.
	next := from.Add(20 * timeseries.SampleStep)
	rowA := Row{Time: next, Values: rowValues(ds, next)}
	repA := mgr.Step(rowA)
	repB := r.Step(rowA)
	if math.Abs(repA.System-repB.System) > 1e-12 || repA.ScoredPairs != repB.ScoredPairs {
		t.Errorf("post-restore step diverged: %+v vs %+v", repA.System, repB.System)
	}
	// Localization works on restored accumulators.
	if r.Localize().Suspect() == "" {
		t.Error("restored localization empty")
	}
}

func TestManagerLoadAttachesSink(t *testing.T) {
	mgr, ds := smallManager(t, Config{MeasurementThreshold: 0.99, SystemThreshold: 0.99})
	var buf bytes.Buffer
	if err := mgr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	sink := &alarm.MemorySink{}
	r, err := LoadManager(&buf, sink)
	if err != nil {
		t.Fatalf("LoadManager: %v", err)
	}
	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	if _, err := r.Run(ds, from, from.Add(10*timeseries.SampleStep)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With a 0.99 threshold something must fire, proving the sink is live.
	if sink.Len() == 0 {
		t.Error("restored manager should publish to the attached sink")
	}
}

func TestLoadManagerRejectsGarbage(t *testing.T) {
	if _, err := LoadManager(bytes.NewBufferString("nope"), nil); err == nil {
		t.Error("garbage: want error")
	}
}

// Two saves of one state are byte-identical (pairs and accumulators go
// out sorted, not in map order), a saved stream reloads to a manager that
// saves the same bytes again, and a reader is left exactly at the end of
// the manager's records.
func TestManagerSaveIsDeterministic(t *testing.T) {
	mgr, ds := smallManager(t, Config{Model: core.Config{Adaptive: true}})
	defer mgr.Close()
	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	if _, err := mgr.Run(ds, from, from.Add(40*timeseries.SampleStep)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	save := func(m *Manager) []byte {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		return buf.Bytes()
	}
	first := save(mgr)
	if second := save(mgr); !bytes.Equal(first, second) {
		t.Fatal("two saves of one state differ")
	}
	r := bytes.NewReader(append(bytes.Clone(first), "next section"...))
	restored, err := LoadManager(r, nil)
	if err != nil {
		t.Fatalf("LoadManager: %v", err)
	}
	defer restored.Close()
	if r.Len() != len("next section") {
		t.Fatalf("LoadManager left %d bytes unread, want exactly the %d that follow the manager", r.Len(), len("next section"))
	}
	if again := save(restored); !bytes.Equal(first, again) {
		t.Fatal("save → load → save changed the bytes")
	}
}

// Damage anywhere in a saved manager is an error wrapping wal.ErrCorrupt,
// never a manager with fewer pairs.
func TestLoadManagerRejectsDamage(t *testing.T) {
	mgr, _ := smallManager(t, Config{})
	defer mgr.Close()
	var buf bytes.Buffer
	if err := mgr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	whole := buf.Bytes()
	for name, data := range map[string][]byte{
		"flipped model byte": flipByte(whole, len(whole)/2),
		"truncated":          whole[:len(whole)-1000],
		"last model missing": whole[:len(whole)/2],
	} {
		if m, err := LoadManager(bytes.NewReader(data), nil); !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: manager %v, error %v; want wal.ErrCorrupt", name, m != nil, err)
		}
	}
}

// TestFleetStoresObservedRowsOnly is the fleet-level size check on
// deterministic counts (no heap measurement): an l=16 full graph on the
// benchmark's settings — simulator seed 9, MaxIntervals 12, trained on day
// 0, stepped through the next 480 rows — stores at most 40 % of its
// matrices' rows, saves within 10 % of 8 bytes per stored entry, and says
// so on mcorr_manager_model_bytes.
func TestFleetStoresObservedRowsOnly(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "L", Machines: 2, Days: 3, Seed: 9})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	mgr, err := New(ds.Slice(timeseries.MonitoringStart, day1),
		Config{Model: core.Config{Adaptive: true, Grid: core.GridConfig{MaxIntervals: 12}}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	others := obsModelBytes.Value() - mgr.modelBytes // managers of earlier tests
	if len(mgr.IDs()) != 16 || mgr.modelBytes <= 0 {
		t.Fatalf("fixture: %d measurements, %v model bytes after training", len(mgr.IDs()), mgr.modelBytes)
	}
	reports, err := mgr.Run(ds, day1, day1.Add(480*timeseries.SampleStep))
	if err != nil || len(reports) != 480 {
		t.Fatalf("Run: %d reports, %v", len(reports), err)
	}

	var cells, rows, entries int
	for _, model := range mgr.modelAt {
		tm := model.Matrix()
		cells += tm.NumCells()
		rows += tm.ObservedRows()
		entries += tm.NumCells() * tm.ObservedRows()
	}
	t.Logf("%d pairs: %d of %d rows stored (%.1f %%), %d entries", len(mgr.Pairs()), rows, cells, 100*float64(rows)/float64(cells), entries)
	if 10*rows > 4*cells {
		t.Errorf("%d of %d rows stored: more than 40 %%", rows, cells)
	}
	var buf bytes.Buffer
	if err := mgr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if want := 8 * entries; buf.Len() < want || buf.Len() > want+want/10 {
		t.Errorf("saved manager is %d bytes for %d bytes of stored rows: not within 10 %%", buf.Len(), want)
	}
	if got := obsModelBytes.Value() - others; got != float64(8*entries) {
		t.Errorf("mcorr_manager_model_bytes reports %v for this fleet after Save, want %d", got, 8*entries)
	}
	mgr.Close()
	if got := obsModelBytes.Value(); got != others {
		t.Errorf("mcorr_manager_model_bytes is %v after Close, want the other managers' %v", got, others)
	}
}

// TestLoadManagerRefusesInconsistentHeader: a pair reads its two values
// from the row by its endpoints' indices, so LoadManager must refuse a
// header whose pairs and ids disagree, and AddModel a pair that reaches
// outside the fleet. Each header is a trained manager's, altered in place
// before Save.
func TestLoadManagerRefusesInconsistentHeader(t *testing.T) {
	cases := []struct {
		name  string
		alter func(m *Manager)
	}{
		{"pair outside ids", func(m *Manager) { m.ids = m.ids[1:] }},
		{"non-canonical pair", func(m *Manager) { m.pairs[0] = Pair{A: m.pairs[0].B, B: m.pairs[0].A} }},
		{"duplicated id", func(m *Manager) { m.ids = append([]timeseries.MeasurementID{m.ids[0]}, m.ids...) }},
		{"ids out of order", func(m *Manager) { m.ids[0], m.ids[1] = m.ids[1], m.ids[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgr, _ := smallManager(t, Config{})
			defer mgr.Close()
			mgr.ids = append([]timeseries.MeasurementID(nil), mgr.ids...)
			tc.alter(mgr)
			var buf bytes.Buffer
			if err := mgr.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			if r, err := LoadManager(&buf, nil); !errors.Is(err, wal.ErrCorrupt) {
				if r != nil {
					r.Close()
				}
				t.Fatalf("LoadManager: %v, want wal.ErrCorrupt", err)
			}
		})
	}

	mgr, ds := smallManager(t, Config{})
	defer mgr.Close()
	ids := mgr.IDs()
	model := mgr.Model(ids[0], ids[1])
	ghost := timeseries.MeasurementID{Machine: "ghost-srv-00", Metric: "cpuUtil"}
	if err := mgr.AddModel(MakePair(ids[0], ghost), model); err == nil {
		t.Error("AddModel accepted a pair with an endpoint outside the fleet")
	}
	if err := mgr.AddModel(Pair{A: ids[0], B: ids[0]}, model); err == nil {
		t.Error("AddModel accepted a self-pair")
	}
	if got := len(mgr.Pairs()); got != len(ds.IDs())*(len(ds.IDs())-1)/2 {
		t.Errorf("refused admissions changed the graph: %d pairs", got)
	}
}
