package mcorr_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/core"
	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// A row has two forms: the map Row every fleet's Step takes at the
// boundary, and the dense slice StepValues scores. The tests here hold the
// two to the same answer on every fleet shape, and the streaming monitor to
// a row path that neither hashes nor allocates per measurement.

// hostileRows takes the clean rows of a day and makes them everything a
// row can be: measurements absent, explicit NaN, ±Inf, and on every row a
// measurement no fleet was trained on.
func hostileRows(rows []manager.Row, seed int64) []manager.Row {
	rng := rand.New(rand.NewSource(seed))
	ghost := timeseries.MeasurementID{Machine: "ghost-srv-00", Metric: "cpuUtil"}
	out := make([]manager.Row, len(rows))
	for k, row := range rows {
		vals := make(map[timeseries.MeasurementID]float64, len(row.Values)+1)
		for id, v := range row.Values {
			vals[id] = v
		}
		// The map's iteration order is random; the draws must not be.
		ids := make([]timeseries.MeasurementID, 0, len(row.Values))
		for id := range row.Values {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		for _, id := range ids {
			switch r := rng.Intn(100); {
			case r < 4:
				delete(vals, id)
			case r < 8:
				vals[id] = math.NaN()
			case r < 9:
				vals[id] = math.Inf(1)
			case r < 10:
				vals[id] = math.Inf(-1)
			}
		}
		vals[ghost] = float64(k)
		out[k] = manager.Row{Time: row.Time, Values: vals}
	}
	return out
}

// sameReport is Float64bits equality of everything a StepReport carries.
func sameReport(t *testing.T, what string, got, want mcorr.StepReport) {
	t.Helper()
	if !got.Time.Equal(want.Time) || got.ScoredPairs != want.ScoredPairs || got.GrownPairs != want.GrownPairs ||
		math.Float64bits(got.System) != math.Float64bits(want.System) {
		t.Fatalf("%s: dense %+v, map %+v", what, got, want)
	}
	if len(got.Measurements) != len(want.Measurements) || len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: dense scored %d measurements and %d pairs, map %d and %d", what,
			len(got.Measurements), len(got.Pairs), len(want.Measurements), len(want.Pairs))
	}
	for id, q := range want.Measurements {
		if g, ok := got.Measurements[id]; !ok || math.Float64bits(g) != math.Float64bits(q) {
			t.Fatalf("%s: Q^a of %s: dense %v (%v), map %v", what, id, g, ok, q)
		}
	}
	for p, q := range want.Pairs {
		if g, ok := got.Pairs[p]; !ok || math.Float64bits(g) != math.Float64bits(q) {
			t.Fatalf("%s: Q of %s: dense %v (%v), map %v", what, p, g, ok, q)
		}
	}
}

// TestStepValuesMatchesStepOnEveryFleet feeds one hostile stream to two
// identically built fleets of each shape — one through Step(Row), one
// through StepValues with a dense row the test assembles itself in IDs()
// order — with the pair graph changing mid-stream, and requires
// Float64bits-equal reports, accumulators and graphs. The dense buffer is
// one slice, scribbled over after every call: a fleet that kept a reference
// to it, or read past the call, diverges.
func TestStepValuesMatchesStepOnEveryFleet(t *testing.T) {
	history, clean, cfg := propertyFixture(t)
	rows := hostileRows(clean[:180], 5)
	all, err := manager.New(history, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := all.Pairs()
	all.Close()
	victim, missing := pairs[0], pairs[1]
	keep := func(p manager.Pair) bool { return p != missing }

	// graphChurn is the admit + evict the discovery tier would order, by
	// hand: the pair the fleet was built without comes in, another goes.
	type grapher interface {
		AddModel(manager.Pair, *core.Model) error
		RemovePair(manager.Pair) bool
	}
	graphChurn := func(t *testing.T, f mcorr.Fleet) {
		g := f.(grapher)
		if !g.RemovePair(victim) {
			t.Fatalf("victim %s was not present", victim)
		}
		if err := g.AddModel(missing, trainPairModel(t, history, missing, cfg.Model)); err != nil {
			t.Fatalf("AddModel(%s): %v", missing, err)
		}
	}
	shapes := []struct {
		name  string
		build func(t *testing.T) mcorr.Fleet
		churn func(t *testing.T, f mcorr.Fleet) // nil: the fleet changes its own graph, or never does
	}{
		{"manager", func(t *testing.T) mcorr.Fleet {
			m, err := manager.NewSubset(history, cfg, keep)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, graphChurn},
		{"shardnet=2", func(t *testing.T) mcorr.Fleet {
			addrs := make([]string, 2)
			for k := range addrs {
				w, err := mcorr.ListenShardNetWorker("127.0.0.1:0", mcorr.ShardNetWorkerConfig{DataDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				go w.Serve()
				t.Cleanup(func() { w.Close() })
				addrs[k] = w.Addr().String()
			}
			c, err := mcorr.NewShardNetFleet(history, mcorr.ShardNetConfig{Workers: addrs, Manager: cfg, Keep: keep})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, nil}, // the networked fabric's partition is fixed at construction
		{"discovery", func(t *testing.T) mcorr.Fleet {
			// Short memory and a near-1 eviction floor: on the simulator's
			// strongly correlated fleet nothing milder churns in 180 rows.
			df, err := mcorr.NewDiscoveryFleet(history, cfg, mcorr.DiscoveryConfig{
				Budget: 20, TopK: 8, RoundRows: 20, ProbeBatch: 100, MinEffSamples: 3,
				AdmitAbove: 0.1, EvictBelow: 0.99, EvictAfter: 1, Decay: 0.8, Lags: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return df
		}, nil},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			byMap, byValues := sh.build(t), sh.build(t)
			defer byMap.Close()
			defer byValues.Close()
			ids := byValues.IDs()
			vals := make([]float64, len(ids))
			for k, row := range rows {
				if k == 90 && sh.churn != nil {
					sh.churn(t, byMap)
					sh.churn(t, byValues)
				}
				for i, id := range ids {
					v, ok := row.Values[id]
					if !ok {
						v = math.NaN()
					}
					vals[i] = v
				}
				want := byMap.Step(row)
				got := byValues.StepValues(row.Time, vals)
				for i := range vals {
					vals[i] = 1e300
				}
				sameReport(t, fmt.Sprintf("row %d", k), got, want)
			}
			if a, b := byValues.SystemMean(), byMap.SystemMean(); math.Float64bits(a) != math.Float64bits(b) || byValues.Steps() != byMap.Steps() {
				t.Errorf("accumulators: dense %v over %d steps, map %v over %d", a, byValues.Steps(), b, byMap.Steps())
			}
			if !reflect.DeepEqual(byValues.Pairs(), byMap.Pairs()) {
				t.Errorf("pair graphs differ: dense %d pairs, map %d", len(byValues.Pairs()), len(byMap.Pairs()))
			}
			if df, ok := byValues.(mcorr.DiscoveryFleet); ok {
				evs := df.DrainDiscoveryEvents()
				if !reflect.DeepEqual(evs, byMap.(mcorr.DiscoveryFleet).DrainDiscoveryEvents()) {
					t.Error("discovery events differ between the dense and the map fleet")
				}
				admitted, evicted := 0, 0
				for _, ev := range evs {
					admitted += len(ev.Admitted)
					evicted += len(ev.Evicted)
				}
				if admitted == 0 || evicted == 0 {
					t.Errorf("the stream admitted %d pairs and evicted %d: it must do both", admitted, evicted)
				}
			}
		})
	}
}

// ingestFixture is a budgeted streaming monitor over a fleet of machines×8
// measurements — wide600's shape at 75 machines: trained on day 0, in-memory
// store, discovery on — and the batch that completes row k of the day that
// follows, replayed with advancing timestamps.
type ingestFixture struct {
	mon   *mcorr.Monitor
	rows  [][]float64 // one day of values in ids order
	batch []mcorr.Sample
	day1  time.Time
	next  int
}

func newIngestFixture(tb testing.TB, machines, budget int) *ingestFixture {
	tb.Helper()
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "Z", Machines: machines, Days: 2, Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	f := &ingestFixture{day1: timeseries.MonitoringStart.AddDate(0, 0, 1)}
	f.mon, err = mcorr.NewMonitor(ds.Slice(timeseries.MonitoringStart, f.day1),
		mcorr.ManagerConfig{Model: core.Config{Adaptive: true, Grid: core.GridConfig{MaxIntervals: 12}}},
		mcorr.WithPairBudget(budget))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.mon.Fleet().Close)
	ids := ds.IDs()
	f.batch = make([]mcorr.Sample, len(ids))
	f.rows = make([][]float64, timeseries.SamplesPerDay)
	for k := range f.rows {
		f.rows[k] = make([]float64, len(ids))
		for i, id := range ids {
			f.batch[i].ID = id
			s := ds.Get(id)
			idx, ok := s.IndexOf(f.day1.Add(time.Duration(k) * timeseries.SampleStep))
			if !ok {
				tb.Fatalf("%s has no sample for row %d", id, k)
			}
			f.rows[k][i] = s.Values[idx]
		}
	}
	return f
}

// ingest sends the next row's samples and returns how many rows it scored.
func (f *ingestFixture) ingest(tb testing.TB) int {
	tm := f.day1.Add(time.Duration(f.next) * timeseries.SampleStep)
	for i, v := range f.rows[f.next%len(f.rows)] {
		f.batch[i].Time, f.batch[i].Value = tm, v
	}
	f.next++
	reports, err := f.mon.Ingest(f.batch...)
	if err != nil {
		tb.Fatal(err)
	}
	return len(reports)
}

// TestMonitorIngestAllocsDoNotGrowWithFleet pins what one completed row may
// allocate on the streaming path: a constant — the span, the report slice,
// the report's own maps, which grow by doubling — however wide the fleet.
// The path it replaced cloned a Series and inserted into two maps per
// measurement: ~1 800 allocations a row at l=600, ~150 at l=48.
func TestMonitorIngestAllocsDoNotGrowWithFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an l=600 fleet")
	}
	allocs := func(machines int) float64 {
		f := newIngestFixture(t, machines, 300)
		// Past the first rows every series has room to append into and
		// the adaptive grids have met the day's range once.
		for f.next < 300 {
			f.ingest(t)
		}
		return testing.AllocsPerRun(40, func() {
			if n := f.ingest(t); n != 1 {
				t.Fatalf("ingest scored %d rows, want 1", n)
			}
		})
	}
	narrow, wide := allocs(6), allocs(75)
	t.Logf("allocations per ingested row: l=48 %.0f, l=600 %.0f", narrow, wide)
	// l grew 12.5-fold; the report's Measurements map may double a few
	// more times, nothing else may notice.
	if wide > narrow+16 || wide > 48 {
		t.Errorf("l=600 allocates %.0f a row, l=48 %.0f: the row path allocates per measurement again", wide, narrow)
	}
}

// BenchmarkMonitorIngest is one completed row through a budgeted streaming
// monitor — append, row read, 300 scored pairs, discovery sketches — at
// dense48's width and at wide600's. ns/op and allocs/op are per row.
func BenchmarkMonitorIngest(b *testing.B) {
	for _, machines := range []int{6, 75} {
		b.Run(fmt.Sprintf("l=%d", 8*machines), func(b *testing.B) {
			f := newIngestFixture(b, machines, 300)
			for f.next < 2*len(f.rows) { // adaptive growth is a first-pass transient
				f.ingest(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.ingest(b)
			}
		})
	}
}
