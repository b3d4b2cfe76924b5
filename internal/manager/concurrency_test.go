package manager

import (
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"mcorr/internal/core"
	"mcorr/internal/mathx"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// TestManagerConcurrentStepAndReads hammers Step together with every
// read-side accessor from separate goroutines. Under -race (make check)
// this exercises the persistent worker pool, the reused outcome buffers
// and the accumulator maps for unsynchronized access.
func TestManagerConcurrentStepAndReads(t *testing.T) {
	mgr, ds, _ := trainedManager(t, Config{
		Model:          core.Config{Adaptive: true},
		TrackPairMeans: true,
	}, 2)
	defer mgr.Close()

	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	const steps = 48
	rows := make([]Row, steps)
	for i := range rows {
		at := from.Add(time.Duration(i) * timeseries.SampleStep)
		rows[i] = Row{Time: at, Values: rowValues(ds, at)}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, row := range rows {
			rep := mgr.Step(row)
			if rep.ScoredPairs > 0 && (rep.System < 0 || rep.System > 1) {
				t.Errorf("system score %g out of range", rep.System)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				_ = mgr.MeasurementMeans()
				_ = mgr.SystemMean()
				_ = mgr.Steps()
				_ = mgr.Pairs()
				_ = mgr.PairStates()
				_ = mgr.PairMeans()
				_ = mgr.WorstPairs(3)
				_ = mgr.Localize()
			}
		}()
	}
	wg.Wait()

	// Steps counts only rows that produced a system score; gaps in the
	// generated trace may drop a few.
	if got := mgr.Steps(); got == 0 || got > steps {
		t.Errorf("steps %d, want 1..%d", got, steps)
	}
}

// TestManagerStepDeterministic: with the cached sorted pair slice and
// index-based aggregation, two managers trained identically must produce
// identical reports — including the floating-point accumulation order of
// the system score — run to run.
func TestManagerStepDeterministic(t *testing.T) {
	build := func() (*Manager, *timeseries.Dataset) {
		mgr, ds, _ := trainedManager(t, Config{Model: core.Config{Adaptive: true}}, 2)
		return mgr, ds
	}
	a, ds := build()
	defer a.Close()
	b, _ := build()
	defer b.Close()

	pa, pb := a.Pairs(), b.Pairs()
	if len(pa) != len(pb) {
		t.Fatalf("pair counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("pair order differs at %d: %v vs %v", i, pa[i], pb[i])
		}
	}

	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	for i := 0; i < 32; i++ {
		at := from.Add(time.Duration(i) * timeseries.SampleStep)
		row := Row{Time: at, Values: rowValues(ds, at)}
		ra, rb := a.Step(row), b.Step(row)
		if ra.ScoredPairs != rb.ScoredPairs {
			t.Fatalf("step %d: scored pairs %d vs %d", i, ra.ScoredPairs, rb.ScoredPairs)
		}
		if !(math.IsNaN(ra.System) && math.IsNaN(rb.System)) && ra.System != rb.System {
			t.Fatalf("step %d: system %v vs %v (not bit-identical)", i, ra.System, rb.System)
		}
		for k, q := range ra.Measurements {
			if math.Float64bits(rb.Measurements[k]) != math.Float64bits(q) {
				t.Fatalf("step %d: measurement %s differs", i, ra.IDs[k])
			}
		}
		sa, sb := a.PairStates(), b.PairStates()
		if len(sa) != len(sb) {
			t.Fatalf("step %d: %d links vs %d", i, len(sa), len(sb))
		}
		for k := range sa {
			if sa[k].Pair != sb[k].Pair || sa[k].Scored != sb[k].Scored || math.Float64bits(sa[k].Fitness) != math.Float64bits(sb[k].Fitness) {
				t.Fatalf("step %d: pair %s differs: %+v vs %+v", i, sa[k].Pair, sa[k], sb[k])
			}
		}
	}
	if a.SystemMean() != b.SystemMean() {
		t.Errorf("running system means diverged: %v vs %v", a.SystemMean(), b.SystemMean())
	}
}

// TestManagerCloseIdempotent: Close twice is safe, and a closed manager's
// read-side accessors still work, and so does stepping it: the scoring
// helpers are the process's, so Close has none to stop.
func TestManagerCloseIdempotent(t *testing.T) {
	mgr, ds, _ := trainedManager(t, Config{}, 2)
	mgr.Close()
	mgr.Close()
	if len(mgr.Pairs()) == 0 {
		t.Error("pairs lost after close")
	}
	_ = mgr.SystemMean()
	var rep StepReport
	for k := 0; k < 3; k++ {
		at := timeseries.MonitoringStart.AddDate(0, 0, 1).Add(time.Duration(k) * timeseries.SampleStep)
		rep = mgr.Step(Row{Time: at, Values: rowValues(ds, at)})
	}
	if rep.ScoredPairs == 0 {
		t.Error("a closed manager stepped three rows and scored no pair on the last")
	}
}

// TestTrajectoryIndependentOfWorkers: the pool hands chunks to whichever
// worker claims them first, so which goroutine scores (and trains) a pair
// differs from row to row and run to run — and must not show. One day with
// grid growth, a NaN gap and an out-of-grid point is scored through
// StepValues and through ScoreInto by fleets of 1, 2, 3 and 7 workers, with
// and without FullRescore: every report and outcome is Float64bits-identical
// to the single-worker incremental one, and the dirty-pair count of every row
// depends on FullRescore alone.
func TestTrajectoryIndependentOfWorkers(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "M", Machines: 2, Days: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, day1)
	ids := history.IDs()
	const rows = 96
	day := make([][]float64, rows)
	for k := range day {
		at := day1.Add(time.Duration(k) * timeseries.SampleStep)
		day[k] = make([]float64, len(ids))
		Row{Values: rowValues(ds, at)}.FillValues(ids, day[k])
	}
	day[20][3], day[21][3], day[21][5] = math.NaN(), math.NaN(), math.NaN()
	day[40][7] *= 1e6 // far beyond λ average widths: rejected, never grown to

	type trace struct {
		system   []uint64
		pairs    [][]PairState // StepValues: each link's state after the row, in pair order
		outcomes [][]Outcome
		dirty    [2][]int // StepValues, ScoreInto
	}
	run := func(workers int, full bool) trace {
		var tr trace
		cfg := Config{Workers: workers, FullRescore: full, ProbDelta: 1e-9,
			Model: core.Config{Adaptive: true, Grid: core.GridConfig{MaxIntervals: 6}}}
		stepped, err := New(history, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer stepped.Close()
		scored, err := New(history, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer scored.Close()
		pairs := stepped.PairCount()
		for k, vals := range day {
			rep := stepped.StepValues(day1.Add(time.Duration(k)*timeseries.SampleStep), vals)
			tr.system = append(tr.system, math.Float64bits(rep.System))
			tr.pairs = append(tr.pairs, stepped.PairStates())
			out := make([]Outcome, pairs)
			scored.ScoreInto(vals, out)
			tr.outcomes = append(tr.outcomes, out)
			tr.dirty[0] = append(tr.dirty[0], dirtyPairs(stepped))
			tr.dirty[1] = append(tr.dirty[1], dirtyPairs(scored))
		}
		return tr
	}

	same := func(a, b Outcome) bool {
		return math.Float64bits(a.Fitness) == math.Float64bits(b.Fitness) && math.Float64bits(a.Prob) == math.Float64bits(b.Prob) &&
			a.Scored == b.Scored && a.Gap == b.Gap && a.Grown == b.Grown && a.Steady == b.Steady
	}
	ref := run(1, false)
	var gaps, grown, rejected, carried int
	for k, out := range ref.outcomes {
		for _, o := range out {
			if o.Gap {
				gaps++
			}
			if o.Grown {
				grown++
			}
			if o.Scored && o.Fitness == 0 {
				rejected++
			}
		}
		carried += len(out) - ref.dirty[1][k]
	}
	if gaps == 0 || grown == 0 || rejected == 0 || carried == 0 {
		t.Fatalf("the day exercises %d gaps, %d growths, %d out-of-grid points, %d carried pairs: want some of each", gaps, grown, rejected, carried)
	}
	for _, full := range []bool{false, true} {
		var dirty [2][]int
		for _, workers := range []int{1, 2, 3, 7} {
			got := run(workers, full)
			if dirty[0] == nil {
				dirty = got.dirty
			}
			for k := range day {
				if got.system[k] != ref.system[k] {
					t.Fatalf("workers=%d full=%v row %d: system %x, want %x", workers, full, k, got.system[k], ref.system[k])
				}
				for i := range got.pairs[k] {
					if g, w := got.pairs[k][i], ref.pairs[k][i]; g.Pair != w.Pair || g.Scored != w.Scored || math.Float64bits(g.Fitness) != math.Float64bits(w.Fitness) {
						t.Fatalf("workers=%d full=%v row %d pair %d: %+v, want %+v", workers, full, k, i, g, w)
					}
					if !same(got.outcomes[k][i], ref.outcomes[k][i]) {
						t.Fatalf("workers=%d full=%v row %d pair %d: outcome %+v, want %+v", workers, full, k, i, got.outcomes[k][i], ref.outcomes[k][i])
					}
				}
				for via := range dirty {
					if got.dirty[via][k] != dirty[via][k] {
						t.Fatalf("workers=%d full=%v row %d: %d dirty pairs, %d with one worker", workers, full, k, got.dirty[via][k], dirty[via][k])
					}
				}
				if full && got.dirty[0][k] != len(got.pairs[k]) {
					t.Fatalf("workers=%d row %d: FullRescore re-scored %d of %d pairs", workers, k, got.dirty[0][k], len(got.pairs[k]))
				}
			}
		}
	}
}

// TestStepBesideModelReadsAndWrites: the scoring loop warms and steps models
// that an operator may be explaining, diagnosing, resetting, flipping to
// offline or checkpointing at that moment. Every one of those takes the
// model's own mutex, Warm included; under -race this is the proof.
func TestStepBesideModelReadsAndWrites(t *testing.T) {
	mgr, ds, _ := trainedManager(t, Config{Workers: 3, Model: core.Config{Adaptive: true}}, 2)
	defer mgr.Close()
	from := timeseries.MonitoringStart.AddDate(0, 0, 1)
	ids, models := mgr.IDs(), append([]*core.Model(nil), mgr.modelAt...)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	beside := func(f func(*core.Model)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, model := range models {
					select {
					case <-stop:
						return
					default:
						f(model)
					}
				}
			}
		}()
	}
	beside(func(m *core.Model) { m.Explain(mathx.Point2{X: 1, Y: 1}, 3) })
	beside(func(m *core.Model) { _ = m.Diagnostics() })
	beside(func(m *core.Model) { m.Reset() })
	beside(func(m *core.Model) {
		if err := m.Save(io.Discard); err != nil {
			t.Error(err)
		}
	})
	beside(func(m *core.Model) { m.SetAdaptive(true) })
	vals := make([]float64, len(ids))
	for k := 0; k < 16; k++ {
		at := from.Add(time.Duration(k) * timeseries.SampleStep)
		Row{Values: rowValues(ds, at)}.FillValues(ids, vals)
		mgr.StepValues(at, vals)
	}
	close(stop)
	wg.Wait()
}

// dirtyPairs reads how many pairs re-scored on m's most recent row (the
// rest carried their cached outcome forward).
func dirtyPairs(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastDirty
}
