package manager

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"mcorr/internal/core"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// poolDay is a small fleet's training history and one monitored day of
// dense rows after it, with a gap in the middle so the chains reset.
func poolDay(t *testing.T, machines, rows int) (*timeseries.Dataset, [][]float64, time.Time) {
	t.Helper()
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "M", Machines: machines, Days: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, day1)
	ids := history.IDs()
	day := make([][]float64, rows)
	for k := range day {
		day[k] = make([]float64, len(ids))
		Row{Values: rowValues(ds, day1.Add(time.Duration(k)*timeseries.SampleStep))}.FillValues(ids, day[k])
	}
	day[rows/2][1] = math.NaN()
	return history, day, day1
}

// poolTrace is what a manager's scoring leaves, as bits: each row's system
// and per-measurement scores and every pair's outcome.
type poolTrace struct {
	system   []uint64
	meas     []map[timeseries.MeasurementID]uint64
	outcomes [][]Outcome
}

func (tr *poolTrace) step(m *Manager, at time.Time, vals []float64) {
	rep := m.StepValues(at, vals)
	tr.system = append(tr.system, math.Float64bits(rep.System))
	meas := make(map[timeseries.MeasurementID]uint64, len(rep.Measurements))
	for k, q := range rep.Measurements {
		meas[rep.IDs[k]] = math.Float64bits(q)
	}
	tr.meas = append(tr.meas, meas)
	tr.outcomes = append(tr.outcomes, append([]Outcome(nil), m.outcomes...))
}

// diff names the first row where got and want part, or "" when they agree
// bit for bit.
func (tr *poolTrace) diff(want *poolTrace) string {
	if len(tr.system) != len(want.system) {
		return "row counts differ"
	}
	for k := range want.system {
		if tr.system[k] != want.system[k] {
			return fmt.Sprintf("system score of row %d", k)
		}
		if len(tr.meas[k]) != len(want.meas[k]) {
			return fmt.Sprintf("measurement count of row %d", k)
		}
		for id, q := range want.meas[k] {
			if tr.meas[k][id] != q {
				return fmt.Sprintf("Q^a of %s in row %d", id, k)
			}
		}
		for i, w := range want.outcomes[k] {
			g := tr.outcomes[k][i]
			if math.Float64bits(g.Fitness) != math.Float64bits(w.Fitness) || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
				g.Scored != w.Scored || g.Gap != w.Gap || g.Grown != w.Grown || g.Steady != w.Steady {
				return fmt.Sprintf("outcome of pair %d in row %d", i, k)
			}
		}
	}
	return ""
}

func poolConfig(workers int) Config {
	return Config{Workers: workers, ProbDelta: 1e-9, Model: core.Config{Adaptive: true, Grid: core.GridConfig{MaxIntervals: 6}}}
}

// TestPoolConcurrentManagersMatchAlone: every manager in the process posts
// to the one helper set, so three managers stepping at once from their own
// goroutines share the helpers row by row — and none of them may notice.
// Each one's reports and outcomes are Float64bits-identical to the same
// manager stepped alone.
func TestPoolConcurrentManagersMatchAlone(t *testing.T) {
	history, day, day1 := poolDay(t, 2, 48)
	workers := []int{1, 2, 4}
	build := func() []*Manager {
		ms := make([]*Manager, len(workers))
		for i, w := range workers {
			m, err := New(history, poolConfig(w))
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		return ms
	}
	walk := func(m *Manager) *poolTrace {
		tr := &poolTrace{}
		for k, vals := range day {
			tr.step(m, day1.Add(time.Duration(k)*timeseries.SampleStep), vals)
		}
		return tr
	}
	alone := make([]*poolTrace, len(workers))
	for i, m := range build() {
		alone[i] = walk(m)
	}
	together := make([]*poolTrace, len(workers))
	var wg sync.WaitGroup
	for i, m := range build() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = walk(m)
		}()
	}
	wg.Wait()
	for i, w := range workers {
		if d := together[i].diff(alone[i]); d != "" {
			t.Errorf("workers=%d: stepped beside two other managers, the %s differs from stepping alone", w, d)
		}
	}
}

// TestPoolHoldsNoGoroutinePerManager: the helpers belong to the process, so
// building, stepping and dropping many managers — unclosed, with a worker
// count far above the core count — leaves at most GOMAXPROCS goroutines
// more than before, however soon a collection runs.
func TestPoolHoldsNoGoroutinePerManager(t *testing.T) {
	history, day, day1 := poolDay(t, 1, 2)
	history = history.Slice(timeseries.MonitoringStart, timeseries.MonitoringStart.Add(4*time.Hour))
	before := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		m, err := New(history, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		m.StepValues(day1, day[0])
	}
	if grown, procs := runtime.NumGoroutine()-before, runtime.GOMAXPROCS(0); grown > procs {
		t.Errorf("64 dropped managers left %d more goroutines, want at most GOMAXPROCS = %d", grown, procs)
	}
}

// TestPoolWakesParkedHelpers: once a helper has polled for a whole spin
// window without work it parks, and the next posted job must wake it —
// the job completes with the right scores, and the hand-off is counted as
// one to a parked helper. With GOMAXPROCS 1 the process has no helper to
// call on, and the caller scores alone.
func TestPoolWakesParkedHelpers(t *testing.T) {
	history, day, day1 := poolDay(t, 2, 8)
	ref, err := New(history, poolConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(history, poolConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var want, got poolTrace
	for k, vals := range day {
		at := day1.Add(time.Duration(k) * timeseries.SampleStep)
		want.step(ref, at, vals)
		time.Sleep(20 * spinWindow) // every helper's spin runs out
		parked := obsHandoffParked.Value()
		got.step(m, at, vals)
		moved := obsHandoffParked.Value() - parked
		if runtime.GOMAXPROCS(0) > 1 && moved == 0 {
			t.Fatalf("row %d: posted to parked helpers, but no parked hand-off was counted", k)
		}
		if runtime.GOMAXPROCS(0) == 1 && moved != 0 {
			t.Fatalf("row %d: %d parked hand-offs with GOMAXPROCS 1", k, moved)
		}
	}
	if d := got.diff(&want); d != "" {
		t.Errorf("after parked hand-offs, the %s differs from one worker", d)
	}
}

// TestPoolFollowsGOMAXPROCS: the helper set grows when GOMAXPROCS does,
// which a test binary run at -cpu 1,2,4 does between tests; a manager
// stepped through 1 → 2 → 4 Ps within one run scores exactly what one
// worker does.
func TestPoolFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	history, day, day1 := poolDay(t, 2, 48)
	ref, err := New(history, poolConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(history, poolConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var want, got poolTrace
	for k, vals := range day {
		switch k {
		case 0:
			runtime.GOMAXPROCS(1)
		case len(day) / 3:
			runtime.GOMAXPROCS(2)
		case 2 * len(day) / 3:
			runtime.GOMAXPROCS(4)
		}
		at := day1.Add(time.Duration(k) * timeseries.SampleStep)
		want.step(ref, at, vals)
		got.step(m, at, vals)
	}
	if d := got.diff(&want); d != "" {
		t.Errorf("across GOMAXPROCS 1 → 2 → 4, the %s differs from one worker", d)
	}
}
