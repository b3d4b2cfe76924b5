package diagnose

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

// probeRow is row i of the step probe: a clean stream in which net@m1
// breaks on a lone low row 60 rows before the incident (outside the
// 48-row lookback), cpu@m1 on a lone low row 5 rows before it (inside the
// 8-row ring), and the incident opens at row 200. Every healthy row
// scores 0.9 everywhere, so the baselines do not depend on how many
// healthy rows there were.
func probeRow(i int) manager.StepReport {
	switch {
	case i == 140:
		return rep(i, 0.7, 0.9, map[timeseries.MeasurementID]float64{mNET1: 0.3})
	case i == 195:
		return rep(i, 0.7, 0.9, map[timeseries.MeasurementID]float64{mCPU1: 0.1})
	case i >= 200:
		return rep(i, 0.55, 0.65, map[timeseries.MeasurementID]float64{mCPU1: 0.1})
	}
	return rep(i, 0.9, 0.9, nil)
}

// nanRow is a row on which nothing scored.
func nanRow(i int) manager.StepReport {
	return rep(i, math.NaN(), math.NaN(), nil)
}

const probeRows = 210

// TestEarlyNaNRowLeavesCadenceAlone is the step probe: one NaN row
// between the first two scored rows used to fix the inferred cadence at
// twice the true step for good, doubling every digest's lookback and ring
// radii, and the state file kept the doubled step. The cadence is the
// smallest gap between consecutive system points, so the next two
// consecutive rows correct it — also after a restore.
func TestEarlyNaNRowLeavesCadenceAlone(t *testing.T) {
	clean := NewEngine(Config{})
	for i := 0; i < probeRows; i++ {
		clean.Observe(probeRow(i))
	}
	want := clean.Incidents()
	if len(want) != 1 || want[0].Broken != 1 || want[0].Candidates[0].Measurement != mCPU1.String() || want[0].Candidates[0].Ring != 1 {
		t.Fatalf("clean stream: want one incident with cpu@m1 alone, in ring 1; got %+v", want)
	}

	gap := NewEngine(Config{})
	for i := 0; i < probeRows; i++ {
		if i == 1 {
			gap.Observe(nanRow(i))
			continue
		}
		gap.Observe(probeRow(i))
	}
	if got := gap.Incidents(); !reflect.DeepEqual(got, want) {
		t.Errorf("an early NaN row changed the digest:\nwant %+v\ngot  %+v", want, got)
	}
	if got := gap.stepLocked(); got != step {
		t.Errorf("inferred step %v, want %v", got, step)
	}

	// The same stream saved right after the doubled guess and restored.
	saved := NewEngine(Config{})
	saved.Observe(probeRow(0))
	saved.Observe(nanRow(1))
	saved.Observe(probeRow(2))
	var buf bytes.Buffer
	if err := saved.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewEngine(Config{})
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < probeRows; i++ {
		restored.Observe(probeRow(i))
	}
	if got := restored.Incidents(); !reflect.DeepEqual(got, want) {
		t.Errorf("a doubled step restored from state changed the digest:\nwant %+v\ngot  %+v", want, got)
	}
}

// scanByName is what HistoryByName did before it split names: render
// every known measurement's name and compare.
func scanByName(e *Engine, name string) *measState {
	for _, id := range e.order {
		if id.String() == name {
			return e.meas[id]
		}
	}
	return nil
}

// TestHistoryByNameMatchesScan holds the split-and-look-up resolution to
// the scan over rendered names, '@' inside metrics and machines included:
// "a@b@c" names both {a@b, c} and {a, b@c}, and the first in sorted order
// wins.
func TestHistoryByNameMatchesScan(t *testing.T) {
	ids := []timeseries.MeasurementID{
		{Metric: "cpu", Machine: "m1"},
		{Metric: "a@b", Machine: "c"},
		{Metric: "a", Machine: "b@c"},
		{Metric: "x", Machine: "y@z"},
		{Metric: "", Machine: "m2"},
		{Metric: "q@", Machine: ""},
		{Metric: "@", Machine: "@"},
	}
	e := NewEngine(Config{})
	for k, id := range ids {
		// A distinct Q per measurement tells the histories apart.
		e.Observe(manager.StepReport{Time: t0, System: 0.9, IDs: []timeseries.MeasurementID{id}, Measurements: []float64{0.1 * float64(k+1)}})
	}
	names := []string{"", "@", "@@", "@@@", "a@b@c", "cpu@m1", "cpu@m2", "x@y@z", "x@y", "@m2", "q@@", "cpu", "a@b", "b@c"}
	for _, id := range ids {
		names = append(names, id.String())
	}
	for _, name := range names {
		want := scanByName(e, name)
		if got := e.byNameLocked(name); got != want {
			t.Errorf("%q: lookup and scan disagree", name)
		}
		hist, ok := e.HistoryByName(name, 0)
		if ok != (want != nil) || ok && !reflect.DeepEqual(hist, want.ring.tail(0)) {
			t.Errorf("%q: HistoryByName = %v, %v", name, hist, ok)
		}
	}
	if e.byNameLocked("a@b@c") != e.meas[ids[2]] {
		t.Error("a@b@c: want a@(b@c), first in sorted order (machine b@c < c)")
	}
}

// fleetEngine is an engine that has scored l measurements once.
func fleetEngine(l int) (*Engine, []timeseries.MeasurementID) {
	ids := make([]timeseries.MeasurementID, l)
	meas := make([]float64, l)
	for k := range ids {
		ids[k] = timeseries.MeasurementID{Machine: fmt.Sprintf("m%03d", k/8), Metric: fmt.Sprintf("x%d", k%8)}
		meas[k] = 0.9
	}
	e := NewEngine(Config{})
	e.Observe(manager.StepReport{Time: t0, System: 0.9, IDs: ids, Measurements: meas})
	return e, ids
}

func TestHistoryByNameLookupAllocatesNothing(t *testing.T) {
	e, ids := fleetEngine(600)
	name := ids[len(ids)-1].String()
	if allocs := testing.AllocsPerRun(100, func() { e.byNameLocked(name) }); allocs != 0 {
		t.Errorf("resolving a name allocates %.1f times a call", allocs)
	}
}

// BenchmarkHistoryByName resolves one name at l=600 by splitting it
// (lookup, what HistoryByName does; it allocates nothing) and by
// rendering every known name (scan, what it did). Copying the returned
// window out of the ring is the same either way and is left out.
func BenchmarkHistoryByName(b *testing.B) {
	e, ids := fleetEngine(600)
	name := ids[len(ids)/2].String()
	for _, bm := range []struct {
		name string
		find func(*Engine, string) *measState
	}{
		{"l=600/lookup", (*Engine).byNameLocked},
		{"l=600/scan", scanByName},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bm.find(e, name) == nil {
					b.Fatal("not found")
				}
			}
		})
	}
}
