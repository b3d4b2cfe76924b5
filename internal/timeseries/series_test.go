package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"mcorr/internal/mathx"
)

var (
	idA = MeasurementID{Machine: "host1", Metric: "cpu"}
	idB = MeasurementID{Machine: "host2", Metric: "net_in"}
)

func mustSeries(t *testing.T, id MeasurementID, start time.Time, step time.Duration, vals ...float64) *Series {
	t.Helper()
	s, err := NewSeries(id, start, step)
	if err != nil {
		t.Fatalf("NewSeries: %v", err)
	}
	s.Values = append(s.Values, vals...)
	return s
}

func TestNewSeriesRejectsBadStep(t *testing.T) {
	if _, err := NewSeries(idA, time.Now(), 0); err == nil {
		t.Error("zero step: want error")
	}
	if _, err := NewSeries(idA, time.Now(), -time.Second); err == nil {
		t.Error("negative step: want error")
	}
}

func TestMeasurementID(t *testing.T) {
	if idA.String() != "cpu@host1" {
		t.Errorf("String = %q", idA.String())
	}
	if !idA.Less(idB) || idB.Less(idA) {
		t.Error("Less should order host1 before host2")
	}
	same := MeasurementID{Machine: "host1", Metric: "mem"}
	if !idA.Less(same) {
		t.Error("Less should fall back to metric within a machine")
	}
}

func TestSeriesIndexing(t *testing.T) {
	start := Date(2008, time.May, 29)
	s := mustSeries(t, idA, start, SampleStep, 1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.TimeAt(2).Equal(start.Add(12 * time.Minute)) {
		t.Errorf("TimeAt(2) = %v", s.TimeAt(2))
	}
	if !s.End().Equal(start.Add(18 * time.Minute)) {
		t.Errorf("End = %v", s.End())
	}
	if i, ok := s.IndexOf(start.Add(7 * time.Minute)); !ok || i != 1 {
		t.Errorf("IndexOf mid-interval = %d, %v", i, ok)
	}
	if _, ok := s.IndexOf(start.Add(-time.Minute)); ok {
		t.Error("IndexOf before start should be false")
	}
	if _, ok := s.IndexOf(s.End()); ok {
		t.Error("IndexOf at End should be false")
	}
}

func TestSeriesCloneIndependent(t *testing.T) {
	s := mustSeries(t, idA, Date(2008, time.May, 29), SampleStep, 1, 2)
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestSeriesSlice(t *testing.T) {
	start := Date(2008, time.May, 29)
	s := mustSeries(t, idA, start, time.Minute, 0, 1, 2, 3, 4, 5)
	// Window covering samples 2..4.
	w := s.Slice(start.Add(2*time.Minute), start.Add(5*time.Minute))
	if w.Len() != 3 || w.Values[0] != 2 || w.Values[2] != 4 {
		t.Errorf("Slice = %v", w.Values)
	}
	if !w.Start.Equal(start.Add(2 * time.Minute)) {
		t.Errorf("Slice start = %v", w.Start)
	}
	// Window larger than the series is clipped.
	all := s.Slice(start.Add(-time.Hour), start.Add(time.Hour))
	if all.Len() != 6 {
		t.Errorf("clipped Slice len = %d", all.Len())
	}
	// Empty window.
	e := s.Slice(start.Add(3*time.Minute), start.Add(3*time.Minute))
	if e.Len() != 0 {
		t.Errorf("empty Slice len = %d", e.Len())
	}
	// Mid-interval from rounds up to the next grid point.
	m := s.Slice(start.Add(90*time.Second), start.Add(4*time.Minute))
	if m.Len() != 2 || m.Values[0] != 2 {
		t.Errorf("mid-interval Slice = %v", m.Values)
	}
}

func TestSeriesStats(t *testing.T) {
	s := mustSeries(t, idA, Date(2008, time.May, 29), time.Minute, 1, math.NaN(), 3)
	mean, std := s.Stats()
	if mean != 2 {
		t.Errorf("mean = %g", mean)
	}
	if !mathx.AlmostEqual(std, math.Sqrt(2), 1e-12) {
		t.Errorf("std = %g", std)
	}
	one := mustSeries(t, idA, Date(2008, time.May, 29), time.Minute, 5)
	_, std = one.Stats()
	if std != 0 {
		t.Errorf("single-sample std = %g, want 0", std)
	}
	empty := mustSeries(t, idA, Date(2008, time.May, 29), time.Minute)
	mean, _ = empty.Stats()
	if !math.IsNaN(mean) {
		t.Error("empty Stats mean should be NaN")
	}
}

func TestAlignPair(t *testing.T) {
	start := Date(2008, time.May, 29)
	a := mustSeries(t, idA, start, time.Minute, 1, 2, 3, 4)
	b := mustSeries(t, idB, start.Add(time.Minute), time.Minute, 20, 30, 40, 50)
	pts, from, err := AlignPair(a, b)
	if err != nil {
		t.Fatalf("AlignPair: %v", err)
	}
	if !from.Equal(start.Add(time.Minute)) {
		t.Errorf("aligned start = %v", from)
	}
	want := []mathx.Point2{{X: 2, Y: 20}, {X: 3, Y: 30}, {X: 4, Y: 40}}
	if len(pts) != len(want) {
		t.Fatalf("aligned %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("pts[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

func TestAlignPairNaNsDropped(t *testing.T) {
	start := Date(2008, time.May, 29)
	a := mustSeries(t, idA, start, time.Minute, 1, math.NaN(), 3)
	b := mustSeries(t, idB, start, time.Minute, 10, 20, 30)
	pts, _, err := AlignPair(a, b)
	if err != nil {
		t.Fatalf("AlignPair: %v", err)
	}
	if len(pts) != 2 || pts[1] != (mathx.Point2{X: 3, Y: 30}) {
		t.Errorf("pts = %+v", pts)
	}
}

func TestAlignPairErrors(t *testing.T) {
	start := Date(2008, time.May, 29)
	a := mustSeries(t, idA, start, time.Minute, 1, 2)
	b := mustSeries(t, idB, start, 2*time.Minute, 1, 2)
	if _, _, err := AlignPair(a, b); err == nil {
		t.Error("step mismatch: want error")
	}
	c := mustSeries(t, idB, start.Add(30*time.Second), time.Minute, 1, 2)
	if _, _, err := AlignPair(a, c); err == nil {
		t.Error("out-of-phase starts: want error")
	}
	d := mustSeries(t, idB, start.Add(time.Hour), time.Minute, 1, 2)
	if _, _, err := AlignPair(a, d); err == nil {
		t.Error("no overlap: want error")
	}
}

// Property: aligned points never exceed the shorter overlap and every point
// is drawn from the respective series values.
func TestAlignPairProperty(t *testing.T) {
	start := Date(2008, time.June, 1)
	f := func(la, lb uint8, offset uint8) bool {
		a := &Series{ID: idA, Start: start, Step: time.Minute}
		b := &Series{ID: idB, Start: start.Add(time.Duration(offset%10) * time.Minute), Step: time.Minute}
		for i := 0; i < int(la)%50; i++ {
			a.Values = append(a.Values, float64(i))
		}
		for i := 0; i < int(lb)%50; i++ {
			b.Values = append(b.Values, float64(100+i))
		}
		pts, _, err := AlignPair(a, b)
		if err != nil {
			return true // disjoint or empty: fine
		}
		if len(pts) > a.Len() || len(pts) > b.Len() {
			return false
		}
		for _, p := range pts {
			if p.X < 0 || p.X >= 50 || p.Y < 100 || p.Y >= 150 {
				return false
			}
			// The alignment preserves the lag: y = x + 100 + lag.
			if p.Y-p.X != pts[0].Y-pts[0].X {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataset(t *testing.T) {
	d := NewDataset()
	start := Date(2008, time.May, 29)
	d.Add(mustSeries(t, idB, start, time.Minute, 1))
	d.Add(mustSeries(t, idA, start, time.Minute, 2))
	id3 := MeasurementID{Machine: "host1", Metric: "mem"}
	d.Add(mustSeries(t, id3, start, time.Minute, 3))
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	ids := d.IDs()
	if ids[0] != idA || ids[1] != id3 || ids[2] != idB {
		t.Errorf("IDs order = %v", ids)
	}
	if d.Get(idA).Values[0] != 2 {
		t.Error("Get returned wrong series")
	}
	if d.Get(MeasurementID{Machine: "nope"}) != nil {
		t.Error("Get of absent ID should be nil")
	}
	machines := d.Machines()
	if len(machines) != 2 || machines[0] != "host1" || machines[1] != "host2" {
		t.Errorf("Machines = %v", machines)
	}
	pairs := d.Pairs()
	if len(pairs) != 3 {
		t.Errorf("Pairs = %d, want l(l-1)/2 = 3", len(pairs))
	}
	sliced := d.Slice(start, start.Add(time.Minute))
	if sliced.Get(idA).Len() != 1 {
		t.Error("Slice should keep one sample")
	}
}
