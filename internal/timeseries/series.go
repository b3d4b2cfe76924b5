package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mcorr/internal/mathx"
)

// ErrStepMismatch is returned when two series with different sampling steps
// are combined.
var ErrStepMismatch = errors.New("timeseries: sampling step mismatch")

// ErrNoOverlap is returned when two series share no common time range.
var ErrNoOverlap = errors.New("timeseries: series do not overlap")

// MeasurementID uniquely identifies a measurement: a metric observed on a
// machine, as in the paper ("CPU utilization on machine x.x.x.x is one
// measurement").
type MeasurementID struct {
	Machine string
	Metric  string
}

// String renders the ID as "metric@machine".
func (id MeasurementID) String() string { return id.Metric + "@" + id.Machine }

// Less orders IDs lexicographically by machine then metric, giving datasets
// a stable iteration order.
func (id MeasurementID) Less(other MeasurementID) bool {
	if id.Machine != other.Machine {
		return id.Machine < other.Machine
	}
	return id.Metric < other.Metric
}

// Series is a regularly sampled time series: Values[i] was observed at
// Start + i·Step.
type Series struct {
	ID     MeasurementID
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// NewSeries allocates an empty series with the given identity and sampling
// grid. It returns an error for a non-positive step.
func NewSeries(id MeasurementID, start time.Time, step time.Duration) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("series %s with step %v: must be positive", id, step)
	}
	return &Series{ID: id, Start: start, Step: step}, nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of sample i.
func (s *Series) TimeAt(i int) time.Time { return s.Start.Add(time.Duration(i) * s.Step) }

// End returns the timestamp just past the last sample (Start for an empty
// series).
func (s *Series) End() time.Time { return s.Start.Add(time.Duration(len(s.Values)) * s.Step) }

// IndexOf returns the sample index holding time t and whether t falls on or
// after Start and before End. Times inside a sampling interval map to the
// sample opening that interval.
func (s *Series) IndexOf(t time.Time) (int, bool) {
	if t.Before(s.Start) {
		return 0, false
	}
	i := int(t.Sub(s.Start) / s.Step)
	if i >= len(s.Values) {
		return 0, false
	}
	return i, true
}

// Append adds a sample at the next grid position.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Clone returns a deep copy of s.
func (s *Series) Clone() *Series {
	c := *s
	c.Values = make([]float64, len(s.Values))
	copy(c.Values, s.Values)
	return &c
}

// Slice returns a view of the samples in [from, to). The returned series
// shares storage with s. An empty window yields an empty series anchored at
// the clipped start.
func (s *Series) Slice(from, to time.Time) *Series {
	if from.Before(s.Start) {
		from = s.Start
	}
	if to.After(s.End()) {
		to = s.End()
	}
	out := &Series{ID: s.ID, Step: s.Step, Start: from}
	if !to.After(from) {
		out.Start = from
		return out
	}
	lo := int(from.Sub(s.Start) / s.Step)
	if s.TimeAt(lo).Before(from) {
		lo++ // from fell inside an interval; start at the next grid point
	}
	hi := int(to.Sub(s.Start) / s.Step)
	if s.TimeAt(hi).Before(to) {
		hi++
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	if lo >= hi {
		out.Start = s.TimeAt(lo)
		return out
	}
	out.Start = s.TimeAt(lo)
	out.Values = s.Values[lo:hi]
	return out
}

// Stats returns the mean and sample standard deviation of the series,
// ignoring NaNs. Both are NaN when no finite samples exist.
func (s *Series) Stats() (mean, std float64) {
	var o mathx.Online
	for _, v := range s.Values {
		if !math.IsNaN(v) {
			o.Add(v)
		}
	}
	std = o.StdDev()
	if o.N() == 1 {
		std = 0
	}
	return o.Mean(), std
}

// AlignPair maps two series onto their common time range and returns one
// 2-D point per shared grid position, along with the timestamp of the first
// point. Samples where either side is NaN are dropped (their grid slots are
// skipped, matching how monitoring gaps are treated). The two series must
// share the same step and their starts must be in phase on that step.
func AlignPair(a, b *Series) (pts []mathx.Point2, start time.Time, err error) {
	if a.Step != b.Step {
		return nil, time.Time{}, fmt.Errorf("align %s (%v) with %s (%v): %w", a.ID, a.Step, b.ID, b.Step, ErrStepMismatch)
	}
	if a.Start.Sub(b.Start)%a.Step != 0 {
		return nil, time.Time{}, fmt.Errorf("align %s with %s: starts out of phase: %w", a.ID, b.ID, ErrStepMismatch)
	}
	from := a.Start
	if b.Start.After(from) {
		from = b.Start
	}
	to := a.End()
	if b.End().Before(to) {
		to = b.End()
	}
	if !to.After(from) {
		return nil, time.Time{}, fmt.Errorf("align %s with %s: %w", a.ID, b.ID, ErrNoOverlap)
	}
	ai := int(from.Sub(a.Start) / a.Step)
	bi := int(from.Sub(b.Start) / b.Step)
	n := int(to.Sub(from) / a.Step)
	pts = make([]mathx.Point2, 0, n)
	for i := 0; i < n; i++ {
		x, y := a.Values[ai+i], b.Values[bi+i]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		pts = append(pts, mathx.Point2{X: x, Y: y})
	}
	return pts, from, nil
}

// Dataset is a collection of measurements sharing a sampling grid.
type Dataset struct {
	series map[MeasurementID]*Series
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{series: make(map[MeasurementID]*Series)}
}

// Add inserts or replaces a series.
func (d *Dataset) Add(s *Series) { d.series[s.ID] = s }

// Get returns the series for id, or nil when absent.
func (d *Dataset) Get(id MeasurementID) *Series { return d.series[id] }

// Len returns the number of measurements.
func (d *Dataset) Len() int { return len(d.series) }

// IDs returns all measurement IDs in stable (machine, metric) order.
func (d *Dataset) IDs() []MeasurementID {
	ids := make([]MeasurementID, 0, len(d.series))
	for id := range d.series {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// Machines returns the distinct machine names in sorted order.
func (d *Dataset) Machines() []string {
	seen := make(map[string]bool)
	for id := range d.series {
		seen[id.Machine] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Slice returns a dataset of views restricted to [from, to).
func (d *Dataset) Slice(from, to time.Time) *Dataset {
	out := NewDataset()
	for _, s := range d.series {
		out.Add(s.Slice(from, to))
	}
	return out
}

// EachRow replays the dataset as dense rows over [from, to) at its sampling
// step: fn gets each row time and a slice whose i-th value is ids[i]'s, NaN
// where that series has no sample or the dataset lacks the ID. The slice is
// reused from row to row; fn must copy what it keeps. The step is the first
// series' (IDs order), so the series must share one grid. An empty dataset
// is an error.
func (d *Dataset) EachRow(ids []MeasurementID, from, to time.Time, fn func(t time.Time, row []float64)) error {
	all := d.IDs()
	if len(all) == 0 {
		return errors.New("timeseries: rows of an empty dataset")
	}
	step := d.Get(all[0]).Step
	series := make([]*Series, len(ids))
	for i, id := range ids {
		series[i] = d.Get(id)
	}
	row := make([]float64, len(ids))
	for t := from; t.Before(to); t = t.Add(step) {
		for i, s := range series {
			row[i] = math.NaN()
			if s == nil {
				continue
			}
			if k, ok := s.IndexOf(t); ok {
				row[i] = s.Values[k]
			}
		}
		fn(t, row)
	}
	return nil
}

// Pairs returns every unordered pair of measurement IDs, in stable order —
// the l(l−1)/2 links of the paper's correlation graph.
func (d *Dataset) Pairs() [][2]MeasurementID {
	ids := d.IDs()
	out := make([][2]MeasurementID, 0, len(ids)*(len(ids)-1)/2)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			out = append(out, [2]MeasurementID{ids[i], ids[j]})
		}
	}
	return out
}
