package tsdb

import (
	"math"
	"time"

	"mcorr/internal/timeseries"
)

// RowReader reads synchronized rows of one ordered measurement list out of
// a Store: column i of every row is ids[i]. It is bound once (Store.Rows)
// and holds each measurement's series itself — a store never removes or
// replaces a series, so the binding survives appends, retention trims and
// LoadDataset, and a measurement the store has not seen yet is looked up
// again on each call until it appears. A row is therefore len(ids) slice
// loads under one read lock: no hashing and no allocation.
//
// A RowReader may read while other goroutines append to the store; the
// reader itself is for one goroutine at a time.
type RowReader struct {
	s       *Store
	ids     []timeseries.MeasurementID
	series  []*entry // series[i] is ids[i]'s; nil until the store has one
	pending int      // how many of series are still nil
}

// Rows binds a row reader to ids.
func (s *Store) Rows(ids []timeseries.MeasurementID) *RowReader {
	return &RowReader{
		s:       s,
		ids:     append([]timeseries.MeasurementID(nil), ids...),
		series:  make([]*entry, len(ids)),
		pending: len(ids),
	}
}

// resolveLocked binds the series that have appeared since the last call.
// Callers hold the store's lock.
func (r *RowReader) resolveLocked() {
	if r.pending == 0 {
		return
	}
	for i, e := range r.series {
		if e != nil {
			continue
		}
		if e = r.s.series[r.ids[i]]; e != nil {
			r.series[i] = e
			r.pending--
		}
	}
}

// Ready returns the time of the newest row that is complete: the earliest
// of the measurements' most recent sample times (Store.LastTime). A series
// only accepts samples at or after its newest slot, so no row up to that
// time can still change except in the slot itself. ok is false while any
// measurement has no sample.
func (r *RowReader) Ready() (t time.Time, ok bool) {
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	r.resolveLocked()
	if r.pending > 0 {
		return time.Time{}, false
	}
	// Series that started together and are equally long — in a monitored
	// fleet, all of them — end together: only a change of (start, length)
	// costs time arithmetic.
	var start time.Time
	n := 0
	for _, e := range r.series {
		if len(e.values) == 0 {
			return time.Time{}, false
		}
		if len(e.values) == n && e.start == start {
			continue
		}
		start, n = e.start, len(e.values)
		last := start.Add(time.Duration(n-1) * r.s.step)
		if !ok || last.Before(t) {
			t, ok = last, true
		}
	}
	return t, ok
}

// ReadRow fills dst[i] with ids[i]'s sample in [t, t+step) — for a t on
// the store's grid, the sample at t; exactly the first value of
// QueryAll(t, t+step) — or NaN where the store has none: before the
// series' first sample, past its last, dropped by retention, or no series
// at all. A stored NaN (a filled gap or a NaN sample) reads as NaN too, so
// NaN is the row's one way of saying "gap". dst is the caller's and must
// hold len(ids) values.
func (r *RowReader) ReadRow(t time.Time, dst []float64) {
	dst = dst[:len(r.series)]
	step := r.s.step
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	r.resolveLocked()
	// k is the slot of the sample in [t, t+step) — the first one at or after
	// t — in a series starting at start, negative when that is before the
	// series; like Ready, it is recomputed only when start changes.
	var start time.Time
	k, known := -1, false
	for i, e := range r.series {
		dst[i] = math.NaN()
		if e == nil {
			continue
		}
		if !known || e.start != start {
			start, known = e.start, true
			d := t.Sub(start)
			if k = int(d / step); d > 0 && time.Duration(k)*step != d {
				k++
			}
			if d <= -step {
				k = -1
			}
		}
		if k >= 0 && k < len(e.values) {
			dst[i] = e.values[k]
		}
	}
}
