package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use, but counters should normally be obtained from a Registry so they
// render on the ops surface.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as atomic float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d (negative d decreases).
func (g *Gauge) Add(d float64) { addFloatBits(&g.bits, d) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloatBits atomically adds d to a float64 stored as bits.
func addFloatBits(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets and tracks count and
// sum, Prometheus-style. Observe is allocation-free: a short linear scan
// over the upper bounds plus two atomic adds. Quantiles are estimated from
// the bucket counts by linear interpolation — a windowless summary good
// enough for dashboards and /statusz.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// newHistogram builds a histogram over the given upper bounds. Bounds must
// be strictly increasing; an empty set gets a single +Inf bucket.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sum, v)
}

// bucket returns the index of the bucket v counts in.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Tally gathers observations for one Histogram without touching it, so a
// caller that observes many values at once — every pair of a scored row —
// pays one atomic add per non-empty bucket, one for the count and one for
// the sum when it publishes them, not three per value. A Tally is not safe
// for concurrent use.
type Tally struct {
	h      *Histogram
	counts []uint64
	count  uint64
	sum    float64
}

// NewTally returns an empty Tally that publishes into h.
func (h *Histogram) NewTally() *Tally {
	return &Tally{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe records one value in the tally.
func (t *Tally) Observe(v float64) {
	t.counts[t.h.bucket(v)]++
	t.count++
	t.sum += v
}

// Publish adds the tallied observations to the histogram and empties the
// tally. Bucket counts and the count are exactly what Observing each value
// on the histogram gives; the sum is added as one partial sum, so it may
// differ from theirs in its last bits.
func (t *Tally) Publish() {
	if t.count == 0 {
		return
	}
	for i, c := range t.counts {
		if c > 0 {
			t.h.counts[i].Add(c)
			t.counts[i] = 0
		}
	}
	t.h.count.Add(t.count)
	addFloatBits(&t.h.sum, t.sum)
	t.count, t.sum = 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns the per-bucket counts (non-cumulative, including the
// +Inf overflow bucket), total count and sum, read without a lock; under
// concurrent writes the values are each individually consistent.
func (h *Histogram) snapshot() (buckets []uint64, count uint64, sum float64) {
	buckets = make([]uint64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
	}
	return buckets, h.count.Load(), h.Sum()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation inside the bucket the quantile falls into. Values
// in the +Inf overflow bucket clamp to the highest finite bound. NaN is
// returned for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	buckets, count, _ := h.snapshot()
	if count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(count)
	var cum float64
	for i, c := range buckets {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i >= len(h.bounds) {
				// Overflow bucket: no finite upper edge to interpolate to.
				if len(h.bounds) == 0 {
					return math.NaN()
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := histBucketLow(h.bounds, i)
			frac := (target - cum) / float64(c)
			return lo + (h.bounds[i]-lo)*frac
		}
		cum = next
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// histBucketLow returns the lower edge of bucket i.
func histBucketLow(bounds []float64, i int) float64 {
	if i > 0 {
		return bounds[i-1]
	}
	if bounds[0] > 0 {
		return 0
	}
	// All-negative or zero first bound: extend symmetrically.
	if len(bounds) > 1 {
		return bounds[0] - (bounds[1] - bounds[0])
	}
	return bounds[0]
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// TimeBuckets is the default latency bucket set: 1µs to ~4.2s in ×4 steps,
// wide enough for both sub-millisecond scoring steps and slow I/O.
func TimeBuckets() []float64 { return ExpBuckets(1e-6, 4, 12) }

// FitnessBuckets covers the paper's fitness scores Q ∈ [0, 1] in tenths.
func FitnessBuckets() []float64 { return LinearBuckets(0.1, 0.1, 10) }
