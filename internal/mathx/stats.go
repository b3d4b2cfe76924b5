package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Variance returns the unbiased sample variance of v (divisor n-1).
// It returns NaN for fewer than two samples.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return math.NaN()
	}
	var o Online
	for _, x := range v {
		o.Add(x)
	}
	return o.Variance()
}

// StdDev returns the unbiased sample standard deviation of v.
func StdDev(v []float64) float64 { return math.Sqrt(Variance(v)) }

// Covariance returns the unbiased sample covariance of x and y.
// It returns an error if the slices differ in length and NaN for fewer than
// two samples.
func Covariance(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("covariance of %d and %d samples: %w", len(x), len(y), ErrDimensionMismatch)
	}
	n := len(x)
	if n < 2 {
		return math.NaN(), nil
	}
	mx, my := Mean(x), Mean(y)
	var s float64
	for i := range x {
		s += (x[i] - mx) * (y[i] - my)
	}
	return s / float64(n-1), nil
}

// Pearson returns the Pearson linear correlation coefficient of x and y.
// It returns 0 when either series is constant (no linear relation defined)
// and an error if the slices differ in length.
func Pearson(x, y []float64) (float64, error) {
	cov, err := Covariance(x, y)
	if err != nil {
		return 0, err
	}
	sx, sy := StdDev(x), StdDev(y)
	if sx == 0 || sy == 0 || math.IsNaN(cov) {
		return 0, nil
	}
	r := cov / (sx * sy)
	return Clamp(r, -1, 1), nil
}

// Spearman returns the Spearman rank correlation coefficient of x and y,
// i.e. the Pearson correlation of their ranks with ties sharing the average
// rank. It returns an error if the slices differ in length.
func Spearman(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("spearman of %d and %d samples: %w", len(x), len(y), ErrDimensionMismatch)
	}
	return Pearson(Ranks(x), Ranks(y))
}

// Ranks returns the fractional ranks of v (1-based); tied values receive the
// average of the ranks they span.
func Ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of v using linear
// interpolation between order statistics. v need not be sorted; it is not
// modified. It returns NaN for an empty slice or q outside [0, 1].
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Online accumulates count, mean and variance incrementally using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of samples seen.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or NaN before any samples.
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Variance returns the running unbiased sample variance, or NaN for fewer
// than two samples.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return math.NaN()
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the running sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// State exposes the accumulator internals (count, mean, sum of squared
// deviations) for serialization.
func (o Online) State() (n int, mean, m2 float64) { return o.n, o.mean, o.m2 }

// Restore sets the accumulator to a previously captured State.
func (o *Online) Restore(n int, mean, m2 float64) {
	o.n, o.mean, o.m2 = n, mean, m2
}
