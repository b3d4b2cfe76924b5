package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two operands have incompatible sizes.
var ErrDimensionMismatch = errors.New("mathx: dimension mismatch")

// Dot returns the inner product of a and b.
// It returns an error if the slices differ in length.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dot of %d and %d elements: %w", len(a), len(b), ErrDimensionMismatch)
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// Sum returns the sum of the elements of v. An empty slice sums to zero.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or NaN for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return Sum(v) / float64(len(v))
}

// MinMax returns the smallest and largest elements of v.
// It returns NaNs for an empty slice.
func MinMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Scale multiplies every element of v by k in place and returns v.
func Scale(v []float64, k float64) []float64 {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Normalize scales v in place so its elements sum to one and returns the
// original sum. If the sum is zero or not finite, v is set to the uniform
// distribution instead, so the result is always a valid probability vector.
func Normalize(v []float64) float64 {
	s := Sum(v)
	if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return s
	}
	Scale(v, 1/s)
	return s
}

// LogSumExp returns log(sum_i exp(v_i)) computed stably.
// It returns -Inf for an empty slice.
func LogSumExp(v []float64) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	mx := v[0]
	for _, x := range v[1:] {
		if x > mx {
			mx = x
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var s float64
	for _, x := range v {
		s += math.Exp(x - mx)
	}
	return mx + math.Log(s)
}

// SoftmaxInto writes the softmax of logits into dst and returns dst.
// dst and logits may alias. If the lengths differ an error is returned.
func SoftmaxInto(dst, logits []float64) ([]float64, error) {
	if len(dst) != len(logits) {
		return nil, fmt.Errorf("softmax into %d from %d elements: %w", len(dst), len(logits), ErrDimensionMismatch)
	}
	lse := LogSumExp(logits)
	if math.IsInf(lse, -1) {
		u := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return dst, nil
	}
	for i, x := range logits {
		dst[i] = math.Exp(x - lse)
	}
	return dst, nil
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// For n == 1 it returns just lo. For n <= 0 it returns nil.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = lo
		return out
	}
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// AlmostEqual reports whether a and b are within tol of each other,
// treating two NaNs as equal (useful in tests).
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}
