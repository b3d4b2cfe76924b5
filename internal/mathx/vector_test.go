package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	got, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Dot with mismatched lengths: want error")
	}
}

func TestDotEmpty(t *testing.T) {
	got, err := Dot(nil, nil)
	if err != nil || got != 0 {
		t.Errorf("Dot(nil, nil) = %g, %v; want 0, nil", got, err)
	}
}

func TestSumMean(t *testing.T) {
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("Sum = %g, want 6.5", got)
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %g, want 3", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %g, %g; want -1, 7", lo, hi)
	}
	lo, hi = MinMax([]float64{5})
	if lo != 5 || hi != 5 {
		t.Errorf("MinMax single = %g, %g; want 5, 5", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("MinMax(nil) should be NaN, NaN")
	}
}

func TestScale(t *testing.T) {
	v := []float64{1, 2}
	Scale(v, 3)
	if v[0] != 3 || v[1] != 6 {
		t.Errorf("Scale = %v, want [3 6]", v)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{1, 3}
	Normalize(v)
	if !AlmostEqual(v[0], 0.25, 1e-12) || !AlmostEqual(v[1], 0.75, 1e-12) {
		t.Errorf("Normalize = %v", v)
	}
	// Degenerate: zero vector becomes uniform.
	z := []float64{0, 0, 0, 0}
	Normalize(z)
	for _, x := range z {
		if !AlmostEqual(x, 0.25, 1e-12) {
			t.Errorf("Normalize zero vector = %v, want uniform", z)
		}
	}
}

// Property: Normalize always yields a probability vector for finite input.
func TestNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			v[i] = math.Abs(x)
		}
		Normalize(v)
		var s float64
		for _, x := range v {
			if x < 0 || math.IsNaN(x) {
				return false
			}
			s += x
		}
		return AlmostEqual(s, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float64{math.Log(1), math.Log(3)})
	if !AlmostEqual(got, math.Log(4), 1e-12) {
		t.Errorf("LogSumExp = %g, want log 4", got)
	}
	// Large magnitudes must not overflow.
	got = LogSumExp([]float64{1000, 1000})
	if !AlmostEqual(got, 1000+math.Log(2), 1e-9) {
		t.Errorf("LogSumExp large = %g", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Error("LogSumExp(nil) should be -Inf")
	}
	if !math.IsInf(LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}), -1) {
		t.Error("LogSumExp(all -Inf) should be -Inf")
	}
}

func TestSoftmaxInto(t *testing.T) {
	dst := make([]float64, 3)
	if _, err := SoftmaxInto(dst, []float64{0, 0, 0}); err != nil {
		t.Fatalf("SoftmaxInto: %v", err)
	}
	for _, x := range dst {
		if !AlmostEqual(x, 1.0/3, 1e-12) {
			t.Errorf("uniform softmax = %v", dst)
		}
	}
	// Aliasing is allowed.
	v := []float64{math.Log(1), math.Log(9)}
	if _, err := SoftmaxInto(v, v); err != nil {
		t.Fatalf("SoftmaxInto alias: %v", err)
	}
	if !AlmostEqual(v[0], 0.1, 1e-12) || !AlmostEqual(v[1], 0.9, 1e-12) {
		t.Errorf("softmax alias = %v", v)
	}
	if _, err := SoftmaxInto(make([]float64, 2), make([]float64, 3)); err == nil {
		t.Error("SoftmaxInto mismatched lengths: want error")
	}
	// All -Inf logits yield uniform.
	u := make([]float64, 4)
	if _, err := SoftmaxInto(u, []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}); err != nil {
		t.Fatalf("SoftmaxInto -Inf: %v", err)
	}
	for _, x := range u {
		if !AlmostEqual(x, 0.25, 1e-12) {
			t.Errorf("softmax of -Inf = %v, want uniform", u)
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !AlmostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Linspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v", got)
	}
	if Linspace(0, 1, 0) != nil {
		t.Error("Linspace n=0 should be nil")
	}
}
