package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVarianceStdDev(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 divisor: 32/7.
	if got := Variance(v); !AlmostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %g", got)
	}
	if got := StdDev(v); !AlmostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of 1 sample should be NaN")
	}
}

func TestCovariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	c, err := Covariance(x, y)
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	if !AlmostEqual(c, 2*Variance(x), 1e-12) {
		t.Errorf("Covariance = %g", c)
	}
	if _, err := Covariance(x, y[:2]); err == nil {
		t.Error("mismatched lengths: want error")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !AlmostEqual(r, 1, 1e-12) {
		t.Errorf("perfect linear Pearson = %g, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if !AlmostEqual(r, -1, 1e-12) {
		t.Errorf("anti-correlated Pearson = %g, want -1", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	r, _ = Pearson(x, flat)
	if r != 0 {
		t.Errorf("constant series Pearson = %g, want 0", r)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// A nonlinear but monotone relationship: Spearman 1, Pearson < 1.
	x := []float64{1, 2, 3, 4, 5, 6}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v)
	}
	rs, err := Spearman(x, y)
	if err != nil {
		t.Fatalf("Spearman: %v", err)
	}
	if !AlmostEqual(rs, 1, 1e-12) {
		t.Errorf("Spearman = %g, want 1", rs)
	}
	rp, _ := Pearson(x, y)
	if rp >= 1 {
		t.Errorf("Pearson = %g, want < 1 for convex relation", rp)
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks = %v, want %v", got, want)
			break
		}
	}
}

// Property: ranks are a permutation-average — they always sum to n(n+1)/2.
func TestRanksSumProperty(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = float64(i)
			}
			v[i] = x
		}
		r := Ranks(v)
		n := float64(len(v))
		return AlmostEqual(Sum(r), n*(n+1)/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(v, c.q); !AlmostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if !math.IsNaN(Quantile(v, -0.1)) || !math.IsNaN(Quantile(v, 1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("Quantile single = %g", got)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	v := make([]float64, 1000)
	var o Online
	for i := range v {
		v[i] = rng.NormFloat64()*3 + 5
		o.Add(v[i])
	}
	if o.N() != 1000 {
		t.Errorf("N = %d", o.N())
	}
	if !AlmostEqual(o.Mean(), Mean(v), 1e-9) {
		t.Errorf("online mean %g vs batch %g", o.Mean(), Mean(v))
	}
	if !AlmostEqual(o.Variance(), Variance(v), 1e-9) {
		t.Errorf("online var %g vs batch %g", o.Variance(), Variance(v))
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if !math.IsNaN(o.Mean()) || !math.IsNaN(o.Variance()) {
		t.Error("empty Online should report NaN moments")
	}
}

func TestOnlineMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var all, a, b Online
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 10
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if !AlmostEqual(a.Mean(), all.Mean(), 1e-9) || !AlmostEqual(a.Variance(), all.Variance(), 1e-9) {
		t.Errorf("merge mean/var %g/%g vs %g/%g", a.Mean(), a.Variance(), all.Mean(), all.Variance())
	}
	// Merging into empty adopts the other side.
	var empty Online
	empty.Merge(a)
	if empty.N() != a.N() || !AlmostEqual(empty.Mean(), a.Mean(), 0) {
		t.Error("merge into empty should copy")
	}
	// Merging an empty is a no-op.
	n := a.N()
	a.Merge(Online{})
	if a.N() != n {
		t.Error("merge of empty should be a no-op")
	}
}

// Property: Pearson is always within [-1, 1] for finite data.
func TestPearsonRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		m := 2 + int(n)%100
		x := make([]float64, m)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64() + 0.3*x[i]
		}
		r, err := Pearson(x, y)
		return err == nil && r >= -1 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOnlineStateRestore(t *testing.T) {
	var o Online
	for _, v := range []float64{1, 2, 3, 4} {
		o.Add(v)
	}
	n, mean, m2 := o.State()
	var r Online
	r.Restore(n, mean, m2)
	if r.N() != o.N() || r.Mean() != o.Mean() || r.Variance() != o.Variance() {
		t.Error("Restore should reproduce the accumulator exactly")
	}
	// The restored accumulator keeps accumulating correctly.
	o.Add(10)
	r.Add(10)
	if r.Mean() != o.Mean() || r.Variance() != o.Variance() {
		t.Error("restored accumulator diverged after Add")
	}
}
