package discover

import (
	"math"
	"testing"
)

// directPearson is the reference O(n) lag-0 computation.
func directPearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
}

func lcg(seed uint64) func() float64 {
	s := seed
	return func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / float64(1<<53)
	}
}

func TestSketchMatchesDirectPearsonNoDecay(t *testing.T) {
	rnd := lcg(1)
	sk := NewSketch(0, 1)
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := rnd()
		y := 0.8*x + 0.2*rnd()
		xs = append(xs, x)
		ys = append(ys, y)
		sk.Update(x, y)
	}
	want := directPearson(xs, ys)
	got, lag := sk.Corr()
	if lag != 0 {
		t.Fatalf("lag = %d, want 0", lag)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("r = %g, want %g", got, want)
	}
	if got < 0.9 {
		t.Fatalf("r = %g, want strongly positive", got)
	}
}

func TestSketchBestLagDetection(t *testing.T) {
	// y trails x by 2 steps: x's past leads y, so the best lag is −2.
	rnd := lcg(2)
	sk := NewSketch(4, 1)
	var hist []float64
	for i := 0; i < 400; i++ {
		x := rnd()
		hist = append(hist, x)
		y := rnd() * 0.05
		if i >= 2 {
			y += hist[i-2]
		}
		sk.Update(x, y)
	}
	r, lag := sk.Corr()
	if lag != -2 {
		t.Fatalf("best lag = %d (r=%g), want -2", lag, r)
	}
	if math.Abs(r) < 0.9 {
		t.Fatalf("best-lag r = %g, want |r| > 0.9", r)
	}
}

func TestSketchGapsAndDegenerates(t *testing.T) {
	sk := NewSketch(2, 0.97)
	for i := 0; i < 10; i++ {
		sk.Update(1, 1) // zero variance
	}
	if r, lag := sk.Corr(); r != 0 || lag != 0 {
		t.Fatalf("zero-variance Corr = (%g, %d), want (0, 0)", r, lag)
	}
	sk.Update(math.NaN(), 5)
	sk.Update(3, math.Inf(1))
	// Enough post-gap samples that the decayed pre-gap regime is fully
	// forgotten (0.97^300 ≈ 1e-4).
	rnd := lcg(3)
	for i := 0; i < 300; i++ {
		x := rnd()
		sk.Update(x, -x)
	}
	r, _ := sk.Corr()
	if !finite(r) || r > -0.9 {
		t.Fatalf("post-gap r = %g, want near -1", r)
	}
	if w := sk.EffSamples(); !(w > 0) || !finite(w) {
		t.Fatalf("EffSamples = %g", w)
	}
}

func TestSketchEffSamplesConverges(t *testing.T) {
	sk := NewSketch(0, 0.97)
	rnd := lcg(4)
	for i := 0; i < 500; i++ {
		sk.Update(rnd(), rnd())
	}
	want := 1 / (1 - 0.97)
	if got := sk.EffSamples(); math.Abs(got-want) > 0.5 {
		t.Fatalf("EffSamples = %g, want ≈ %g", got, want)
	}
}

func TestSketchGobRoundTrip(t *testing.T) {
	rnd := lcg(5)
	a := NewSketch(3, 0.95)
	for i := 0; i < 80; i++ {
		x := rnd()
		a.Update(x, 0.5*x+0.5*rnd())
	}
	blob, err := a.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var b Sketch
	if err := b.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	r1, l1 := a.Corr()
	r2, l2 := b.Corr()
	if math.Float64bits(r1) != math.Float64bits(r2) || l1 != l2 {
		t.Fatalf("round-trip Corr (%g,%d) != (%g,%d)", r2, l2, r1, l1)
	}
	if b.EffSamples() != a.EffSamples() || b.Samples() != a.Samples() {
		t.Fatal("round-trip samples mismatch")
	}
	// Continued identically, the restored sketch tracks the original bit
	// for bit — the property crash recovery depends on.
	for i := 0; i < 40; i++ {
		x, y := rnd(), rnd()
		a.Update(x, y)
		b.Update(x, y)
	}
	r1, l1 = a.Corr()
	r2, l2 = b.Corr()
	if math.Float64bits(r1) != math.Float64bits(r2) || l1 != l2 {
		t.Fatalf("post-restore Corr diverged: (%g,%d) != (%g,%d)", r2, l2, r1, l1)
	}
}

func TestSketchGobDecodeRejectsCorrupt(t *testing.T) {
	var s Sketch
	if err := s.GobDecode([]byte("garbage")); err == nil {
		t.Fatal("want error decoding garbage")
	}
}
