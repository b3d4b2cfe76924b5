package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mcorr/internal/mathx"
)

func TestKernelKindString(t *testing.T) {
	if KernelHarmonic.String() != "harmonic" || KernelProduct.String() != "product" || KernelUniform.String() != "uniform" {
		t.Error("kernel names wrong")
	}
	if KernelKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestNewKernelValidation(t *testing.T) {
	if _, err := NewKernel(KernelKind(42), 2, 3, 3); err == nil {
		t.Error("unknown kind: want error")
	}
	if _, err := NewKernel(KernelHarmonic, 1, 3, 3); err == nil {
		t.Error("w <= 1: want error")
	}
	if _, err := NewKernel(KernelHarmonic, 2, 0, 3); err == nil {
		t.Error("empty grid: want error")
	}
	// Uniform kernel ignores w entirely.
	if _, err := NewKernel(KernelUniform, 0, 2, 2); err != nil {
		t.Errorf("uniform kernel with w=0: %v", err)
	}
}

func TestHarmonicKernelWeights(t *testing.T) {
	k, err := NewKernel(KernelHarmonic, 2, 3, 3)
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	cases := []struct {
		dx, dy int
		want   float64
	}{
		{0, 0, 1},
		{1, 0, 2.0 / 3},
		{0, 1, 2.0 / 3},
		{1, 1, 0.5},
		{2, 0, 0.4},
		{2, 1, 1.0 / 3},
		{2, 2, 0.25},
		{-1, -1, 0.5}, // distances are absolute
	}
	for _, c := range cases {
		if got := k.Weight(c.dx, c.dy); !mathx.AlmostEqual(got, c.want, 1e-12) {
			t.Errorf("Weight(%d,%d) = %g, want %g", c.dx, c.dy, got, c.want)
		}
		if got := k.LogWeight(c.dx, c.dy); !mathx.AlmostEqual(got, math.Log(c.want), 1e-12) {
			t.Errorf("LogWeight(%d,%d) = %g", c.dx, c.dy, got)
		}
	}
	if k.W() != 2 || k.Kind() != KernelHarmonic {
		t.Error("accessors wrong")
	}
	if k.StepPenalty() != math.Log(2) {
		t.Errorf("StepPenalty = %g", k.StepPenalty())
	}
}

func TestProductKernel(t *testing.T) {
	k, err := NewKernel(KernelProduct, 2, 4, 4)
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	if got := k.Weight(1, 2); !mathx.AlmostEqual(got, 0.125, 1e-12) {
		t.Errorf("product Weight(1,2) = %g, want 1/8", got)
	}
	if got := k.LogWeight(3, 0); !mathx.AlmostEqual(got, -3*math.Log(2), 1e-12) {
		t.Errorf("product LogWeight(3,0) = %g", got)
	}
}

func TestUniformKernel(t *testing.T) {
	k, err := NewKernel(KernelUniform, 2, 3, 3)
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	if k.Weight(0, 0) != 1 || k.Weight(2, 2) != 1 {
		t.Error("uniform kernel should always weight 1")
	}
	if k.LogWeight(2, 1) != 0 || k.StepPenalty() != 0 {
		t.Error("uniform log weights should be 0")
	}
}

func TestKernelResizeGrowsTables(t *testing.T) {
	k, err := NewKernel(KernelHarmonic, 2, 2, 2)
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	far := k.nx // one past what the table NewKernel handed out covers
	k = k.covering(far+1, 6)
	if got, want := k.Weight(far, 0), 2/(math.Pow(2, float64(far))+1); !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("after covering(%d, 6) Weight(%d,0) = %g, want %g", far+1, far, got, want)
	}
}

// publishedKernel is the process's shared kernel for (kind, w), nil if none.
func publishedKernel(kind KernelKind, w float64) *Kernel {
	published.Lock()
	defer published.Unlock()
	return published.kernels[kernelKey{kind, math.Float64bits(w)}]
}

// checkTable compares every entry of k's mirrored table, both halves, with
// the formula it caches, and a table the process could publish with the
// byte bound the Kernel doc states.
func checkTable(t *testing.T, k *Kernel) {
	t.Helper()
	stride := 2*k.ny - 1
	if len(k.sym) != k.nx*stride {
		t.Fatalf("%v %dx%d table holds %d entries, want %d", k.kind, k.nx, k.ny, len(k.sym), k.nx*stride)
	}
	if k.nx <= maxSharedAxis && k.ny <= maxSharedAxis && 8*len(k.sym) > 65024 {
		t.Fatalf("%v %dx%d table is %d bytes, over the 65 024 a published one may take", k.kind, k.nx, k.ny, 8*len(k.sym))
	}
	for dx := 0; dx < k.nx; dx++ {
		for d := 1 - k.ny; d < k.ny; d++ {
			want := math.Float64bits(k.logWeightSlow(dx, absInt(d)))
			if got := math.Float64bits(k.sym[dx*stride+k.ny-1+d]); got != want {
				t.Fatalf("%v %dx%d table: entry (%d,%d) = %x, formula %x", k.kind, k.nx, k.ny, dx, d, got, want)
			}
			if got := math.Float64bits(k.LogWeight(-dx, d)); got != want {
				t.Fatalf("%v %dx%d table: LogWeight(%d,%d) = %x, formula %x", k.kind, k.nx, k.ny, -dx, d, got, want)
			}
		}
	}
}

// TestHarmonicLogWeightsStayFinite: once w^d overflows, the harmonic weight
// is taken in log space, so a large decay over a wide grid still gives a
// finite table that keeps falling with distance; below the overflow the
// formula is the one Figure 5 was recovered with, bit for bit.
func TestHarmonicLogWeightsStayFinite(t *testing.T) {
	const w = 1e10 // w^31 overflows
	k := buildKernel(KernelHarmonic, w, 40, 3)
	checkTable(t, k)
	for dx := 0; dx < k.nx; dx++ {
		for dy := 0; dy < k.ny; dy++ {
			got := k.LogWeight(dx, dy)
			if math.IsInf(got, 0) || math.IsNaN(got) {
				t.Fatalf("LogWeight(%d,%d) = %v", dx, dy, got)
			}
			if dx > 0 && !(got < k.LogWeight(dx-1, dy)) {
				t.Fatalf("LogWeight(%d,%d) = %v does not fall below LogWeight(%d,%d) = %v", dx, dy, got, dx-1, dy, k.LogWeight(dx-1, dy))
			}
			if sum := math.Pow(w, float64(dx)) + math.Pow(w, float64(dy)); !math.IsInf(sum, 1) && got != math.Log(2/sum) {
				t.Fatalf("LogWeight(%d,%d) = %v, formula %v", dx, dy, got, math.Log(2/sum))
			}
		}
	}
	if got, want := k.LogWeight(35, 0), math.Ln2-35*math.Log(w); math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Errorf("LogWeight(35,0) = %v, want ≈ %v", got, want)
	}
}

// TestSharedKernelGrowsByPublishing: one table serves every grid that fits
// it; a grid that does not gets a larger copy published in its place, the
// old one stays as it was for whoever still holds it, and both read the
// formula's bits. A grid beyond maxSharedAxis gets a table of its own and
// leaves the published one alone.
func TestSharedKernelGrowsByPublishing(t *testing.T) {
	const w = 2.5 // no other test's decay: the published tables are this test's
	for _, kind := range []KernelKind{KernelHarmonic, KernelProduct, KernelUniform} {
		small, err := NewKernel(kind, w, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, small)
		if again, _ := NewKernel(kind, w, 5, 2); again != small || publishedKernel(kind, w) != small {
			t.Errorf("%v: a second grid that fits got a table of its own", kind)
		}
		big := small.covering(small.nx+1, 3)
		if big == small || big.nx <= small.nx || big.ny < small.ny || publishedKernel(kind, w) != big {
			t.Fatalf("%v: covering(%d, 3) of a %dx%d table gave %dx%d, published %v", kind, small.nx+1, small.nx, small.ny, big.nx, big.ny, publishedKernel(kind, w) == big)
		}
		checkTable(t, big)
		checkTable(t, small)
		for dx := 0; dx < small.nx; dx++ {
			for dy := 0; dy < small.ny; dy++ {
				if math.Float64bits(small.LogWeight(dx, dy)) != math.Float64bits(big.LogWeight(dx, dy)) {
					t.Fatalf("%v: LogWeight(%d,%d) changed with the table", kind, dx, dy)
				}
			}
		}
		own := big.covering(maxSharedAxis+1, 2)
		if own.nx != maxSharedAxis+1 || own.ny != 2 || publishedKernel(kind, w) != big {
			t.Errorf("%v: a %dx2 grid got a %dx%d table, published one replaced: %v", kind, maxSharedAxis+1, own.nx, own.ny, publishedKernel(kind, w) != big)
		}
		checkTable(t, own)
	}
}

// TestSharedKernelsAreBounded: decays beyond the first maxSharedKernels get
// working kernels that are not published, so a stream of checkpoints each
// naming its own w cannot grow the process.
func TestSharedKernelsAreBounded(t *testing.T) {
	decay := func(i int) float64 { return 3 + float64(i)/64 }
	t.Cleanup(func() {
		published.Lock()
		defer published.Unlock()
		for i := 0; i < 2*maxSharedKernels; i++ {
			delete(published.kernels, kernelKey{KernelHarmonic, math.Float64bits(decay(i))})
		}
	})
	for i := 0; i < 2*maxSharedKernels; i++ {
		k, err := NewKernel(KernelHarmonic, decay(i), 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, k)
	}
	published.Lock()
	n := len(published.kernels)
	published.Unlock()
	if n > maxSharedKernels {
		t.Errorf("%d kernels published, at most %d allowed", n, maxSharedKernels)
	}
}

// TestSharedKernelConcurrentUse trains, loads and grows models of different
// dims at once: they share one published table and replace it as they go.
// Under -race this is the proof that a table is never written after it is
// published.
func TestSharedKernelConcurrentUse(t *testing.T) {
	var saved bytes.Buffer
	seed, err := Train(corrStream(rand.New(rand.NewSource(5)), 300), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				m, err := Train(corrStream(rand.New(rand.NewSource(int64(w))), 300), Config{Adaptive: true, Lambda: 40, Grid: GridConfig{MaxIntervals: 3 + 4*w}})
				if w%2 == 1 {
					m, err = LoadModel(bytes.NewReader(saved.Bytes()))
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Walk off the grid, an interval at a time: every step grows it.
				g := m.Grid()
				for k := 1; k <= 2*sharedAxisStep; k++ {
					m.Step(mathx.Point2{X: g.X.Hi() + g.X.AvgWidth/2, Y: g.Y.Hi() + g.Y.AvgWidth/2})
				}
				if nx, _ := m.Grid().Dims(); nx <= sharedAxisStep {
					t.Errorf("model %d grew to %d intervals, want beyond one table step", w, nx)
				}
			}
		}(w)
	}
	wg.Wait()
}
