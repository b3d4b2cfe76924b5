package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitOLS(t *testing.T) {
	// y = 2*a + 3*b + 1 over a small design.
	design := mustMatrix(t, [][]float64{
		{1, 0, 1},
		{0, 1, 1},
		{1, 1, 1},
		{2, 1, 1},
		{1, 2, 1},
	})
	y := make([]float64, design.Rows())
	for i := 0; i < design.Rows(); i++ {
		y[i] = 2*design.At(i, 0) + 3*design.At(i, 1) + 1
	}
	beta, err := FitOLS(design, y)
	if err != nil {
		t.Fatalf("FitOLS: %v", err)
	}
	want := []float64{2, 3, 1}
	for i := range want {
		if !AlmostEqual(beta[i], want[i], 1e-9) {
			t.Errorf("beta = %v, want %v", beta, want)
			break
		}
	}
	if _, err := FitOLS(design, y[:2]); err == nil {
		t.Error("row mismatch: want error")
	}
}

func TestFitOLSRankDeficient(t *testing.T) {
	// Two identical columns: singular normal equations.
	design := mustMatrix(t, [][]float64{
		{1, 1}, {2, 2}, {3, 3},
	})
	if _, err := FitOLS(design, []float64{1, 2, 3}); err == nil {
		t.Error("rank-deficient design: want error")
	}
}

func TestFitARXRecoversSystem(t *testing.T) {
	// Simulate y_t = 0.5 y_{t-1} + 1.2 x_t - 0.3 x_{t-1} + 2.
	rng := rand.New(rand.NewSource(5))
	n := 800
	x := make([]float64, n)
	y := make([]float64, n)
	for t2 := 1; t2 < n; t2++ {
		x[t2] = 10 + 5*math.Sin(float64(t2)/20) + rng.NormFloat64()
		y[t2] = 0.5*y[t2-1] + 1.2*x[t2] - 0.3*x[t2-1] + 2
	}
	coef, err := FitARX(x, y)
	if err != nil {
		t.Fatalf("FitARX: %v", err)
	}
	want := []float64{0.5, 1.2, -0.3, 2}
	for i := range want {
		if math.Abs(coef[i]-want[i]) > 1e-6 {
			t.Errorf("coef = %v, want %v", coef, want)
			break
		}
	}
	got := PredictARX(coef, x[10], x[9], y[9])
	if math.Abs(got-y[10]) > 1e-6 {
		t.Errorf("PredictARX = %g, want %g", got, y[10])
	}
}

func TestFitARXErrors(t *testing.T) {
	if _, err := FitARX([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("too few samples: want error")
	}
	if _, err := FitARX([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: want error")
	}
}
