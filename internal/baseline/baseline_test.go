package baseline

import (
	"math"
	"math/rand"
	"testing"

	"mcorr/internal/core"
	"mcorr/internal/mathx"
)

// linearPair samples a noisy linear pair driven by a slow random walk.
func linearPair(rng *rand.Rand, n int) []mathx.Point2 {
	pts := make([]mathx.Point2, n)
	x := 50.0
	for i := range pts {
		x += rng.NormFloat64() * 2
		x = mathx.Clamp(x, 5, 100)
		pts[i] = mathx.Point2{X: x, Y: 3*x + 10 + rng.NormFloat64()}
	}
	return pts
}

// arbitraryPair samples a two-regime pair (no single linear relation).
func arbitraryPair(rng *rand.Rand, n int) []mathx.Point2 {
	pts := make([]mathx.Point2, n)
	x := 50.0
	high := false
	for i := range pts {
		if rng.Float64() < 0.02 {
			high = !high
		}
		x += rng.NormFloat64() * 2
		x = mathx.Clamp(x, 5, 100)
		y := 0.5 * x
		if high {
			y = 4 * x
		}
		pts[i] = mathx.Point2{X: x, Y: y + rng.NormFloat64()}
	}
	return pts
}

func TestLinearInvariantTrainValidation(t *testing.T) {
	if _, err := TrainLinearInvariant(nil); err == nil {
		t.Error("empty history: want error")
	}
	if _, err := TrainLinearInvariant(make([]mathx.Point2, 5)); err == nil {
		t.Error("too few points: want error")
	}
}

func TestLinearInvariantDetectsResidualBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	li, err := TrainLinearInvariant(linearPair(rng, 2000))
	if err != nil {
		t.Fatalf("TrainLinearInvariant: %v", err)
	}
	if !li.Valid() || li.R2() < 0.9 {
		t.Fatalf("linear pair should yield a strong invariant (R2 = %.3f)", li.R2())
	}
	if li.Name() != "linear-invariant" {
		t.Errorf("Name = %q", li.Name())
	}
	// Warm up, then a normal point and a broken point.
	li.Step(mathx.Point2{X: 50, Y: 160})
	normal, ok := li.Step(mathx.Point2{X: 51, Y: 163})
	if !ok || normal < 0.7 {
		t.Errorf("normal score = %.3f, %v", normal, ok)
	}
	li.Reset()
	li.Step(mathx.Point2{X: 50, Y: 160})
	broken, ok := li.Step(mathx.Point2{X: 51, Y: 300}) // way off the line
	if !ok || broken > 0.1 {
		t.Errorf("broken score = %.3f, %v", broken, ok)
	}
}

func TestLinearInvariantFirstStepUnscored(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	li, err := TrainLinearInvariant(linearPair(rng, 500))
	if err != nil {
		t.Fatalf("TrainLinearInvariant: %v", err)
	}
	if _, ok := li.Step(mathx.Point2{X: 50, Y: 160}); ok {
		t.Error("first observation should be unscored")
	}
}

func TestLinearInvariantInvalidOnArbitraryPair(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	li, err := TrainLinearInvariant(arbitraryPair(rng, 3000))
	if err != nil {
		t.Fatalf("TrainLinearInvariant: %v", err)
	}
	// The two-regime pair has no linear invariant. Either the fit is
	// flagged invalid outright, or at minimum far from clean.
	if li.R2() > 0.95 {
		t.Errorf("two-regime pair fit R2 = %.3f, should not look like a clean invariant", li.R2())
	}
}

func TestGMMEllipseDetectsSpatialOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := TrainGMMEllipse(arbitraryPair(rng, 2000), GMMEllipseConfig{Seed: 7})
	if err != nil {
		t.Fatalf("TrainGMMEllipse: %v", err)
	}
	if g.Name() != "gmm-ellipse" {
		t.Errorf("Name = %q", g.Name())
	}
	if g.Mixture() == nil {
		t.Fatal("Mixture should be exposed")
	}
	inside, ok := g.Step(mathx.Point2{X: 50, Y: 25}) // on the low branch
	if !ok || inside != 1 {
		t.Errorf("inside score = %.3f, %v", inside, ok)
	}
	outlier, ok := g.Step(mathx.Point2{X: 50, Y: 1000})
	if !ok || outlier > 0.2 {
		t.Errorf("outlier score = %.3f, %v", outlier, ok)
	}
	g.Reset() // no-op, must not panic
}

func TestGMMEllipseTrainValidation(t *testing.T) {
	if _, err := TrainGMMEllipse(make([]mathx.Point2, 2), GMMEllipseConfig{}); err == nil {
		t.Error("too few points: want error")
	}
}

// TestTemporalAnomalyOnlyTransitionModelSees is the headline comparison:
// a "flapping" stream alternates between two perfectly valid operating
// points. Every point is inside the trained clusters (GMM is blind) but
// the transitions are wildly improbable (the paper's model alarms).
func TestTemporalAnomalyOnlyTransitionModelSees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	history := arbitraryPair(rng, 4000)
	gmm, err := TrainGMMEllipse(history, GMMEllipseConfig{Seed: 11})
	if err != nil {
		t.Fatalf("TrainGMMEllipse: %v", err)
	}
	model, err := core.Train(history, core.Config{})
	if err != nil {
		t.Fatalf("core.Train: %v", err)
	}
	tr := &TransitionAdapter{Model: model}
	if tr.Name() != "transition-probability" {
		t.Errorf("Name = %q", tr.Name())
	}

	// Flapping stream: jump between a low-x low-branch point and a
	// high-x low-branch point every sample. Both are normal states; the
	// oscillation is not.
	flap := make([]mathx.Point2, 200)
	for i := range flap {
		if i%2 == 0 {
			flap[i] = mathx.Point2{X: 10, Y: 5 + rng.NormFloat64()}
		} else {
			flap[i] = mathx.Point2{X: 95, Y: 47.5 + rng.NormFloat64()}
		}
	}
	gmmScore := MeanScore(gmm, flap)
	trScore := MeanScore(tr, flap)
	if gmmScore < 0.95 {
		t.Errorf("GMM should be blind to flapping (score %.3f)", gmmScore)
	}
	if trScore > gmmScore-0.2 {
		t.Errorf("transition model (%.3f) should score flapping far below GMM (%.3f)", trScore, gmmScore)
	}

	// And on a normal continuation both score high.
	tr.Reset()
	normal := arbitraryPair(rand.New(rand.NewSource(6)), 500)
	if s := MeanScore(tr, normal); s < 0.75 {
		t.Errorf("transition model normal score = %.3f", s)
	}
	if s := MeanScore(gmm, normal); s < 0.9 {
		t.Errorf("GMM normal score = %.3f", s)
	}
}

func TestMeanScoreEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	li, err := TrainLinearInvariant(linearPair(rng, 100))
	if err != nil {
		t.Fatalf("TrainLinearInvariant: %v", err)
	}
	if !math.IsNaN(MeanScore(li, nil)) {
		t.Error("MeanScore of empty stream should be NaN")
	}
}
