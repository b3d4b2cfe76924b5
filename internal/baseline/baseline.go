package baseline

import (
	"fmt"
	"math"

	"mcorr/internal/core"
	"mcorr/internal/mathx"
)

// PairDetector scores a stream of 2-D observations of one measurement
// pair. Score is in [0, 1] — 1 for perfectly expected, 0 for maximally
// anomalous — comparable across detectors. Scored is false while the
// detector is still warming up (e.g. the first observation).
type PairDetector interface {
	// Name identifies the detector in reports.
	Name() string
	// Step consumes the next observation and returns its score.
	Step(p mathx.Point2) (score float64, scored bool)
	// Reset clears stream state (not the trained model).
	Reset()
}

// LinearInvariant is the ARX linear-invariant baseline.
type LinearInvariant struct {
	coef   []float64
	resStd float64
	prev   mathx.Point2
	armed  bool
	r2     float64
}

const (
	// linearGateSigmas is the residual band half-width in residual
	// standard deviations; the score decays linearly to 0 at the gate.
	linearGateSigmas = 4
	// linearMinR2 is the training fit quality below which the pair is
	// declared to hold no linear invariant (Valid() returns false).
	linearMinR2 = 0.5
)

// TrainLinearInvariant fits the ARX model on history points.
func TrainLinearInvariant(history []mathx.Point2) (*LinearInvariant, error) {
	if len(history) < 8 {
		return nil, fmt.Errorf("linear invariant needs at least 8 points, got %d", len(history))
	}
	xs := make([]float64, len(history))
	ys := make([]float64, len(history))
	for i, p := range history {
		xs[i], ys[i] = p.X, p.Y
	}
	coef, err := mathx.FitARX(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("linear invariant: %w", err)
	}
	// Residual statistics and fit quality of the one-step predictions.
	var res mathx.Online
	var sse, sst float64
	my := mathx.Mean(ys[1:])
	for t := 1; t < len(history); t++ {
		pred := mathx.PredictARX(coef, xs[t], xs[t-1], ys[t-1])
		r := ys[t] - pred
		res.Add(r)
		sse += r * r
		d := ys[t] - my
		sst += d * d
	}
	li := &LinearInvariant{coef: coef, resStd: res.StdDev()}
	if sst > 0 {
		li.r2 = 1 - sse/sst
	} else {
		li.r2 = 1
	}
	if li.resStd == 0 || math.IsNaN(li.resStd) {
		li.resStd = 1e-12
	}
	return li, nil
}

var _ PairDetector = (*LinearInvariant)(nil)

// Name implements PairDetector.
func (l *LinearInvariant) Name() string { return "linear-invariant" }

// R2 returns the training fit quality of the invariant.
func (l *LinearInvariant) R2() float64 { return l.r2 }

// Valid reports whether the pair actually holds a linear invariant worth
// monitoring (the cited systems prune low-quality invariants).
func (l *LinearInvariant) Valid() bool { return l.r2 >= linearMinR2 }

// Step implements PairDetector: score 1 at zero residual, decaying
// linearly to 0 at linearGateSigmas residual standard deviations.
func (l *LinearInvariant) Step(p mathx.Point2) (float64, bool) {
	if !l.armed {
		l.prev = p
		l.armed = true
		return 0, false
	}
	pred := mathx.PredictARX(l.coef, p.X, l.prev.X, l.prev.Y)
	r := math.Abs(p.Y - pred)
	l.prev = p
	score := 1 - r/(linearGateSigmas*l.resStd)
	return mathx.Clamp(score, 0, 1), true
}

// Reset implements PairDetector.
func (l *LinearInvariant) Reset() { l.armed = false }

// GMMEllipse is the Gaussian-mixture ellipse baseline.
type GMMEllipse struct {
	mixture *mathx.GMM2
}

// gmmGate is the squared-Mahalanobis boundary of "inside the ellipse":
// χ², 2 dof, 99%.
const gmmGate = 9.21

// GMMEllipseConfig controls TrainGMMEllipse.
type GMMEllipseConfig struct {
	// Components is the mixture size; default 3 (the cited work uses a
	// handful of clusters).
	Components int
	// Seed seeds EM initialization.
	Seed int64
}

// TrainGMMEllipse fits the mixture to history points.
func TrainGMMEllipse(history []mathx.Point2, cfg GMMEllipseConfig) (*GMMEllipse, error) {
	if cfg.Components <= 0 {
		cfg.Components = 3
	}
	m, err := mathx.FitGMM2(history, mathx.GMMConfig{Components: cfg.Components, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("gmm ellipse: %w", err)
	}
	return &GMMEllipse{mixture: m}, nil
}

var _ PairDetector = (*GMMEllipse)(nil)

// Name implements PairDetector.
func (g *GMMEllipse) Name() string { return "gmm-ellipse" }

// Mixture returns the fitted mixture.
func (g *GMMEllipse) Mixture() *mathx.GMM2 { return g.mixture }

// Step implements PairDetector: 1 inside the nearest component's gate
// ellipse, decaying as the squared distance grows beyond it. The detector
// is purely spatial, so every observation is scored.
func (g *GMMEllipse) Step(p mathx.Point2) (float64, bool) {
	d := g.mixture.MinMahalanobis(p)
	if d <= gmmGate {
		return 1, true
	}
	return mathx.Clamp(gmmGate/d, 0, 1), true
}

// Reset implements PairDetector (no stream state).
func (g *GMMEllipse) Reset() {}

// TransitionAdapter exposes the paper's core model as a PairDetector.
type TransitionAdapter struct {
	Model *core.Model
}

var _ PairDetector = (*TransitionAdapter)(nil)

// Name implements PairDetector.
func (a *TransitionAdapter) Name() string { return "transition-probability" }

// Step implements PairDetector using the model's fitness score.
func (a *TransitionAdapter) Step(p mathx.Point2) (float64, bool) {
	res := a.Model.Step(p)
	return res.Fitness, res.Scored
}

// Reset implements PairDetector.
func (a *TransitionAdapter) Reset() { a.Model.Reset() }

// MeanScore replays points through a detector and returns its average
// score over the scored observations (NaN when none were scored).
func MeanScore(d PairDetector, pts []mathx.Point2) float64 {
	var sum float64
	var n int
	for _, p := range pts {
		if s, ok := d.Step(p); ok {
			sum += s
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
