package mathx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrEMNoConverge is returned when EM fails to make progress, e.g. because a
// component collapsed onto a single point.
var ErrEMNoConverge = errors.New("mathx: EM did not converge")

// Point2 is a point in the two-dimensional measurement space.
type Point2 struct {
	X, Y float64
}

// Gaussian2 is a two-dimensional Gaussian component with full covariance.
type Gaussian2 struct {
	Mean Point2
	Cov  Sym2
}

// LogPDF returns the log density of p under g. It returns -Inf when the
// covariance is singular.
func (g Gaussian2) LogPDF(p Point2) float64 {
	inv, err := g.Cov.Inverse()
	if err != nil {
		return math.Inf(-1)
	}
	det := g.Cov.Det()
	if det <= 0 {
		return math.Inf(-1)
	}
	dx, dy := p.X-g.Mean.X, p.Y-g.Mean.Y
	md := inv.Mahalanobis(dx, dy)
	return -math.Log(2*math.Pi) - 0.5*math.Log(det) - 0.5*md
}

// Mahalanobis returns the squared Mahalanobis distance of p from g's mean,
// or +Inf when the covariance is singular.
func (g Gaussian2) Mahalanobis(p Point2) float64 {
	inv, err := g.Cov.Inverse()
	if err != nil {
		return math.Inf(1)
	}
	return inv.Mahalanobis(p.X-g.Mean.X, p.Y-g.Mean.Y)
}

// GMM2 is a mixture of two-dimensional Gaussians.
type GMM2 struct {
	Weights    []float64
	Components []Gaussian2
	// LogLikelihood is the final training log-likelihood per sample.
	LogLikelihood float64
	// Iterations is how many EM iterations ran.
	Iterations int
}

// GMMConfig controls FitGMM2.
type GMMConfig struct {
	// Components is the number of mixture components (k ≥ 1).
	Components int
	// Seed seeds the k-means++ style initialization.
	Seed int64
}

// EM runs at most gmmMaxIter iterations and stops once the per-sample
// log-likelihood improves by less than gmmTol. Covariance diagonals are
// floored at gmmMinVariance times the data variance so no component
// collapses onto a point.
const (
	gmmMaxIter     = 100
	gmmTol         = 1e-6
	gmmMinVariance = 1e-9
)

// FitGMM2 fits a k-component 2-D Gaussian mixture to pts by expectation
// maximization with a k-means++ style initialization. It needs at least
// 2·k points.
func FitGMM2(pts []Point2, cfg GMMConfig) (*GMM2, error) {
	k := cfg.Components
	if k < 1 {
		return nil, fmt.Errorf("gmm with %d components", k)
	}
	if len(pts) < 2*k {
		return nil, fmt.Errorf("gmm with %d components needs at least %d points, got %d", k, 2*k, len(pts))
	}

	// Data scale, for variance flooring.
	var ox, oy Online
	for _, p := range pts {
		ox.Add(p.X)
		oy.Add(p.Y)
	}
	scale := (ox.Variance() + oy.Variance()) / 2
	if math.IsNaN(scale) || scale == 0 {
		scale = 1
	}
	floor := gmmMinVariance * scale

	rng := rand.New(rand.NewSource(cfg.Seed))
	comps := initComponents(pts, k, scale, rng)
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 1 / float64(k)
	}

	resp := make([][]float64, len(pts)) // responsibilities
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	logBuf := make([]float64, k)

	prevLL := math.Inf(-1)
	iter := 0
	for ; iter < gmmMaxIter; iter++ {
		// E step.
		var ll float64
		for i, p := range pts {
			for j := range comps {
				logBuf[j] = math.Log(weights[j]) + comps[j].LogPDF(p)
			}
			lse := LogSumExp(logBuf)
			if math.IsInf(lse, -1) {
				return nil, fmt.Errorf("all components singular at point %d: %w", i, ErrEMNoConverge)
			}
			ll += lse
			for j := range comps {
				resp[i][j] = math.Exp(logBuf[j] - lse)
			}
		}
		ll /= float64(len(pts))

		// M step.
		for j := range comps {
			var wsum, mx, my float64
			for i, p := range pts {
				r := resp[i][j]
				wsum += r
				mx += r * p.X
				my += r * p.Y
			}
			if wsum < 1e-12 {
				// Re-seed a dead component at a random point.
				q := pts[rng.Intn(len(pts))]
				comps[j] = Gaussian2{Mean: q, Cov: Sym2{XX: scale, YY: scale}}
				weights[j] = 1e-3
				continue
			}
			mx /= wsum
			my /= wsum
			var cxx, cxy, cyy float64
			for i, p := range pts {
				r := resp[i][j]
				dx, dy := p.X-mx, p.Y-my
				cxx += r * dx * dx
				cxy += r * dx * dy
				cyy += r * dy * dy
			}
			comps[j] = Gaussian2{
				Mean: Point2{X: mx, Y: my},
				Cov:  Sym2{XX: cxx/wsum + floor, XY: cxy / wsum, YY: cyy/wsum + floor},
			}
			weights[j] = wsum / float64(len(pts))
		}
		Normalize(weights)

		if ll-prevLL < gmmTol && iter > 0 {
			prevLL = ll
			break
		}
		prevLL = ll
	}

	return &GMM2{Weights: weights, Components: comps, LogLikelihood: prevLL, Iterations: iter + 1}, nil
}

// initComponents seeds k components at spread-out points (k-means++ style:
// each next seed drawn proportionally to squared distance from the nearest
// existing seed).
func initComponents(pts []Point2, k int, scale float64, rng *rand.Rand) []Gaussian2 {
	seeds := make([]Point2, 0, k)
	seeds = append(seeds, pts[rng.Intn(len(pts))])
	d2 := make([]float64, len(pts))
	for len(seeds) < k {
		var total float64
		for i, p := range pts {
			best := math.Inf(1)
			for _, s := range seeds {
				dx, dy := p.X-s.X, p.Y-s.Y
				if d := dx*dx + dy*dy; d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with seeds; reuse any point.
			seeds = append(seeds, pts[rng.Intn(len(pts))])
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := len(pts) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		seeds = append(seeds, pts[pick])
	}
	comps := make([]Gaussian2, k)
	for i, s := range seeds {
		comps[i] = Gaussian2{Mean: s, Cov: Sym2{XX: scale, YY: scale}}
	}
	return comps
}

// LogPDF returns the log density of p under the mixture.
func (m *GMM2) LogPDF(p Point2) float64 {
	logs := make([]float64, len(m.Components))
	for j, c := range m.Components {
		logs[j] = math.Log(m.Weights[j]) + c.LogPDF(p)
	}
	return LogSumExp(logs)
}

// MinMahalanobis returns the smallest squared Mahalanobis distance from p to
// any component mean — the ellipse-gating statistic of the GMM baseline.
func (m *GMM2) MinMahalanobis(p Point2) float64 {
	best := math.Inf(1)
	for _, c := range m.Components {
		if d := c.Mahalanobis(p); d < best {
			best = d
		}
	}
	return best
}
