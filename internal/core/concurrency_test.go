package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mcorr/internal/mathx"
)

// hammerPoints returns a deterministic correlated stream for concurrency
// tests.
func hammerPoints(seed int64, n int) []mathx.Point2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]mathx.Point2, n)
	x := 50.0
	for i := range pts {
		x = mathx.Clamp(x+rng.NormFloat64()*2, 0, 100)
		pts[i] = mathx.Point2{X: x, Y: 2*x + rng.NormFloat64()*3}
	}
	return pts
}

// TestModelConcurrentStepScoreStats hammers one adaptive model from
// writers (Step), readers (Score, TransitionProbability, a read-only replay) and
// stat readers concurrently. Run under -race (make check) it verifies the
// row cache is only ever touched under the model lock.
func TestModelConcurrentStepScoreStats(t *testing.T) {
	model, err := Train(hammerPoints(1, 2048), Config{Adaptive: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	stream := hammerPoints(2, 512)
	replay := hammerPoints(3, 64)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < len(stream); i++ {
				model.Step(stream[(i+seed*37)%len(stream)])
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < len(stream); i++ {
				p := stream[(i+seed*53)%len(stream)]
				if prob, fitness, ok := model.Score(p); ok {
					if prob < 0 || prob > 1 || fitness < 0 || fitness > 1 {
						t.Errorf("Score out of range: prob=%g fitness=%g", prob, fitness)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			_ = model.Stats()
			_ = model.NumCells()
			_ = model.Adaptive()
			if _, err := model.TransitionProbability(0, 0); err != nil {
				t.Errorf("TransitionProbability: %v", err)
				return
			}
			_ = meanFitness(model, replay)
		}
	}()
	wg.Wait()

	stats := model.Stats()
	if stats.Observations != 4*len(stream) {
		t.Errorf("observations %d, want %d", stats.Observations, 4*len(stream))
	}
}

// TestTimeConditionedConcurrentStep gives the time-conditioned variant the
// same -race treatment on its shared-grid, per-bucket-matrix path.
func TestTimeConditionedConcurrentStep(t *testing.T) {
	start := time.Date(2008, 5, 29, 0, 0, 0, 0, time.UTC)
	step := 5 * time.Minute
	tc, err := TrainTimeConditioned(hammerPoints(4, 1024), start, step, 4, Config{Adaptive: true})
	if err != nil {
		t.Fatalf("TrainTimeConditioned: %v", err)
	}
	stream := hammerPoints(5, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i, p := range stream {
				tc.StepAt(start.Add(time.Duration(i+seed)*step), p)
			}
		}(w)
	}
	wg.Wait()
}
