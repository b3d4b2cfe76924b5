package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mcorr/internal/mathx"
)

// corrStream generates a correlated 2-D random walk confined to a box —
// a stand-in for two correlated measurements in their normal regime.
func corrStream(rng *rand.Rand, n int) []mathx.Point2 {
	pts := make([]mathx.Point2, n)
	x := 50.0
	for i := range pts {
		x += rng.NormFloat64() * 2
		x = mathx.Clamp(x, 0, 100)
		y := 2*x + rng.NormFloat64()*3 // near-linear correlation
		pts[i] = mathx.Point2{X: x, Y: y}
	}
	return pts
}

func TestTrainEmpty(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("empty history: want error")
	}
}

func TestTrainAndScoreNormalData(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	history := corrStream(rng, 2000)
	m, err := Train(history, Config{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.NumCells() < 4 {
		t.Fatalf("degenerate grid: %d cells", m.NumCells())
	}
	// Normal continuation scores high fitness on average.
	test := corrStream(rng, 1000)
	mf := m.MeanFitness(test)
	if mf < 0.8 {
		t.Errorf("mean fitness on normal data = %.3f, want ≥ 0.8 (paper reports 0.8–0.98)", mf)
	}
}

func TestStepSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, err := Train(corrStream(rng, 1500), Config{Adaptive: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	first := m.Step(mathx.Point2{X: 50, Y: 100})
	if first.Scored {
		t.Error("first observation cannot be scored")
	}
	if first.OutOfGrid {
		t.Error("central point should be in grid")
	}
	second := m.Step(mathx.Point2{X: 51, Y: 102})
	if !second.Scored {
		t.Fatal("second observation should be scored")
	}
	if second.Prob <= 0 || second.Fitness <= 0 || second.Fitness > 1 {
		t.Errorf("second = %+v", second)
	}
	st := m.Stats()
	if st.Observations != 2 || st.Scored != 1 || st.Updates == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStepAnomalousTransitionScoresLow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, err := Train(corrStream(rng, 3000), Config{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Establish a normal position, then jump to a corner of the space
	// that breaks the correlation (x low, y high).
	m.Step(mathx.Point2{X: 50, Y: 100})
	normal := m.Step(mathx.Point2{X: 52, Y: 104})
	m.Reset()
	m.Step(mathx.Point2{X: 50, Y: 100})
	anomalous := m.Step(mathx.Point2{X: 5, Y: 195})
	if !anomalous.Scored {
		t.Skip("anomalous corner fell outside the training grid; covered by outlier tests")
	}
	if anomalous.Fitness >= normal.Fitness {
		t.Errorf("correlation-breaking jump fitness %.3f should be below normal %.3f",
			anomalous.Fitness, normal.Fitness)
	}
}

func TestStepOutlierBreaksChain(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m, err := Train(corrStream(rng, 1000), Config{}) // offline: no growth
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	m.Step(mathx.Point2{X: 50, Y: 100})
	out := m.Step(mathx.Point2{X: 1e9, Y: 1e9})
	if !out.OutOfGrid || out.Cell != -1 {
		t.Fatalf("far point = %+v, want out of grid", out)
	}
	if !out.Scored || out.Prob != 0 || out.Fitness != 0 {
		t.Errorf("outlier after a valid position should score 0: %+v", out)
	}
	// The chain restarts: the next in-grid point is unscored.
	next := m.Step(mathx.Point2{X: 50, Y: 100})
	if next.Scored {
		t.Error("observation after an outlier should not be scored")
	}
	if st := m.Stats(); st.Outliers != 1 {
		t.Errorf("outliers = %d", st.Outliers)
	}
}

func TestStepFirstPointOutlierUnscored(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m, err := Train(corrStream(rng, 1000), Config{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	out := m.Step(mathx.Point2{X: 1e9, Y: 1e9})
	if out.Scored {
		t.Error("outlier with no prior position cannot be scored")
	}
}

func TestAdaptiveGrowsGridOnDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m, err := Train(corrStream(rng, 2000), Config{Adaptive: true, Lambda: 3})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	g := m.Grid()
	hi := g.X.Hi()
	drift := mathx.Point2{X: hi + 0.4*g.X.AvgWidth, Y: 100}
	res := m.Step(drift)
	if res.OutOfGrid {
		t.Fatal("gradual drift should grow the grid, not be rejected")
	}
	if !res.Grown {
		t.Error("Grown flag should be set")
	}
	if st := m.Stats(); st.Growths != 1 {
		t.Errorf("growths = %d", st.Growths)
	}
	// Offline models never grow.
	m2, err := Train(corrStream(rng, 2000), Config{Adaptive: false})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	g2 := m2.Grid()
	res2 := m2.Step(mathx.Point2{X: g2.X.Hi() + 0.4*g2.X.AvgWidth, Y: 100})
	if !res2.OutOfGrid {
		t.Error("offline model must not grow its grid")
	}
}

func TestAdaptiveImprovesOnDriftingStream(t *testing.T) {
	// The paper's offline-vs-adaptive claim (Fig. 13a): when the test
	// distribution drifts, the adaptive model fits it better.
	rng := rand.New(rand.NewSource(27))
	history := corrStream(rng, 800)
	mkStream := func() []mathx.Point2 {
		s := rand.New(rand.NewSource(99))
		pts := make([]mathx.Point2, 2500)
		x := 50.0
		for i := range pts {
			x += s.NormFloat64() * 2
			x = mathx.Clamp(x, 0, 100)
			// The relationship slowly drifts away from training.
			shift := 40 * float64(i) / float64(len(pts))
			pts[i] = mathx.Point2{X: x, Y: 2*x + shift + s.NormFloat64()*3}
		}
		return pts
	}
	offline, err := Train(history, Config{Adaptive: false})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	adaptive, err := Train(history, Config{Adaptive: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var offSum, adSum float64
	var offN, adN int
	for _, p := range mkStream() {
		if r := offline.Step(p); r.Scored {
			offSum += r.Fitness
			offN++
		}
	}
	for _, p := range mkStream() {
		if r := adaptive.Step(p); r.Scored {
			adSum += r.Fitness
			adN++
		}
	}
	offMean, adMean := offSum/float64(offN), adSum/float64(adN)
	if adMean <= offMean {
		t.Errorf("adaptive fitness %.3f should beat offline %.3f on drifting data", adMean, offMean)
	}
}

func TestScoreDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m, err := Train(corrStream(rng, 1000), Config{Adaptive: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, _, ok := m.Score(mathx.Point2{X: 50, Y: 100}); ok {
		t.Error("Score before any Step should not be scoreable")
	}
	m.Step(mathx.Point2{X: 50, Y: 100})
	before := m.Stats()
	prob, fit, ok := m.Score(mathx.Point2{X: 51, Y: 102})
	if !ok || prob <= 0 || fit <= 0 {
		t.Errorf("Score = %g, %g, %v", prob, fit, ok)
	}
	if m.Stats() != before {
		t.Error("Score must not change model state")
	}
	// Out-of-grid scores zero but is still a scoreable observation.
	prob, fit, ok = m.Score(mathx.Point2{X: 1e9, Y: 1e9})
	if !ok || prob != 0 || fit != 0 {
		t.Errorf("out-of-grid Score = %g, %g, %v", prob, fit, ok)
	}
}

func TestSetAdaptive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m, err := Train(corrStream(rng, 500), Config{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.Adaptive() {
		t.Error("default should be offline")
	}
	m.SetAdaptive(true)
	if !m.Adaptive() {
		t.Error("SetAdaptive(true) failed")
	}
}

func TestModelConcurrentSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m, err := Train(corrStream(rng, 1000), Config{Adaptive: true})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for _, p := range corrStream(r, 200) {
				m.Step(p)
			}
		}(int64(g))
	}
	wg.Wait()
	if st := m.Stats(); st.Observations != 1600 {
		t.Errorf("observations = %d, want 1600", st.Observations)
	}
}

func TestNewModelFromGridPriorOnly(t *testing.T) {
	g, _ := UniformGrid(0, 3, 3, 0, 3, 3)
	m, err := NewModelFromGrid(g, Config{})
	if err != nil {
		t.Fatalf("NewModelFromGrid: %v", err)
	}
	p, err := m.TransitionProbability(4, 4)
	if err != nil {
		t.Fatalf("TransitionProbability: %v", err)
	}
	if math.Abs(p-0.1765) > 0.001 {
		t.Errorf("prior P(c5→c5) = %.4f, want 0.1765 (Figure 5)", p)
	}
}

func TestMeanFitnessEmpty(t *testing.T) {
	g, _ := UniformGrid(0, 3, 3, 0, 3, 3)
	m, err := NewModelFromGrid(g, Config{})
	if err != nil {
		t.Fatalf("NewModelFromGrid: %v", err)
	}
	if !math.IsNaN(m.MeanFitness(nil)) {
		t.Error("MeanFitness of empty stream should be NaN")
	}
}

func TestTrainSkipsNaNs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	history := corrStream(rng, 500)
	// NaNs cannot be located; the replay must survive them.
	history[100] = mathx.Point2{X: math.NaN(), Y: math.NaN()}
	if _, err := Train(history, Config{}); err != nil {
		t.Fatalf("Train with NaN point: %v", err)
	}
}

func TestFitnessBounds(t *testing.T) {
	row := []float64{0.25, 0.25, 0.25, 0.25}
	// Ties: rank determined by index; all fitness in (0, 1].
	for h := range row {
		f := FitnessFromRow(row, h)
		if f <= 0 || f > 1 {
			t.Errorf("fitness(%d) = %g out of range", h, f)
		}
	}
	if FitnessFromRow(nil, 0) != 0 {
		t.Error("empty row fitness should be 0")
	}
	// Tie-break is deterministic: earlier index ranks higher.
	if RankInRow(row, 0) != 1 || RankInRow(row, 3) != 4 {
		t.Error("tie-break by index failed")
	}
}

func TestNegativeLambdaDisablesGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m, err := Train(corrStream(rng, 1000), Config{Adaptive: true, Lambda: -1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	g := m.Grid()
	res := m.Step(mathx.Point2{X: g.X.Hi() + 0.1*g.X.AvgWidth, Y: 100})
	if !res.OutOfGrid || res.Grown {
		t.Errorf("negative lambda must disable growth: %+v", res)
	}
	if st := m.Stats(); st.Growths != 0 {
		t.Errorf("growths = %d", st.Growths)
	}
}

// TestWarmOnlyReads: Warm is a prefetch written as loads. It allocates
// nothing, stores no row — not even the unobserved one it finds under prev —
// and leaves the model's checkpoint byte for byte what it was, whether the
// chain is unarmed, armed on a stored row, armed on a row never observed or
// armed on a stored row a growth left stale.
func TestWarmOnlyReads(t *testing.T) {
	m, err := Train(corrStream(rand.New(rand.NewSource(23)), 400), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(state string) {
		t.Helper()
		var before, after bytes.Buffer
		if err := m.Save(&before); err != nil {
			t.Fatal(err)
		}
		rows := m.Matrix().ObservedRows()
		if allocs := testing.AllocsPerRun(10, func() { m.Warm() }); allocs != 0 {
			t.Errorf("%s: Warm allocates %v times a call", state, allocs)
		}
		if err := m.Save(&after); err != nil {
			t.Fatal(err)
		}
		if got := m.Matrix().ObservedRows(); got != rows || !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("%s: Warm changed the model: %d stored rows, were %d; checkpoint equal: %v", state, got, rows, bytes.Equal(before.Bytes(), after.Bytes()))
		}
	}
	check("unarmed")
	g := m.Grid()
	m.Step(mathx.Point2{X: g.X.Lo(), Y: g.Y.Hi() - g.Y.AvgWidth/4}) // a corner the correlated stream never visits
	if m.Matrix().rows[m.prev] != nil {
		t.Fatal("fixture: the corner cell's row is stored")
	}
	check("armed on an unobserved row")
	m.Step(mathx.Point2{X: 50, Y: 100})
	m.Step(mathx.Point2{X: 50, Y: 100})
	m.Step(mathx.Point2{X: 52, Y: 104})
	if m.Matrix().rows[m.prev] == nil {
		m.Step(mathx.Point2{X: 50, Y: 100})
	}
	if m.Matrix().rows[m.prev] == nil {
		t.Fatal("fixture: the chain is not on a stored row")
	}
	check("armed on a stored row")
	i := armOnStaleRow(t, m)
	check("armed on a stored row laid out before the last growth")
	if len(m.Matrix().rows[i]) == m.NumCells() {
		t.Error("Warm or Save caught the stale row up in storage")
	}
}
