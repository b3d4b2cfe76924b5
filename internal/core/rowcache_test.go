package core

import (
	"math"
	"math/rand"
	"testing"

	"mcorr/internal/mathx"
)

// referenceRow normalizes row i of tm exactly the way the pre-cache
// implementation did: copy the raw weights, then softmax (kernel-Bayes) or
// sum-normalize (Dirichlet).
func referenceRow(t *testing.T, tm *TransitionMatrix, i int) []float64 {
	t.Helper()
	ref := make([]float64, tm.n)
	copy(ref, tm.row(i))
	if tm.rule == UpdateKernelBayes {
		if _, err := mathx.SoftmaxInto(ref, ref); err != nil {
			t.Fatalf("reference softmax: %v", err)
		}
		return ref
	}
	mathx.Normalize(ref)
	return ref
}

// requireRowsMatch asserts RowInto and Prob agree bit-for-bit with the
// reference normalization of every row, and that ScoreTransition/FitnessAt
// rank the raw row (the defined scoring semantics — see ScoreTransition;
// TestSoftmaxFreeRankMatchesMaterialized pins down when the raw rank equals
// the materialized rank).
func requireRowsMatch(t *testing.T, tm *TransitionMatrix, context string) {
	t.Helper()
	for i := 0; i < tm.NumCells(); i++ {
		ref := referenceRow(t, tm, i)
		raw := append([]float64(nil), tm.row(i)...)
		got, err := tm.RowInto(nil, i)
		if err != nil {
			t.Fatalf("%s: RowInto(%d): %v", context, i, err)
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("%s: row %d col %d: cached %v != reference %v", context, i, j, got[j], ref[j])
			}
			p, err := tm.Prob(i, j)
			if err != nil {
				t.Fatalf("%s: Prob(%d,%d): %v", context, i, j, err)
			}
			if p != ref[j] {
				t.Fatalf("%s: Prob(%d,%d) = %v, reference %v", context, i, j, p, ref[j])
			}
		}
		for h := 0; h < tm.NumCells(); h++ {
			prob, fitness, err := tm.ScoreTransition(i, h)
			if err != nil {
				t.Fatalf("%s: ScoreTransition(%d,%d): %v", context, i, h, err)
			}
			if prob != ref[h] {
				t.Fatalf("%s: ScoreTransition(%d,%d) prob %v != %v", context, i, h, prob, ref[h])
			}
			if want := FitnessFromRow(raw, h); fitness != want {
				t.Fatalf("%s: ScoreTransition(%d,%d) fitness %v != %v", context, i, h, fitness, want)
			}
			fit, err := tm.FitnessAt(i, h)
			if err != nil {
				t.Fatalf("%s: FitnessAt(%d,%d): %v", context, i, h, err)
			}
			if want := FitnessFromRow(raw, h); fit != want {
				t.Fatalf("%s: FitnessAt(%d,%d) = %v, want %v", context, i, h, fit, want)
			}
		}
	}
}

// TestRowCacheStaysCorrectAcrossObserveAndGrow interleaves reads with the
// two mutation paths and asserts the cached normalizers never go stale for
// either update rule.
func TestRowCacheStaysCorrectAcrossObserveAndGrow(t *testing.T) {
	for _, rule := range []UpdateRule{UpdateKernelBayes, UpdateDirichlet} {
		t.Run(rule.String(), func(t *testing.T) {
			grid, err := UniformGrid(0, 4, 4, 0, 4, 4)
			if err != nil {
				t.Fatalf("UniformGrid: %v", err)
			}
			kernel, err := NewKernel(KernelHarmonic, 2, 4, 4)
			if err != nil {
				t.Fatalf("NewKernel: %v", err)
			}
			tm, err := NewTransitionMatrix(grid, kernel, rule, 10)
			if err != nil {
				t.Fatalf("NewTransitionMatrix: %v", err)
			}
			requireRowsMatch(t, tm, "prior")

			rng := rand.New(rand.NewSource(11))
			for round := 0; round < 5; round++ {
				// Warm the cache, then dirty a few rows behind its back.
				for k := 0; k < 8; k++ {
					i := rng.Intn(tm.NumCells())
					h := rng.Intn(tm.NumCells())
					if _, _, err := tm.ScoreTransition(i, h); err != nil {
						t.Fatalf("warm read: %v", err)
					}
					if err := tm.Observe(i, h); err != nil {
						t.Fatalf("Observe: %v", err)
					}
				}
				requireRowsMatch(t, tm, "after observes")
			}

			// Grow drops all cached normalizers; re-verify every row on
			// the new geometry.
			gr, grew := grid.GrowToInclude(mathx.Point2{X: 4.8, Y: 2}, 3)
			if !grew {
				t.Fatal("grid should grow for an in-lambda point")
			}
			if err := tm.Grow(grid, gr); err != nil {
				t.Fatalf("Grow: %v", err)
			}
			requireRowsMatch(t, tm, "after grow")

			if err := tm.Observe(0, tm.NumCells()-1); err != nil {
				t.Fatalf("Observe after grow: %v", err)
			}
			requireRowsMatch(t, tm, "after grow+observe")
		})
	}
}

// TestSoftmaxFreeRankMatchesMaterialized is the property test for the
// rank/softmax monotonicity that the scoring path rests on: for log-weight
// rows whose distinct entries are well separated — exp only collapses
// distinct floats into ties when they differ in their final ulps — the
// rank computed on the raw row equals the rank computed on the
// materialized softmax row, for every destination cell, including exact
// tie cases (exact raw ties map to exact probability ties and both sides
// break them by index).
func TestSoftmaxFreeRankMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := 2 + rng.Intn(30)
		raw := make([]float64, s)
		for j := range raw {
			// Lattice of multiples of 1/8 in [-32, 0]: distinct entries
			// differ by ≥ 0.125, far beyond exp's rounding collisions.
			raw[j] = -float64(rng.Intn(257)) / 8
		}
		// Inject exact ties: copy some entries over others.
		for k := 0; k < s/3; k++ {
			raw[rng.Intn(s)] = raw[rng.Intn(s)]
		}
		probs := make([]float64, s)
		if _, err := mathx.SoftmaxInto(probs, raw); err != nil {
			t.Fatalf("softmax: %v", err)
		}
		for h := 0; h < s; h++ {
			rawRank := RankInRow(raw, h)
			probRank := RankInRow(probs, h)
			if rawRank != probRank {
				t.Fatalf("trial %d: rank(c%d) raw %d != softmax %d (raw=%v)", trial, h, rawRank, probRank, raw)
			}
			if FitnessFromRank(rawRank, s) != FitnessFromRow(probs, h) {
				t.Fatalf("trial %d: fitness mismatch at h=%d", trial, h)
			}
		}
	}
}

// TestSoftmaxFreeRankAllTied covers the fully degenerate tie case: every
// cell equal means rank(h) = h+1 under the deterministic index tie-break.
func TestSoftmaxFreeRankAllTied(t *testing.T) {
	raw := []float64{-2.5, -2.5, -2.5, -2.5}
	probs := make([]float64, len(raw))
	if _, err := mathx.SoftmaxInto(probs, raw); err != nil {
		t.Fatal(err)
	}
	for h := range raw {
		if got, want := RankInRow(raw, h), h+1; got != want {
			t.Errorf("raw rank(%d) = %d, want %d", h, got, want)
		}
		if RankInRow(raw, h) != RankInRow(probs, h) {
			t.Errorf("rank(%d) differs between raw and softmax", h)
		}
	}
}

// TestProbColumnRangeChecked: the cached Prob validates the column index
// instead of panicking.
func TestProbColumnRangeChecked(t *testing.T) {
	grid, _ := UniformGrid(0, 3, 3, 0, 3, 3)
	kernel, _ := NewKernel(KernelHarmonic, 2, 3, 3)
	tm, _ := NewTransitionMatrix(grid, kernel, UpdateKernelBayes, 0)
	if _, err := tm.Prob(0, 9); err == nil {
		t.Error("Prob(0, 9) on a 9-cell matrix: want error")
	}
	if _, err := tm.Prob(0, -1); err == nil {
		t.Error("Prob(0, -1): want error")
	}
}

// TestRowIntoCleanPathReusesCache: consecutive reads of an untouched row
// return identical values off one normalizer computation, and an Observe
// changes — and renormalizes — its own row only.
func TestRowIntoCleanPathReusesCache(t *testing.T) {
	grid, _ := UniformGrid(0, 3, 3, 0, 3, 3)
	kernel, _ := NewKernel(KernelHarmonic, 2, 3, 3)
	tm, _ := NewTransitionMatrix(grid, kernel, UpdateKernelBayes, 0)
	first, err := tm.RowInto(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tm.normOK[4] {
		t.Fatal("row 4's normalizer should be cached after a read")
	}
	other, err := tm.RowInto(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tm.RowInto(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := range first {
		if first[j] != second[j] {
			t.Fatalf("re-read of an untouched row diverged at %d", j)
		}
	}
	// Poison the cached normalizer: exp(x − ∞) = 0, so a read that reuses
	// it returns zeros and one that recomputes it does not.
	tm.norm[4] = math.Inf(1)
	if p, err := tm.Prob(4, 4); err != nil || p != 0 {
		t.Fatalf("Prob(4, 4) = %g, %v: an untouched row's normalizer was recomputed", p, err)
	}
	if err := tm.Observe(4, 1); err != nil {
		t.Fatal(err)
	}
	if tm.normOK[4] {
		t.Fatal("Observe(4, ...) must drop row 4's normalizer")
	}
	if !tm.normOK[5] {
		t.Fatal("Observe(4, ...) must not drop row 5's normalizer")
	}
	after, err := tm.RowInto(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	changed := false
	for j, p := range after {
		sum += p
		changed = changed || p != first[j]
	}
	if !changed || math.Abs(sum-1) > 1e-12 {
		t.Fatalf("post-observe row: changed=%v, sums to %g", changed, sum)
	}
	again, err := tm.RowInto(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range other {
		if again[j] != other[j] {
			t.Fatalf("Observe(4, ...) changed row 5 at col %d", j)
		}
	}
}
