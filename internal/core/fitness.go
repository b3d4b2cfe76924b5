package core

// RankInRow returns the paper's ranking function π(c_h): the 1-based rank
// of cell h when the row's cells are ordered by decreasing transition
// probability. Ties are broken deterministically by cell index, so equal
// probabilities at lower indices rank ahead of h.
//
// Because ranking only compares entries, row may equally be a vector of
// unnormalized scores under any strictly increasing transform of the
// probabilities — raw kernel-Bayes log weights or Dirichlet counts rank
// identically to the softmax/sum-normalized row in exact arithmetic. In
// floats the two can differ only where exp collapses log weights that
// differ in their final ulps into exact probability ties; the scoring hot
// path ranks the raw row (see TransitionMatrix.ScoreTransition), which
// keeps such cells distinct and costs no exponentials.
//
// The tie-break splits the scan at h, as the fused update's count does
// (TransitionMatrix.ScoreObserve): cells before h count when p ≥ ph, cells
// from h on when p > ph.
func RankInRow(row []float64, h int) int {
	ph := row[h]
	return 1 + countAtLeast(row[:h], ph) + countAbove(row[h:], ph)
}

// FitnessFromRank converts a 1-based rank π(c_h) over s cells into the
// paper's fitness score Q = 1 − (π(c_h) − 1) / s.
func FitnessFromRank(rank, s int) float64 {
	if s == 0 {
		return 0
	}
	return 1 - float64(rank-1)/float64(s)
}

// FitnessFromRow computes the paper's pairwise fitness score
//
//	Q = 1 − (π(c_h) − 1) / s
//
// where row is the transition distribution out of the previous cell (or
// any monotone score vector for it — see RankInRow), h is the cell the new
// observation actually landed in, and s = len(row). The best-predicted
// cell scores 1; the worst scores 1/s; callers assign 0 to observations
// that fall outside the grid entirely.
func FitnessFromRow(row []float64, h int) float64 {
	if len(row) == 0 {
		return 0
	}
	return FitnessFromRank(RankInRow(row, h), len(row))
}
