package core

import (
	"fmt"
	"math"

	"mcorr/internal/mathx"
)

// UpdateRule selects how observed transitions update the matrix.
type UpdateRule int

const (
	// UpdateKernelBayes is the paper's rule (Eq. 1–2): the posterior of a
	// row is the prior multiplied, per observation, by a likelihood that
	// peaks at the observed destination cell and decays with cell distance
	// — implemented additively in log space.
	UpdateKernelBayes UpdateRule = iota + 1
	// UpdateDirichlet is the classical add-count smoothing ablation: the
	// prior contributes pseudo-counts and each observation adds one count
	// to the observed destination only.
	UpdateDirichlet
)

// String returns the rule's name.
func (r UpdateRule) String() string {
	switch r {
	case UpdateKernelBayes:
		return "kernel-bayes"
	case UpdateDirichlet:
		return "dirichlet"
	default:
		return fmt.Sprintf("UpdateRule(%d)", int(r))
	}
}

// TransitionMatrix is the paper's s×s matrix V with V[i][j] = P(c_i → c_j),
// kept row-wise as unnormalized log weights (kernel-Bayes) or counts
// (Dirichlet) and normalized on read.
//
// A correlated pair walks a thin part of its grid (the paper's census: 412
// of 701 transitions stay in their cell, 280 reach a nearest neighbour), so
// most rows are never the source of an observed transition. The matrix
// therefore stores a row iff Observe or ObserveRun has written it. Every
// other row is a pure function of the grid's history — the prior at the
// dims the cell was born under, pushed through every later Grow — and is
// produced on demand into one scratch buffer, bit for bit what a dense
// matrix would hold, by replaying that history (priorRow). Reads never
// store, so which rows exist depends on the observation history alone and
// not on who looked at the matrix: a checkpoint or an operator's
// Diagnostics sweep leaves it as it was.
//
// Grow does not re-lay the stored rows either: it moves them to their new
// indices and leaves each one as it was laid out, stale, until it is next
// touched (catchUp). A write re-lays a stale row into storage; a read
// re-lays it into scratch, as it replays an unobserved row.
//
// Each row's normalizer (log-sum-exp for kernel-Bayes, the count sum for
// Dirichlet) is cached behind a dirty bit that Observe and Grow clear;
// fitness ranks the raw row and needs no normalizer at all.
//
// TransitionMatrix is not safe for concurrent use, reads included; the
// Model guards it.
type TransitionMatrix struct {
	nx, ny int
	n      int
	kernel *Kernel
	rule   UpdateRule
	// rows[i] is row i's raw entries — log weights for UpdateKernelBayes
	// (softmax-normalized on read), nonnegative pseudo-counts for
	// UpdateDirichlet (sum-normalized on read) — or nil while no
	// transition out of cell i has been observed. A row's length is the
	// cell count of the dims it was laid out under: n when it is current,
	// fewer when a Grow came after it. Every growth adds cells, so the
	// length names the epoch and no other record of it is kept.
	rows [][]float64
	// growths lists every Grow the matrix has lived through, oldest first;
	// with the current dims it gives the dims of every past epoch, which is
	// what replaying an unobserved row or catching up a stale one needs.
	growths []Growth
	// scratch receives the unobserved or stale row a read asks for; the
	// slice row returns stays valid until the next such read.
	scratch []float64
	// norm/normOK cache each row's normalizer, allocated on first use.
	norm   []float64
	normOK []bool
	// strength is the prior pseudo-count mass per row for UpdateDirichlet.
	strength float64
	observed int
}

// NewTransitionMatrix builds the prior matrix over the grid's cells using
// the kernel's spatial-closeness weights: no row is stored until a
// transition out of it is observed. For the Dirichlet rule, strength is the
// prior's total pseudo-count mass per row (≤ 0 selects 10).
func NewTransitionMatrix(g *Grid, kernel *Kernel, rule UpdateRule, strength float64) (*TransitionMatrix, error) {
	if kernel == nil {
		return nil, fmt.Errorf("new transition matrix: nil kernel")
	}
	switch rule {
	case UpdateKernelBayes, UpdateDirichlet:
	default:
		return nil, fmt.Errorf("new transition matrix: unknown update rule %d", int(rule))
	}
	if strength <= 0 {
		strength = 10
	}
	nx, ny := g.Dims()
	n := nx * ny
	return &TransitionMatrix{nx: nx, ny: ny, n: n, kernel: kernel.covering(nx, ny), rule: rule, strength: strength, rows: make([][]float64, n)}, nil
}

// row returns row i's raw entries for reading: the stored row when it is
// current, or the scratch buffer filled with what row i holds — an
// unobserved row replayed, a stale one caught up.
func (tm *TransitionMatrix) row(i int) []float64 {
	r := tm.rows[i]
	if len(r) == tm.n {
		return r
	}
	if cap(tm.scratch) < tm.n {
		tm.scratch = make([]float64, tm.n)
	}
	tm.scratch = tm.scratch[:tm.n]
	tm.layOut(tm.scratch, r, i)
	return tm.scratch
}

// writableRow returns row i's stored entries, current: storing the row
// first if this is the first observed transition out of cell i, catching
// it up — in its own array when that has room — if it is stale. A new
// array's capacity is its whole allocation size class, which a later
// growth may fit in.
func (tm *TransitionMatrix) writableRow(i int) []float64 {
	if r := tm.rows[i]; len(r) != tm.n {
		dst := r[:cap(r)]
		if cap(r) < tm.n {
			dst = append([]float64(nil), make([]float64, tm.n)...)
		}
		tm.layOut(dst[:tm.n], r, i)
		tm.rows[i] = dst[:tm.n]
	}
	if tm.normOK != nil {
		tm.normOK[i] = false
	}
	return tm.rows[i]
}

// layOut fills dst (len n) with what row i holds, given its stored
// entries r: the prior replayed when r is nil, r caught up otherwise.
func (tm *TransitionMatrix) layOut(dst, r []float64, i int) {
	if r == nil {
		tm.priorRow(dst, i)
	} else {
		tm.catchUp(dst, r)
	}
}

// coords converts a cell index to (xi, yi) under the matrix's current dims.
func (tm *TransitionMatrix) coords(c int) (int, int) { return c / tm.ny, c % tm.ny }

// priorRow fills dst (len n) with what row i holds while no transition out
// of cell i has been observed. It replays the row's history instead of
// deriving it: walk the cell's coordinates back through the growths to the
// epoch it first existed in, fill the prior at that epoch's dims, then
// apply each later growth's extrapolation in turn, in place. Floats leave
// no shortcut — (v − e₁·p) − e₂·p is not v − (e₁+e₂)·p, and the prior of a
// grown grid is not the grown prior of a small one.
func (tm *TransitionMatrix) priorRow(dst []float64, i int) {
	xi, yi := tm.coords(i)
	nx, ny := tm.nx, tm.ny
	born := len(tm.growths)
	for ; born > 0; born-- {
		gr := tm.growths[born-1]
		ox, oy := xi-gr.XLow, yi-gr.YLow
		onx, ony := nx-gr.XLow-gr.XHigh, ny-gr.YLow-gr.YHigh
		if ox < 0 || ox >= onx || oy < 0 || oy >= ony {
			break // this growth created the cell
		}
		xi, yi, nx, ny = ox, oy, onx, ony
	}
	tm.initPriorRow(dst[:nx*ny], xi, yi, nx, ny)
	tm.replay(dst, dst[:nx*ny], nx, ny, tm.growths[born:])
}

// catchUp writes into dst (len n) the stale stored row src after every
// growth since it was laid out: walk the dims back until they hold
// len(src) cells, then replay the later growths. dst may be src's own
// array. Growing now gives the bits Grow would have: growRow reads only
// the row and the growth, and nothing touches a stale row before it is
// caught up.
func (tm *TransitionMatrix) catchUp(dst, src []float64) {
	nx, ny, k := tm.nx, tm.ny, len(tm.growths)
	for nx*ny != len(src) {
		k--
		gr := tm.growths[k]
		nx, ny = nx-gr.XLow-gr.XHigh, ny-gr.YLow-gr.YHigh
	}
	tm.replay(dst, src, nx, ny, tm.growths[k:])
}

// replay writes into dst src, a row of an nx×ny grid, after each of
// growths in turn: the first from src, the rest in place.
func (tm *TransitionMatrix) replay(dst, src []float64, nx, ny int, growths []Growth) {
	for _, gr := range growths {
		onx, ony := nx, ny
		nx, ny = nx+gr.XLow+gr.XHigh, ny+gr.YLow+gr.YHigh
		tm.growRow(dst[:nx*ny], src, onx, ony, gr)
		src = dst[:nx*ny]
	}
}

// initPriorRow fills dst with the prior for transitions out of cell
// (xi, yi) of an nx×ny grid.
func (tm *TransitionMatrix) initPriorRow(dst []float64, xi, yi, nx, ny int) {
	if tm.rule == UpdateKernelBayes {
		tm.kernel.FillLogRow(dst, xi, yi, nx, ny)
		return
	}
	// Dirichlet: normalized prior scaled to the pseudo-count mass.
	var sum float64
	j := 0
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			dst[j] = tm.kernel.Weight(xi-x, yi-y)
			sum += dst[j]
			j++
		}
	}
	for j := range dst {
		dst[j] *= tm.strength / sum
	}
}

// growRow writes into dst the row src of an oldNx×oldNy grid after growth
// gr: existing columns keep their value, new columns are extrapolated from
// their nearest pre-existing cell with one kernel step penalty per extra
// cell of distance (for the Dirichlet rule the clamped cell's count is
// copied with geometric decay). Zero extra cells leave a value's bits as
// they were, so the old cells of a pre-existing grid row are one copy and
// only the new cells are computed. dst may start at the same address as
// src: a column's source never lies after it, so the backward walk reads
// every old value before overwriting it.
func (tm *TransitionMatrix) growRow(dst, src []float64, oldNx, oldNy int, gr Growth) {
	nx, ny := oldNx+gr.XLow+gr.XHigh, oldNy+gr.YLow+gr.YHigh
	penalty := tm.kernel.StepPenalty()
	for x := nx - 1; x >= 0; x-- {
		ox := x - gr.XLow
		cx := clampInt(ox, 0, oldNx-1)
		ex := absInt(ox - cx)
		s, d := src[cx*oldNy:(cx+1)*oldNy], dst[x*ny:(x+1)*ny]
		for y := ny - 1; y >= gr.YLow+oldNy; y-- {
			d[y] = tm.extrapolate(s[oldNy-1], ex+y-(gr.YLow+oldNy-1), penalty)
		}
		if ex == 0 {
			copy(d[gr.YLow:gr.YLow+oldNy], s)
		} else {
			for oy := oldNy - 1; oy >= 0; oy-- {
				d[gr.YLow+oy] = tm.extrapolate(s[oy], ex, penalty)
			}
		}
		for y := gr.YLow - 1; y >= 0; y-- {
			d[y] = tm.extrapolate(s[0], ex+gr.YLow-y, penalty)
		}
	}
}

// extrapolate returns the value v of a grid's edge cell carried extra cells
// beyond it: extra step penalties off a log weight, or the count decayed
// geometrically.
func (tm *TransitionMatrix) extrapolate(v float64, extra int, penalty float64) float64 {
	if tm.rule == UpdateKernelBayes {
		return v - float64(extra)*penalty
	}
	return v * math.Exp(-float64(extra)*penalty)
}

// NumCells returns s, the matrix dimension.
func (tm *TransitionMatrix) NumCells() int { return tm.n }

// Observed returns how many transitions have been incorporated.
func (tm *TransitionMatrix) Observed() int { return tm.observed }

// Rule returns the matrix's update rule.
func (tm *TransitionMatrix) Rule() UpdateRule { return tm.rule }

// Observe incorporates one observed transition from cell i to cell h.
func (tm *TransitionMatrix) Observe(i, h int) error {
	if i < 0 || i >= tm.n || h < 0 || h >= tm.n {
		return fmt.Errorf("observe transition %d→%d in %d-cell matrix: out of range", i, h, tm.n)
	}
	tm.observed++
	row := tm.writableRow(i)
	if tm.rule == UpdateDirichlet {
		row[h]++
		return nil
	}
	// Kernel-Bayes: add the log likelihood, which peaks at h and decays
	// with distance (paper Eq. 2), then re-center the row at zero so the
	// log weights stay bounded over long streams.
	xh, yh := tm.coords(h)
	recenter(row, tm.kernel.AddLogRow(row, xh, yh, tm.nx, tm.ny))
	return nil
}

// ObserveRun incorporates count repeated observations of the self-transition
// c→c in one coalesced pass. In exact arithmetic it equals count sequential
// Observe(c, c) calls — for kernel-Bayes the per-call re-centering is a
// row-constant shift that cancels under normalization, so adding count·L and
// re-centering once is the same posterior; for Dirichlet the count simply
// lands on one entry. The float rounding differs from the sequential path
// but is deterministic, and every scoring path defers self-runs through this
// method (see Model.Step), so trajectories stay bit-identical across full
// and incremental scoring and checkpoints.
func (tm *TransitionMatrix) ObserveRun(c, count int) error {
	if c < 0 || c >= tm.n {
		return fmt.Errorf("observe run at cell %d in %d-cell matrix: out of range", c, tm.n)
	}
	if count <= 0 {
		return nil
	}
	tm.observed += count
	row := tm.writableRow(c)
	if tm.rule == UpdateDirichlet {
		row[c] += float64(count)
		return nil
	}
	xc, yc := tm.coords(c)
	recenter(row, tm.kernel.AddLogRowScaled(row, xc, yc, tm.nx, tm.ny, float64(count)))
	return nil
}

// ScoreObserve is ObserveRun(i, run), then ScoreTransition(i, h) — or
// FitnessAt(i, h) with a zero probability when wantProb is false — then
// Observe(i, h), bit for bit, in one call: the adaptive step out of a cell
// that was, for run samples, a frozen self-run's.
//
// For kernel-Bayes it walks row i twice where the calls it replaces walk it
// three times, and three times instead of five when run > 0. The run's
// scaled add, if any, leaves its re-centering to the sweep (Kernel.sweep),
// which subtracts the run's maximum, counts the cell toward π(c_h) and adds
// this transition's log likelihood cell by cell; one re-centering pass
// follows, so the stored row is what the separate calls store. An
// unobserved row is replayed from the prior once, into its storage. A
// probability, when wanted, is read off the fully re-centered row before
// the sweep, as ScoreTransition reads it.
func (tm *TransitionMatrix) ScoreObserve(i, h, run int, wantProb bool) (prob, fitness float64, err error) {
	if i < 0 || i >= tm.n || h < 0 || h >= tm.n || run < 0 {
		return 0, 0, fmt.Errorf("score and observe %d×%d then %d→%d in %d-cell matrix: out of range", run, i, i, h, tm.n)
	}
	if tm.rule == UpdateDirichlet {
		// Each update touches one count: there is no sweep to share. The
		// cells are checked above, so none of these calls can fail.
		_ = tm.ObserveRun(i, run)
		if wantProb {
			prob, fitness, _ = tm.ScoreTransition(i, h)
		} else {
			fitness, _ = tm.FitnessAt(i, h)
		}
		return prob, fitness, tm.Observe(i, h)
	}
	tm.observed += run + 1
	row := tm.writableRow(i)
	var shift float64 // +0: p − (+0) is p, a −0 included
	if run > 0 {
		xi, yi := tm.coords(i)
		shift = tm.kernel.AddLogRowScaled(row, xi, yi, tm.nx, tm.ny, float64(run))
		if wantProb {
			recenter(row, shift)
			shift = 0
		}
	}
	if wantProb {
		prob = tm.probAt(i, h, row)
	}
	xh, yh := tm.coords(h)
	mx, ahead := tm.kernel.sweep(row, xh, yh, tm.nx, tm.ny, shift, 1)
	recenter(row, mx)
	if tm.normOK != nil {
		tm.normOK[i] = false
	}
	return prob, FitnessFromRank(1+ahead, tm.n), nil
}

// ensureNorm returns row i's normalizer — the log-sum-exp of raw for
// kernel-Bayes, the count sum for Dirichlet — computing and caching it if
// the row changed since the last read. raw is row(i).
func (tm *TransitionMatrix) ensureNorm(i int, raw []float64) float64 {
	if tm.normOK == nil {
		tm.norm = make([]float64, tm.n)
		tm.normOK = make([]bool, tm.n)
	}
	if !tm.normOK[i] {
		if tm.rule == UpdateKernelBayes {
			tm.norm[i] = mathx.LogSumExp(raw)
		} else {
			tm.norm[i] = mathx.Sum(raw)
		}
		tm.normOK[i] = true
	}
	return tm.norm[i]
}

// normalizeInto writes the normalized form of the raw entries src into dst
// (same length; dst may be src's tail or a single entry) given the row's
// normalizer: one exp (kernel-Bayes) or one multiply (Dirichlet) per entry.
// The arithmetic mirrors mathx.SoftmaxInto / mathx.Normalize exactly,
// including their uniform fallback for degenerate rows, so every read —
// whole row or single probability — returns the same bits.
func (tm *TransitionMatrix) normalizeInto(dst, src []float64, norm float64) {
	if tm.rule == UpdateKernelBayes {
		if math.IsInf(norm, -1) {
			uniformFill(dst, tm.n)
			return
		}
		for j, x := range src {
			dst[j] = math.Exp(x - norm)
		}
		return
	}
	if norm <= 0 || math.IsInf(norm, 0) || math.IsNaN(norm) {
		uniformFill(dst, tm.n)
		return
	}
	inv := 1 / norm
	for j, x := range src {
		dst[j] = x * inv
	}
}

func uniformFill(dst []float64, n int) {
	u := 1 / float64(n)
	for j := range dst {
		dst[j] = u
	}
}

// probAt returns the single normalized probability P(c_i → c_h) of the raw
// row i, bit for bit the entry RowInto writes.
func (tm *TransitionMatrix) probAt(i, h int, raw []float64) float64 {
	var p [1]float64
	tm.normalizeInto(p[:], raw[h:h+1], tm.ensureNorm(i, raw))
	return p[0]
}

// RowInto writes the normalized transition distribution out of cell i into
// dst (allocating when dst is too small) and returns it. Nothing is kept
// but the row's normalizer, so a sweep over every row costs no memory.
func (tm *TransitionMatrix) RowInto(dst []float64, i int) ([]float64, error) {
	if i < 0 || i >= tm.n {
		return nil, fmt.Errorf("row %d of %d-cell matrix: out of range", i, tm.n)
	}
	if cap(dst) < tm.n {
		dst = make([]float64, tm.n)
	}
	dst = dst[:tm.n]
	raw := tm.row(i)
	tm.normalizeInto(dst, raw, tm.ensureNorm(i, raw))
	return dst, nil
}

// Prob returns P(c_i → c_j) from the cached row normalizer: only the first
// read after a mutation of row i renormalizes.
func (tm *TransitionMatrix) Prob(i, j int) (float64, error) {
	if i < 0 || i >= tm.n {
		return 0, fmt.Errorf("row %d of %d-cell matrix: out of range", i, tm.n)
	}
	if j < 0 || j >= tm.n {
		return 0, fmt.Errorf("column %d of %d-cell matrix: out of range", j, tm.n)
	}
	return tm.probAt(i, j, tm.row(i)), nil
}

// ScoreTransition returns P(c_i → c_h) and the rank-based fitness score Q
// for the observed transition i→h. The fitness ranks the raw row directly —
// softmax (kernel-Bayes) and count normalization (Dirichlet) are strictly
// monotonic per row, so the raw rank is the normalized rank without
// computing a single exponential; ties, including raw-weight ties, break by
// lower index exactly as RankInRow does on a normalized row. The
// probability comes from the cached normalizer (one exp), bit-identical to
// the entry RowInto writes.
//
// Note the one deliberate divergence from ranking a normalized row:
// softmax can collapse raw weights that differ only in their last ulps into
// exact probability ties. Ranking the raw row keeps such cells distinct.
// Every scoring path ranks the same way, so trajectories remain
// bit-identical across full and incremental scoring.
func (tm *TransitionMatrix) ScoreTransition(i, h int) (prob, fitness float64, err error) {
	if i < 0 || i >= tm.n || h < 0 || h >= tm.n {
		return 0, 0, fmt.Errorf("score transition %d→%d in %d-cell matrix: out of range", i, h, tm.n)
	}
	raw := tm.row(i)
	return tm.probAt(i, h, raw), FitnessFromRow(raw, h), nil
}

// FitnessAt returns only the fitness score for the transition i→h — the
// read used when the caller does not need the probability, e.g. offline
// mean-fitness replays and scoring with the probability gate disabled. It
// is a pure comparison scan over the raw row: no normalizer, no
// exponentials (see ScoreTransition for why the raw rank is the normalized
// rank).
func (tm *TransitionMatrix) FitnessAt(i, h int) (float64, error) {
	if i < 0 || i >= tm.n || h < 0 || h >= tm.n {
		return 0, fmt.Errorf("fitness of transition %d→%d in %d-cell matrix: out of range", i, h, tm.n)
	}
	return FitnessFromRow(tm.row(i), h), nil
}

// ObservedRows returns how many rows the matrix stores: the cells that have
// been the source of at least one observed transition. A checkpoint writes
// 8·NumCells() bytes for each; a stale row holds fewer in memory.
func (tm *TransitionMatrix) ObservedRows() int {
	stored := 0
	for _, r := range tm.rows {
		if r != nil {
			stored++
		}
	}
	return stored
}

// Grow remaps the matrix after the grid grew from its previous dims to the
// current dims of g, as described by gr. Stored rows move to their cells'
// new indices untouched and keep their transition mass: the next access
// extrapolates their new columns (catchUp). Rows of brand-new cells, like
// every unobserved row, are not stored — recording gr is all it takes for
// priorRow to produce them. Only the row index is allocated.
func (tm *TransitionMatrix) Grow(g *Grid, gr Growth) error {
	if gr.XLow < 0 || gr.XHigh < 0 || gr.YLow < 0 || gr.YHigh < 0 {
		return fmt.Errorf("grow by %+v: negative growth", gr)
	}
	nx := tm.nx + gr.XLow + gr.XHigh
	ny := tm.ny + gr.YLow + gr.YHigh
	if gnx, gny := g.Dims(); gnx != nx || gny != ny {
		return fmt.Errorf("grow to %dx%d but grid is %dx%d", nx, ny, gnx, gny)
	}
	if nx == tm.nx && ny == tm.ny {
		return nil
	}
	tm.kernel = tm.kernel.covering(nx, ny)
	old, oldNy := tm.rows, tm.ny
	tm.nx, tm.ny, tm.n = nx, ny, nx*ny
	tm.growths = append(tm.growths, gr)
	tm.rows = make([][]float64, tm.n)
	// Every cached normalizer is sized for the old dims; drop them all and
	// let the next read rebuild lazily.
	tm.norm, tm.normOK = nil, nil
	for oi, r := range old {
		if r != nil {
			tm.rows[(oi/oldNy+gr.XLow)*ny+oi%oldNy+gr.YLow] = r
		}
	}
	return nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
