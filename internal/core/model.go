package core

import (
	"fmt"
	"sync"

	"mcorr/internal/mathx"
)

// Config controls model construction and online behaviour. The zero value
// selects the documented defaults (which reproduce the paper's setup).
type Config struct {
	// Grid configures the adaptive discretization.
	Grid GridConfig
	// Kernel selects the spatial-closeness kernel; default KernelHarmonic
	// (the paper's, recovered from Figure 5).
	Kernel KernelKind
	// DecayW is the kernel decay rate w; default 2.
	DecayW float64
	// Lambda bounds online grid growth to Lambda average interval widths
	// beyond the current boundary (the paper's λ); default 3. A negative
	// value disables growth entirely (every out-of-grid point is an
	// outlier).
	Lambda float64
	// Adaptive enables online updating (grid growth + matrix updates) as
	// points are observed. Offline models only score.
	Adaptive bool
	// UpdateRule selects the matrix update rule; default UpdateKernelBayes.
	UpdateRule UpdateRule
	// DirichletStrength is the prior pseudo-count mass per row when
	// UpdateRule is UpdateDirichlet; default 10.
	DirichletStrength float64
	// OmitProbs skips computing the transition probability in Step:
	// StepResult.Prob reports zero and the scoring hot path touches no
	// normalizer (and thus no exponentials). Fitness is unaffected — it
	// ranks the raw row either way. The manager layer enables this
	// automatically when nothing consumes the probability (ProbDelta == 0).
	// Explicit reads (Score, TransitionProbability, Explain, RowInto) still
	// compute probabilities normally.
	OmitProbs bool
}

func (c Config) withDefaults() Config {
	if c.Kernel == 0 {
		c.Kernel = KernelHarmonic
	}
	if c.DecayW == 0 {
		c.DecayW = 2
	}
	if c.Lambda == 0 {
		c.Lambda = 3
	}
	if c.UpdateRule == 0 {
		c.UpdateRule = UpdateKernelBayes
	}
	if c.DirichletStrength == 0 {
		c.DirichletStrength = 10
	}
	return c
}

// StepResult reports what the model concluded about one new observation.
type StepResult struct {
	// Scored is false when no transition could be evaluated: the very
	// first observation, or the observation following an out-of-grid
	// outlier (the Markov chain restarts).
	Scored bool
	// Prob is P(x_t → x_{t+1}), the transition probability the paper
	// thresholds against δ. Zero for out-of-grid outliers.
	Prob float64
	// Fitness is the rank-based score Q ∈ [0, 1]; zero for outliers.
	Fitness float64
	// OutOfGrid reports that the observation fell outside the grid and
	// was rejected as an outlier (too far to grow the boundary).
	OutOfGrid bool
	// Cell is the grid cell the observation landed in, −1 when OutOfGrid.
	Cell int
	// Grown reports that the grid was extended to accommodate the
	// observation (adaptive models only).
	Grown bool
	// Steady reports that this observation entered or continued a frozen
	// self-transition run: as long as subsequent observations land in the
	// same cell, Step returns this exact result again (matrix updates are
	// deferred and coalesced until the run breaks). The manager's
	// incremental scheduler uses Steady plus SteadyBounds to skip
	// re-scoring pairs whose inputs provably repeat.
	Steady bool
}

// Stats summarizes a model's online history.
type Stats struct {
	Observations int // points seen by Step
	Scored       int // transitions scored
	Outliers     int // out-of-grid rejections
	Growths      int // grid extensions
	Updates      int // matrix updates applied
}

// Model is the paper's pairwise correlation model M = (G, V): a grid over
// the 2-D measurement space plus a transition probability matrix over its
// cells. Build one with Train, then feed the online stream through Step.
//
// Self-transition runs — consecutive observations in the same cell, the
// dominant steady-state pattern — are frozen: the first self-transition is
// scored fresh and its result cached (runRes); every continuation returns
// the cached result and defers its matrix update (runLen), and the deferred
// updates apply in one coalesced ObserveRun when the run breaks (cell
// change, outlier, gap, growth, Reset, SetAdaptive) — inside ScoreObserve,
// bit for bit the same, when an adaptive step breaks it by moving to
// another cell. Deferral is part of the model's defined update semantics,
// not an approximation: every scoring path — full, incremental, recovered
// from a checkpoint — defers the same way, so trajectories are
// bit-identical across them. One observable consequence: read-only views
// of the matrix (Score, TransitionProbability, Matrix, Explain) do not see
// a live run's deferred updates until the run breaks.
//
// Model is safe for concurrent use.
type Model struct {
	mu    sync.Mutex
	cfg   Config
	grid  *Grid
	tm    *TransitionMatrix
	prev  int
	armed bool // prev is valid
	stats Stats
	row   []float64 // scratch row buffer for Explain/Diagnose row reads

	// Frozen self-run state: runValid marks runRes as the cached result of
	// the live run in cell prev; runLen counts deferred adaptive updates
	// not yet applied to the matrix. runLen > 0 implies a live run.
	runValid bool
	runLen   int
	runRes   StepResult
}

// Train initializes the model from history data (the paper's snapshot of
// past monitoring data): it builds the grid, fills the matrix with the
// spatial-closeness prior, and replays every consecutive history
// transition through the Bayesian update.
func Train(history []mathx.Point2, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(history) == 0 {
		return nil, fmt.Errorf("train: %w", ErrNoData)
	}
	grid, err := BuildGrid(history, cfg.Grid)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	nx, ny := grid.Dims()
	kernel, err := NewKernel(cfg.Kernel, cfg.DecayW, nx, ny)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	tm, err := NewTransitionMatrix(grid, kernel, cfg.UpdateRule, cfg.DirichletStrength)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	m := &Model{cfg: cfg, grid: grid, tm: tm, prev: -1}
	// Replay the history transitions (§4.2: "the updating procedure starts
	// from x_1 ... and is repeatedly executed").
	prev, armed := -1, false
	for _, p := range history {
		cell, ok := grid.Locate(p)
		if !ok {
			// NaN or boundary artifacts: restart the chain.
			armed = false
			continue
		}
		if armed {
			if err := tm.Observe(prev, cell); err != nil {
				return nil, fmt.Errorf("train replay: %w", err)
			}
			m.stats.Updates++
		}
		prev, armed = cell, true
	}
	return m, nil
}

// NewModelFromGrid builds a model over a caller-supplied grid with only the
// prior in its matrix — used by tests and by the paper's worked examples.
func NewModelFromGrid(grid *Grid, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	nx, ny := grid.Dims()
	kernel, err := NewKernel(cfg.Kernel, cfg.DecayW, nx, ny)
	if err != nil {
		return nil, err
	}
	tm, err := NewTransitionMatrix(grid, kernel, cfg.UpdateRule, cfg.DirichletStrength)
	if err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, grid: grid, tm: tm, prev: -1}, nil
}

// flushRunLocked applies any deferred self-run updates (one coalesced
// ObserveRun on the run's cell) and invalidates the frozen result. Callers
// hold m.mu. Every run break routes through here BEFORE the breaking event
// mutates geometry (growth) or scores a new transition, so deferred updates
// always land under the dims they were observed in — but for Step's
// adaptive move to another cell, which hands the run to ScoreObserve.
func (m *Model) flushRunLocked() {
	if m.runLen > 0 {
		// Cannot fail: prev is a valid cell of the current dims.
		_ = m.tm.ObserveRun(m.prev, m.runLen)
		m.runLen = 0
	}
	m.runValid = false
}

// Step feeds one online observation through the model. It returns the
// transition probability and fitness score for the implied transition, and
// — when the model is adaptive — updates the matrix (and grows the grid if
// the point lies just beyond it).
func (m *Model) Step(p mathx.Point2) StepResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Observations++

	cell, ok := m.grid.Locate(p)
	var grown bool
	if !ok && m.cfg.Adaptive {
		if gr, grew := m.grid.GrowToInclude(p, m.cfg.Lambda); grew {
			// Deferred self-run updates belong to the old geometry; apply
			// them before the matrix is remapped.
			m.flushRunLocked()
			oldNy := m.tm.ny
			// Growth cannot fail here: the matrix dims track the grid.
			if err := m.tm.Grow(m.grid, gr); err != nil {
				// Inconsistent internal state would be a bug; surface it
				// loudly in the result rather than panicking.
				m.armed = false
				return StepResult{OutOfGrid: true, Cell: -1}
			}
			// Prepended intervals shift every pre-existing cell index (and
			// any Y growth changes the row stride); remap the chain
			// position so the next transition scores out of the right row.
			if m.armed {
				oxi, oyi := m.prev/oldNy, m.prev%oldNy
				m.prev = (oxi+gr.XLow)*m.tm.ny + (oyi + gr.YLow)
			}
			grown = true
			m.stats.Growths++
			cell, ok = m.grid.Locate(p)
		}
	}
	if !ok {
		// Outlier: zero probability and fitness, no update (paper §4.2),
		// and the chain restarts at the next in-grid point.
		m.flushRunLocked()
		m.stats.Outliers++
		res := StepResult{Scored: m.armed, OutOfGrid: true, Cell: -1}
		m.armed = false
		return res
	}

	if m.armed && m.runValid && cell == m.prev {
		// Frozen self-run continuation: the row cannot have changed since
		// runRes was scored (the run's own updates are deferred), so the
		// cached result repeats bit-for-bit. grown is never true here —
		// growth targets a cell outside the old grid, never the remapped
		// previous cell — and flushRunLocked above cleared runValid on
		// every growth path regardless.
		if m.cfg.Adaptive {
			m.runLen++
			m.stats.Updates++
		}
		m.stats.Scored++
		return m.runRes
	}
	// Any live run just broke: its deferred updates apply before the new
	// transition is scored out of the (now up-to-date) row — inside
	// ScoreObserve when this step goes on to update that row, where the
	// flush, the rank and the update share one sweep.
	fused := m.armed && m.cfg.Adaptive && cell != m.prev
	if !fused {
		m.flushRunLocked()
	}

	res := StepResult{Cell: cell, Grown: grown}
	if m.armed {
		// Softmax-free hot path: the rank comes straight from the raw row
		// and the probability (when wanted at all) from the cached
		// normalizer, so no probability row is materialized here.
		var prob, fitness float64
		var err error
		switch {
		case fused:
			prob, fitness, err = m.tm.ScoreObserve(m.prev, cell, m.runLen, !m.cfg.OmitProbs)
			m.runLen, m.runValid = 0, false
			if err == nil {
				m.stats.Updates++
			}
		case m.cfg.OmitProbs:
			fitness, err = m.tm.FitnessAt(m.prev, cell)
		default:
			prob, fitness, err = m.tm.ScoreTransition(m.prev, cell)
		}
		if m.cfg.Adaptive && cell == m.prev {
			// Entering a self-run: defer this update (and the run's
			// continuations) so the frozen result stays exact.
			m.runLen = 1
			m.stats.Updates++
		}
		if err == nil {
			res.Scored = true
			res.Prob = prob
			res.Fitness = fitness
			m.stats.Scored++
		}
		if res.Scored && cell == m.prev {
			res.Steady = true
			m.runRes = res
			m.runValid = true
		}
	}
	m.prev, m.armed = cell, true
	return res
}

// Warm reads what the next Step is certain to read and nothing else: the
// grid edges and, when the chain is armed and the row out of prev is stored,
// each of that row's cache lines (rows are allocated line-aligned) — as
// stored, stale or not. A caller about to Step a block of models warms them
// all first, so the block's cache misses are in flight together instead of
// queueing model by model. With the vector row kernels each line is one
// prefetch, which nothing waits for; elsewhere it is one load of a word of
// it. It stores nothing, computes no unobserved row and catches up no stale
// one: no state, checkpoint bytes included, can tell whether it ran. The
// sum returned exists so the compiler keeps the loads; it means nothing.
//
//go:noinline
func (m *Model) Warm() (sum float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sum = warmLines(m.grid.X.Edges) + warmLines(m.grid.Y.Edges)
	if m.armed {
		sum += warmLines(m.tm.rows[m.prev])
	}
	return sum
}

// NoteSkipped records that the caller skipped re-scoring this model for an
// observation that provably repeats the live frozen self-run (both values
// stayed inside SteadyBounds). It mirrors the frozen-run branch of Step
// exactly: counters advance and, for adaptive models, the matrix update is
// deferred onto the run — a later flush is bit-identical to having called
// Step. It returns false, and records nothing, when no frozen run is live
// (the model was reset, re-armed or mutated since the caller cached its
// outcome); the caller must then re-score via Step.
func (m *Model) NoteSkipped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.armed || !m.runValid {
		return false
	}
	m.stats.Observations++
	m.stats.Scored++
	if m.cfg.Adaptive {
		m.runLen++
		m.stats.Updates++
	}
	return true
}

// SteadyBounds returns the half-open value bounds [xlo,xhi) × [ylo,yhi) of
// the cell the model's live frozen self-run occupies. While both series
// stay inside these bounds the next observation is guaranteed to land in
// the same cell and Step would return the frozen result — the contract the
// manager's incremental skip test is built on (a plain half-open comparison
// replicates Axis.Locate exactly, including NaN rejection). ok is false
// when no frozen run is live.
func (m *Model) SteadyBounds() (xlo, xhi, ylo, yhi float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.armed || !m.runValid {
		return 0, 0, 0, 0, false
	}
	xlo, xhi, ylo, yhi = m.grid.CellBounds(m.prev)
	return xlo, xhi, ylo, yhi, true
}

// Score evaluates the transition from the model's current position to p
// without mutating anything — the pure "offline" read used when comparing
// models. It returns ok=false when no transition can be scored.
func (m *Model) Score(p mathx.Point2) (prob, fitness float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.armed {
		return 0, 0, false
	}
	cell, in := m.grid.Locate(p)
	if !in {
		return 0, 0, true // a scoreable observation with zero probability
	}
	prob, fitness, err := m.tm.ScoreTransition(m.prev, cell)
	if err != nil {
		return 0, 0, false
	}
	return prob, fitness, true
}

// Reset clears the Markov chain position (e.g. across a data gap) without
// touching the learned matrix. A live self-run breaks: its deferred
// updates apply first.
func (m *Model) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushRunLocked()
	m.armed = false
}

// SetAdaptive switches online updating on or off. A live self-run breaks:
// updates deferred under the old regime apply before the flip.
func (m *Model) SetAdaptive(adaptive bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushRunLocked()
	m.cfg.Adaptive = adaptive
}

// Adaptive reports whether online updating is enabled.
func (m *Model) Adaptive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.Adaptive
}

// Grid returns the model's grid. The returned value is shared; callers
// must not mutate it.
func (m *Model) Grid() *Grid {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.grid
}

// Matrix returns the model's transition matrix. The returned value is
// shared; callers must not mutate it concurrently with Step.
func (m *Model) Matrix() *TransitionMatrix {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tm
}

// NumCells returns s, the current number of grid cells.
func (m *Model) NumCells() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tm.NumCells()
}

// MatrixBytes returns the bytes a checkpoint writes for the matrix's stored
// rows — 8 × NumCells for every cell a transition has been observed out
// of — which is, to within a few percent, what Save writes for the model.
// It bounds the memory the rows hold from above: a row laid out before the
// latest growth holds fewer entries until its next write.
func (m *Model) MatrixBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return 8 * m.tm.n * m.tm.ObservedRows()
}

// Stats returns a snapshot of the model's online counters.
func (m *Model) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// TransitionProbability returns P(c_i → c_j) for explicit cells.
func (m *Model) TransitionProbability(i, j int) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tm.Prob(i, j)
}
