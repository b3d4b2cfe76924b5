package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mcorr/internal/mathx"
)

// eagerGrow is Grow as it was before stored rows were left stale: every
// stored row is re-laid into a new array of n entries at growth time. It is
// the oracle the lazy layout must match bit for bit.
func eagerGrow(tm *TransitionMatrix, g *Grid, gr Growth) error {
	nx := tm.nx + gr.XLow + gr.XHigh
	ny := tm.ny + gr.YLow + gr.YHigh
	if gnx, gny := g.Dims(); gnx != nx || gny != ny {
		return fmt.Errorf("grow to %dx%d but grid is %dx%d", nx, ny, gnx, gny)
	}
	if nx == tm.nx && ny == tm.ny {
		return nil
	}
	tm.kernel = tm.kernel.covering(nx, ny)
	old := tm.rows
	oldNx, oldNy := tm.nx, tm.ny
	tm.nx, tm.ny, tm.n = nx, ny, nx*ny
	tm.growths = append(tm.growths, gr)
	tm.rows = make([][]float64, tm.n)
	tm.norm, tm.normOK = nil, nil
	for oi, src := range old {
		if src == nil {
			continue
		}
		dst := make([]float64, tm.n)
		tm.growRow(dst, src, oldNx, oldNy, gr)
		tm.rows[(oi/oldNy+gr.XLow)*ny+oi%oldNy+gr.YLow] = dst
	}
	return nil
}

// staleBy returns how many growths came after the stored row r was laid
// out: 0 for a current row or none.
func staleBy(tm *TransitionMatrix, r []float64) int {
	nx, ny, k := tm.nx, tm.ny, 0
	for r != nil && nx*ny != len(r) {
		k++
		gr := tm.growths[len(tm.growths)-k]
		nx, ny = nx-gr.XLow-gr.XHigh, ny-gr.YLow-gr.YHigh
	}
	return k
}

// growthTwin drives a matrix that grows lazily and a shadow grown by
// eagerGrow through the same calls, each inside a model so that their
// checkpoints can be compared too.
type growthTwin struct {
	t           *testing.T
	lazy, eager *Model
	// caughtUp counts writes that caught a stale row up; deep those of them
	// behind two growths or more, inPlace those done in the row's own array.
	caughtUp, deep, inPlace int
}

func newGrowthTwin(t *testing.T, rule UpdateRule, kind KernelKind) *growthTwin {
	grid, err := UniformGrid(0, 1, 3, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kernel: kind, UpdateRule: rule, DirichletStrength: 7}
	lazy, err := NewModelFromGrid(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := NewModelFromGrid(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &growthTwin{t: t, lazy: lazy, eager: eager}
}

// apply runs the call that op (four bytes) names on both matrices,
// describes it and reports whether it was a growth: op[0] picks Observe, ObserveRun, ScoreObserve, Grow or a
// sweep of reads; op[1] and op[2] the cells, op[1] also the growth's sides
// (each axis kept to 16 intervals); op[3] the run and whether a
// probability is wanted.
func (w *growthTwin) apply(op []byte) (what string, grew bool) {
	lz, eg := w.lazy.tm, w.eager.tm
	n := lz.n
	i, h := int(op[1])%n, int(op[2])%n
	run, wantProb := []int{0, 1, 3, 250}[op[3]%4], op[3]&4 != 0
	before := lz.rows[i]
	switch op[0] % 8 {
	case 0, 1:
		what = fmt.Sprintf("observe %d→%d", i, h)
		w.same(what, lz.Observe(i, h), eg.Observe(i, h))
	case 2:
		what = fmt.Sprintf("run %d×%d", i, run)
		w.same(what, lz.ObserveRun(i, run), eg.ObserveRun(i, run))
	case 3, 4:
		what = fmt.Sprintf("score-observe %d×%d then %d→%d (prob %v)", run, i, i, h, wantProb)
		lp, lf, lerr := lz.ScoreObserve(i, h, run, wantProb)
		ep, ef, eerr := eg.ScoreObserve(i, h, run, wantProb)
		w.same(what, lerr, eerr, lp, ep, lf, ef)
	case 5, 6:
		side := func(shift uint) int { return int(op[1]>>shift&3) % 3 }
		gr := Growth{XLow: side(0), XHigh: side(2), YLow: side(4), YHigh: side(6)}
		if lz.nx+gr.XLow+gr.XHigh > 16 {
			gr.XLow, gr.XHigh = 0, 0
		}
		if lz.ny+gr.YLow+gr.YHigh > 16 {
			gr.YLow, gr.YHigh = 0, 0
		}
		grid, err := UniformGrid(0, 1, lz.nx+gr.XLow+gr.XHigh, 0, 1, lz.ny+gr.YLow+gr.YHigh)
		if err != nil {
			w.t.Fatal(err)
		}
		what = fmt.Sprintf("grow %+v", gr)
		w.same(what, lz.Grow(grid, gr), eagerGrow(eg, grid, gr))
		w.lazy.grid, w.eager.grid = grid, grid
		return what, true
	default:
		what = fmt.Sprintf("reads of row %d at %d", i, h)
		lp, lf, lerr := lz.ScoreTransition(i, h)
		ep, ef, eerr := eg.ScoreTransition(i, h)
		w.same(what, lerr, eerr, lp, ep, lf, ef)
		lf, lerr = lz.FitnessAt(h, i)
		ef, eerr = eg.FitnessAt(h, i)
		w.same(what, lerr, eerr, lf, ef)
		lp, lerr = lz.Prob(i, h)
		ep, eerr = eg.Prob(i, h)
		w.same(what, lerr, eerr, lp, ep)
		lrow, lerr := lz.RowInto(nil, h)
		erow, eerr := eg.RowInto(nil, h)
		w.same(what, lerr, eerr)
		if j := sameBits(lrow, erow); j >= 0 || len(lrow) != len(erow) {
			w.t.Fatalf("%s: RowInto(%d) entry %d: %v vs %v", what, h, j, lrow, erow)
		}
		return what, false
	}
	if k := staleBy(lz, before); k > 0 && len(lz.rows[i]) == lz.n {
		w.caughtUp++
		if k > 1 {
			w.deep++
		}
		if &lz.rows[i][0] == &before[0] {
			w.inPlace++
		}
	}
	return what, false
}

// same fails the test unless the two errors agree and each pair of values
// that follows them is equal by bits.
func (w *growthTwin) same(what string, lerr, eerr error, vals ...float64) {
	w.t.Helper()
	if (lerr == nil) != (eerr == nil) {
		w.t.Fatalf("%s: lazy error %v, eager %v", what, lerr, eerr)
	}
	for k := 0; k+1 < len(vals); k += 2 {
		if math.Float64bits(vals[k]) != math.Float64bits(vals[k+1]) {
			w.t.Fatalf("%s: value %d is %v lazily, %v eagerly", what, k/2, vals[k], vals[k+1])
		}
	}
}

// run applies the calls ops encodes, four bytes each, and compares the two
// matrices after every call and their checkpoints after every growth and
// after the last call.
func (w *growthTwin) run(ops []byte) {
	w.t.Helper()
	for k := 0; k+4 <= len(ops); k += 4 {
		what, grew := w.apply(ops[k : k+4])
		after := fmt.Sprintf("call %d, %s", k/4, what)
		w.check(after)
		if grew || k+8 > len(ops) {
			w.checkSaves(after)
		}
	}
}

// check compares the two matrices after the call named by after: the same
// dims and count, the same rows stored, every stored row equal by bits and
// eager rows all current. Reading the rows may not change a lazy row's
// length: reads never store.
func (w *growthTwin) check(after string) {
	w.t.Helper()
	lz, eg := w.lazy.tm, w.eager.tm
	if lz.nx != eg.nx || lz.ny != eg.ny || lz.Observed() != eg.Observed() || len(lz.growths) != len(eg.growths) {
		w.t.Fatalf("after %s: lazy %dx%d, %d observed, %d growths; eager %dx%d, %d, %d",
			after, lz.nx, lz.ny, lz.Observed(), len(lz.growths), eg.nx, eg.ny, eg.Observed(), len(eg.growths))
	}
	lens := make([]int, lz.n)
	for i, r := range lz.rows {
		lens[i] = len(r)
	}
	for i := range lz.n {
		if (lz.rows[i] == nil) != (eg.rows[i] == nil) || (eg.rows[i] != nil && len(eg.rows[i]) != eg.n) {
			w.t.Fatalf("after %s: row %d stored lazily %v, eagerly %v with %d of %d entries",
				after, i, lz.rows[i] != nil, eg.rows[i] != nil, len(eg.rows[i]), eg.n)
		}
		if lz.rows[i] == nil {
			continue // both replay the prior through priorRow
		}
		if j := sameBits(lz.row(i), eg.rows[i]); j >= 0 {
			w.t.Fatalf("after %s: row %d entry %d: lazy %v, eager %v", after, i, j, lz.row(i)[j], eg.rows[i][j])
		}
	}
	w.sameLengths(after, lens)
}

// checkSaves compares the two models' checkpoints byte for byte; saving may
// not change a lazy row's length either.
func (w *growthTwin) checkSaves(after string) {
	w.t.Helper()
	lens := make([]int, w.lazy.tm.n)
	for i, r := range w.lazy.tm.rows {
		lens[i] = len(r)
	}
	var lsave, esave bytes.Buffer
	if err := w.lazy.Save(&lsave); err != nil {
		w.t.Fatal(err)
	}
	if err := w.eager.Save(&esave); err != nil {
		w.t.Fatal(err)
	}
	if !bytes.Equal(lsave.Bytes(), esave.Bytes()) {
		w.t.Fatalf("after %s: checkpoints differ (%d and %d bytes)", after, lsave.Len(), esave.Len())
	}
	w.sameLengths(after, lens)
}

// sameLengths fails the test unless every lazy row has the length lens
// recorded for it before a read.
func (w *growthTwin) sameLengths(after string, lens []int) {
	w.t.Helper()
	for i, r := range w.lazy.tm.rows {
		if len(r) != lens[i] {
			w.t.Fatalf("after %s: reading row %d re-laid it from %d to %d entries", after, i, lens[i], len(r))
		}
	}
}

// TestLazyGrowthMatchesEagerGrowth drives a lazily grown matrix and an
// eagerly grown shadow through the same seeded Observe, ObserveRun,
// ScoreObserve, Grow and read calls — growth on every side, low-side
// prepends that remap indices among them, several growths between two
// writes to a row — for both update rules and all three kernels. After
// every call each stored row agrees by Float64bits, and after every growth
// the checkpoints are byte-identical.
func TestLazyGrowthMatchesEagerGrowth(t *testing.T) {
	var caughtUp, deep, inPlace int
	for _, rule := range []UpdateRule{UpdateKernelBayes, UpdateDirichlet} {
		for _, kind := range []KernelKind{KernelHarmonic, KernelProduct, KernelUniform} {
			t.Run(rule.String()+"/"+kind.String(), func(t *testing.T) {
				w := newGrowthTwin(t, rule, kind)
				ops := make([]byte, 4*400)
				rand.New(rand.NewSource(int64(41*int(rule) + int(kind)))).Read(ops)
				w.run(ops)
				caughtUp, deep, inPlace = caughtUp+w.caughtUp, deep+w.deep, inPlace+w.inPlace
			})
		}
	}
	if deep == 0 || inPlace == 0 {
		t.Fatalf("%d stale rows caught up by a write, %d of them behind several growths and %d in place: the fixture misses a case", caughtUp, deep, inPlace)
	}
}

// FuzzMatrixGrowth drives growthTwin with arbitrary calls, four bytes
// each (see apply), up to 200 of them.
func FuzzMatrixGrowth(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{5, 0x11, 0, 0, 6, 0x44, 0, 0, 0, 3, 1, 0, 3, 7, 2, 5, 7, 4, 4, 0})
	f.Add(uint8(1), uint8(1), []byte{0, 1, 2, 0, 5, 0x05, 0, 0, 2, 1, 0, 3, 5, 0x50, 0, 0, 3, 1, 9, 6})
	f.Add(uint8(0), uint8(2), []byte{0, 0, 0, 0, 5, 0xaa, 0, 0, 5, 0xff, 0, 0, 7, 0, 0, 0, 4, 0, 5, 2})
	f.Fuzz(func(t *testing.T, rule, kind uint8, ops []byte) {
		w := newGrowthTwin(t, []UpdateRule{UpdateKernelBayes, UpdateDirichlet}[rule%2], []KernelKind{KernelHarmonic, KernelProduct, KernelUniform}[kind%3])
		w.run(ops[:min(len(ops), 4*200)])
	})
}

// armOnStaleRow grows m's grid past its high X edge, then steps the chain
// into a cell whose stored row was laid out before that growth, and returns
// the cell. m must be adaptive and hold stored rows.
func armOnStaleRow(t *testing.T, m *Model) int {
	t.Helper()
	g, cells := m.Grid(), m.NumCells()
	m.Step(mathx.Point2{X: g.X.Hi() + g.X.AvgWidth/2, Y: (g.Y.Lo() + g.Y.Hi()) / 2})
	if m.NumCells() == cells {
		t.Fatal("fixture: the grid did not grow")
	}
	tm := m.Matrix()
	for i, r := range tm.rows {
		if r != nil && len(r) != tm.n && i != m.prev {
			xlo, xhi, ylo, yhi := m.Grid().CellBounds(i)
			m.Step(mathx.Point2{X: (xlo + xhi) / 2, Y: (ylo + yhi) / 2})
			if m.prev != i || len(tm.rows[i]) == tm.n {
				t.Fatalf("fixture: the chain is on cell %d, not on the stale row %d", m.prev, i)
			}
			return i
		}
	}
	t.Fatal("fixture: no stored row is stale after the growth")
	return -1
}

// TestReadsLeaveStaleRowsStale: RowInto, Explain, Diagnostics and Save all
// read a row laid out before the latest growth, and each catches it up
// only in scratch: every stored row keeps its length.
func TestReadsLeaveStaleRowsStale(t *testing.T) {
	m, err := Train(corrStream(rand.New(rand.NewSource(24)), 400), Config{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	i := armOnStaleRow(t, m)
	tm := m.Matrix()
	lens := make([]int, tm.n)
	for k, r := range tm.rows {
		lens[k] = len(r)
	}
	if _, err := tm.RowInto(nil, i); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Explain(mathx.Point2{X: 50, Y: 100}, 3); !ok {
		t.Fatal("Explain: the chain is not armed")
	}
	m.Diagnostics()
	if err := m.Save(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for k, r := range tm.rows {
		if len(r) != lens[k] {
			t.Errorf("row %d went from %d to %d entries", k, lens[k], len(r))
		}
	}
}

// TestGrowAllocatesNoRows: Grow allocates the row index (24 bytes a cell)
// and the growth record, and no row: the same whether 132 rows are stored
// or none.
func TestGrowAllocatesNoRows(t *testing.T) {
	const runs = 32
	small, err := UniformGrid(0, 1, 12, 0, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := UniformGrid(0, 1, 12, 0, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := NewKernel(KernelHarmonic, 2, 12, 12) // covers the grown grid: Grow builds no table
	if err != nil {
		t.Fatal(err)
	}
	const n, growthRecord = 12 * 12, 32
	perGrow := func(stored int) (allocs float64, bytes uint64) {
		mats := make([]*TransitionMatrix, 2*(runs+1))
		for k := range mats {
			tm, err := NewTransitionMatrix(small, kernel, UpdateKernelBayes, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range stored {
				if err := tm.Observe(i, 5*i%tm.n); err != nil {
					t.Fatal(err)
				}
			}
			mats[k] = tm
		}
		next := 0
		grow := func() {
			if err := mats[next].Grow(grown, Growth{YLow: 1}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		allocs = testing.AllocsPerRun(runs, grow)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs + 1 {
			grow()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	// The allocator rounds the index up to its size class, by less than a
	// quarter; one re-laid row would add 8·n bytes.
	allocs, bytes := perGrow(12 * 11)
	if limit := uint64(24*n*5/4 + growthRecord); allocs > 2 || bytes > limit {
		t.Errorf("growing 132 stored rows: %v allocations, %d bytes; want at most 2 and %d", allocs, bytes, limit)
	}
	noneAllocs, noneBytes := perGrow(0)
	if noneAllocs != allocs || max(bytes, noneBytes)-min(bytes, noneBytes) > 64 {
		t.Errorf("growing 132 stored rows: %v allocations, %d bytes; growing none: %v, %d", allocs, bytes, noneAllocs, noneBytes)
	}
}
