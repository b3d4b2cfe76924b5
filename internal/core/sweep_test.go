package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracle: the row passes the update path made before they were fused,
// written out as scalar loops over the formula.

// oracleAdd is AddLogRow (scaled false) or AddLogRowScaled as one scalar
// pass: each entry plus its log weight, the maximum from −∞.
func oracleAdd(k *Kernel, row []float64, xc, yc, nx, ny int, m float64, scaled bool) float64 {
	mx := math.Inf(-1)
	for j := range row {
		t := k.logWeightSlow(absInt(j/ny-xc), absInt(j%ny-yc))
		v := row[j] + t
		if scaled {
			v = row[j] + m*t
		}
		row[j] = v
		if v > mx {
			mx = v
		}
	}
	return mx
}

// oracleRank is RankInRow before its scan was split at h.
func oracleRank(row []float64, h int) int {
	rank := 1
	ph := row[h]
	for j, p := range row {
		if p > ph || (p == ph && j < h) {
			rank++
		}
	}
	return rank
}

func oracleRecenter(row []float64, mx float64) {
	for j := range row {
		row[j] -= mx
	}
}

// sweepCase is one row for the sweep to walk: an nx×ny grid under a kernel
// whose table may be wider, a centre, a shift and a scale.
type sweepCase struct {
	kind       KernelKind
	nx, ny     int
	tnx, tny   int // the kernel table's cover, ≥ nx, ny
	c          int
	shift, m   float64
	row        []float64
	shiftFirst bool // shift is the row's maximum after a scaled add at c
}

func (sc sweepCase) String() string {
	return fmt.Sprintf("%v %dx%d (table %dx%d) centre %d shift %v m %v", sc.kind, sc.nx, sc.ny, sc.tnx, sc.tny, sc.c, sc.shift, sc.m)
}

func sameBits(a, b []float64) int {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j
		}
	}
	return -1
}

// checkSweep runs one case through AddLogRow, AddLogRowScaled and the
// shifted sweep and compares each with the oracle by bits: every entry, the
// maximum, and the centre's rank.
func checkSweep(t *testing.T, sc sweepCase) {
	t.Helper()
	k := buildKernel(sc.kind, 2, sc.tnx, sc.tny)
	xc, yc := sc.c/sc.ny, sc.c%sc.ny

	for _, scaled := range []bool{false, true} {
		got, want := append([]float64(nil), sc.row...), append([]float64(nil), sc.row...)
		var gmx float64
		if scaled {
			gmx = k.AddLogRowScaled(got, xc, yc, sc.nx, sc.ny, sc.m)
		} else {
			gmx = k.AddLogRow(got, xc, yc, sc.nx, sc.ny)
		}
		wmx := oracleAdd(k, want, xc, yc, sc.nx, sc.ny, sc.m, scaled)
		if j := sameBits(got, want); j >= 0 || math.Float64bits(gmx) != math.Float64bits(wmx) {
			t.Fatalf("%v: scaled %v: entry %d or maximum differs: %v vs %v, max %v (%#x) vs %v (%#x)",
				sc, scaled, j, got, want, gmx, math.Float64bits(gmx), wmx, math.Float64bits(wmx))
		}
	}

	// The fused step: the run's re-centering, the rank and this transition's
	// update in one sweep, then the final re-centering.
	shift := sc.shift
	got, want := append([]float64(nil), sc.row...), append([]float64(nil), sc.row...)
	if sc.shiftFirst {
		shift = k.AddLogRowScaled(got, xc, yc, sc.nx, sc.ny, sc.m)
		oracleRecenter(want, oracleAdd(k, want, xc, yc, sc.nx, sc.ny, sc.m, true))
	} else {
		oracleRecenter(want, shift)
	}
	wrank := oracleRank(want, sc.c)
	if r := RankInRow(want, sc.c); r != wrank {
		t.Fatalf("%v: RankInRow %d, the unsplit scan %d", sc, r, wrank)
	}
	wmx := oracleAdd(k, want, xc, yc, sc.nx, sc.ny, 1, false)
	gmx, ahead := k.sweep(got, xc, yc, sc.nx, sc.ny, shift, 1)
	if j := sameBits(got, want); j >= 0 || math.Float64bits(gmx) != math.Float64bits(wmx) || ahead+1 != wrank {
		t.Fatalf("%v: sweep: entry %d differs (%v vs %v), max %v (%#x) vs %v (%#x), rank %d vs %d",
			sc, j, got, want, gmx, math.Float64bits(gmx), wmx, math.Float64bits(wmx), ahead+1, wrank)
	}
	oracleRecenter(got, gmx)
	oracleRecenter(want, wmx)
	if j := sameBits(got, want); j >= 0 {
		t.Fatalf("%v: re-centred entry %d: %v vs %v", sc, j, got[j], want[j])
	}
}

// palette holds values that tie, both zeros among them, so the rank's
// tie-break and the maximum's choice between +0 and −0 are exercised, and
// positive ones that cancel a log weight exactly (ln 2 and 2 ln 2 under the
// product kernel at w = 2, −log(2/3) under the harmonic one), so a zero can
// arise away from the centre.
var palette = [...]float64{0, math.Copysign(0, -1), -1, -1, -0.5, -3, -math.Ln2, -2 * math.Ln2, -1e-300, -7.25, math.Ln2, 2 * math.Ln2, -math.Log(2.0 / 3)}

// TestSweepMatchesScalarOracle: for all three kernels, grids with ny 1, 2,
// 3 and 5 (every tail of the four-wide loop) and nx ≠ ny, tables wider
// than the grid, every centre (the first and last cell included), rows of
// tied values holding both zero signs and rows of distinct ones, with no
// shift, a given shift and a run flush of one sample and of many, the
// sweep's entries, maximum and rank are the oracle's bit for bit.
func TestSweepMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, kind := range []KernelKind{KernelHarmonic, KernelProduct, KernelUniform} {
		for _, dims := range [][2]int{{1, 1}, {3, 1}, {2, 2}, {4, 3}, {3, 5}, {5, 2}, {6, 6}, {7, 5}} {
			nx, ny := dims[0], dims[1]
			for _, wider := range []int{0, 3} {
				for c := 0; c < nx*ny; c++ {
					for trial := 0; trial < 6; trial++ {
						row := make([]float64, nx*ny)
						for j := range row {
							if trial%2 == 0 {
								row[j] = palette[rng.Intn(len(palette))]
							} else {
								row[j] = -rng.ExpFloat64() * 5
							}
						}
						sc := sweepCase{kind: kind, nx: nx, ny: ny, tnx: nx + wider, tny: ny + wider + trial%2, c: c, row: row, m: 1}
						switch trial / 2 {
						case 1:
							sc.shift = row[rng.Intn(len(row))]
						case 2:
							sc.shiftFirst, sc.m = true, float64([]int{1, 1000003}[rng.Intn(2)])
						}
						checkSweep(t, sc)
					}
				}
			}
		}
	}
}

// TestSweepZeroSigns pins the maximum's choice between zeros: the product
// kernel's distance-0 weight is −0, so a row of zeros of both signs sums
// into +0s and −0s, and the first maximal entry in row order — what the
// scalar scan returns and what the re-centering then subtracts — is the
// answer, whichever sign it has. In the last rows a +0 made by ln 2 − ln 2
// precedes the centre's −0 + −0.
func TestSweepZeroSigns(t *testing.T) {
	neg := math.Copysign(0, -1)
	for _, kind := range []KernelKind{KernelProduct, KernelUniform, KernelHarmonic} {
		for _, row := range [][]float64{
			{neg, 0, neg, 0, -1, neg},
			{0, neg, 0, neg, neg, -1},
			{-1, -2, neg, -1, 0, 0},
			{neg, neg, neg, neg, neg, neg},
			{0, 0, 0, 0, 0, 0},
			{math.Ln2, neg, -1, -1, -1, -1},
			{-1, math.Ln2, -1, 2 * math.Ln2, neg, neg},
		} {
			for c := range row {
				for _, shift := range []float64{0, neg} {
					checkSweep(t, sweepCase{kind: kind, nx: 2, ny: 3, tnx: 2, tny: 3, c: c, row: row, m: 1, shift: shift})
					checkSweep(t, sweepCase{kind: kind, nx: 3, ny: 2, tnx: 4, tny: 4, c: c, row: row, m: 3, shiftFirst: true})
				}
			}
		}
	}
}

// TestScoreObserveMatchesSeparateCalls: on every rule and kernel, over a
// grid that grows, ScoreObserve(i, h, run, wantProb) leaves the matrix and
// returns what ObserveRun, then ScoreTransition or FitnessAt, then Observe
// do on a twin, bit for bit — unobserved rows, stored ones and runs of every
// length.
func TestScoreObserveMatchesSeparateCalls(t *testing.T) {
	for _, rule := range []UpdateRule{UpdateKernelBayes, UpdateDirichlet} {
		for _, kind := range []KernelKind{KernelHarmonic, KernelProduct, KernelUniform} {
			grid, err := UniformGrid(0, 1, 4, 0, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			kernel, err := NewKernel(kind, 2, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			fused, err := NewTransitionMatrix(grid, kernel, rule, 7)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewTransitionMatrix(grid, kernel, rule, 7)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(10*int(rule) + int(kind))))
			nx, ny := 4, 3
			for step := 0; step < 400; step++ {
				if step%50 == 49 {
					gr := [...]Growth{{XLow: 1}, {YHigh: 1}, {XHigh: 1, YLow: 1}}[step/50%3]
					nx, ny = nx+gr.XLow+gr.XHigh, ny+gr.YLow+gr.YHigh
					grid, _ = UniformGrid(0, 1, nx, 0, 1, ny)
					if err := fused.Grow(grid, gr); err != nil {
						t.Fatal(err)
					}
					if err := twin.Grow(grid, gr); err != nil {
						t.Fatal(err)
					}
				}
				n := fused.NumCells()
				i, h, run, wantProb := rng.Intn(n), rng.Intn(n), []int{0, 0, 1, 4, 250}[rng.Intn(5)], rng.Intn(2) == 0
				gp, gf, err := fused.ScoreObserve(i, h, run, wantProb)
				if err != nil {
					t.Fatal(err)
				}
				if err := twin.ObserveRun(i, run); err != nil {
					t.Fatal(err)
				}
				var wp, wf float64
				if wantProb {
					wp, wf, err = twin.ScoreTransition(i, h)
				} else {
					wf, err = twin.FitnessAt(i, h)
				}
				if err == nil {
					err = twin.Observe(i, h)
				}
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(gp) != math.Float64bits(wp) || gf != wf || fused.Observed() != twin.Observed() {
					t.Fatalf("%v/%v step %d (%d×%d then %d→%d): prob %v fitness %v observed %d; separately %v, %v, %d",
						rule, kind, step, run, i, i, h, gp, gf, fused.Observed(), wp, wf, twin.Observed())
				}
				for r := range n {
					if (fused.rows[r] == nil) != (twin.rows[r] == nil) {
						t.Fatalf("%v/%v step %d: row %d stored %v, separately %v", rule, kind, step, r, fused.rows[r] != nil, twin.rows[r] != nil)
					}
					if j := sameBits(fused.row(r), twin.row(r)); j >= 0 {
						t.Fatalf("%v/%v step %d: row %d entry %d: %v vs %v", rule, kind, step, r, j, fused.row(r)[j], twin.row(r)[j])
					}
				}
				gp, _ = fused.Prob(i, h)
				wp, _ = twin.Prob(i, h)
				if math.Float64bits(gp) != math.Float64bits(wp) {
					t.Fatalf("%v/%v step %d: P(%d→%d) = %v after ScoreObserve, %v separately: a stale normalizer", rule, kind, step, i, h, gp, wp)
				}
			}
		}
	}
	var tm TransitionMatrix
	tm.n = 4
	if _, _, err := tm.ScoreObserve(0, 1, -1, false); err == nil {
		t.Error("a negative run: want an error")
	}
}

// FuzzRowSweep drives checkSweep with arbitrary rows: a kernel, grid and
// table dims, a centre, a shift (none, a row entry, or a run flush of up to
// 65534 samples) and the entries, either from the tie palette or as raw
// float64s of magnitude at most 1e300, so every row stays finite.
func FuzzRowSweep(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint8(5), uint8(2), uint8(7), uint16(0), []byte{0, 1, 2, 3, 1, 0, 5, 9, 1, 1, 0, 4, 2, 0, 0})
	f.Add(uint8(2), uint8(4), uint8(2), uint8(0), uint8(0), uint16(3), []byte{1, 0, 0, 1, 1, 0, 1})
	f.Add(uint8(2), uint8(1), uint8(3), uint8(9), uint8(2), uint16(1), []byte{0, 1, 1, 0})
	f.Add(uint8(3), uint8(5), uint8(5), uint8(1), uint8(24), uint16(40000), []byte("\xff\x01\x02"))
	f.Add(uint8(0), uint8(2), uint8(3), uint8(4), uint8(5), uint16(2), []byte("raw float bits: \x00\x00\x00\x00\x00\x00\xf0\xbf and more"))
	f.Fuzz(func(t *testing.T, kind, nx, ny, wider, c uint8, run uint16, data []byte) {
		sc := sweepCase{
			kind: []KernelKind{KernelHarmonic, KernelProduct, KernelUniform}[kind%3],
			nx:   1 + int(nx%9), ny: 1 + int(ny%9), m: 1,
		}
		sc.tnx, sc.tny = sc.nx+int(wider%4), sc.ny+int(wider/4%4)
		n := sc.nx * sc.ny
		sc.c = int(c) % n
		sc.row = make([]float64, n)
		for j := range sc.row {
			switch {
			case len(data) == 0:
			case data[0]%2 == 0 && len(data) >= 8*(j+1)+1:
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*j:]))
				if !(math.Abs(v) <= 1e300) { // finite, and so is v − shift
					v = -float64(j)
				}
				sc.row[j] = v
			default:
				sc.row[j] = palette[int(data[(j+1)%len(data)])%len(palette)]
			}
		}
		switch {
		case run == 1:
			sc.shift = sc.row[int(c)%n]
		case run > 1:
			sc.shiftFirst, sc.m = true, float64(run-1)
		}
		checkSweep(t, sc)
	})
}
