package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseMatrix is the TransitionMatrix this package had before rows became
// sparse — every one of the n² weights held, every row seeded with the
// prior at construction and re-extrapolated on every growth — kept here,
// arithmetic untouched, as the reference the sparse matrix must match bit
// for bit.
type denseMatrix struct {
	nx, ny, n int
	kernel    *Kernel
	rule      UpdateRule
	strength  float64
	weights   []float64
	observed  int
}

func newDenseMatrix(nx, ny int, kernel *Kernel, rule UpdateRule, strength float64) *denseMatrix {
	d := &denseMatrix{nx: nx, ny: ny, n: nx * ny, kernel: kernel.covering(nx, ny), rule: rule, strength: strength}
	d.weights = make([]float64, d.n*d.n)
	for i := 0; i < d.n; i++ {
		d.initPriorRow(d.row(i), i)
	}
	return d
}

func (d *denseMatrix) row(i int) []float64 { return d.weights[i*d.n : (i+1)*d.n] }

func (d *denseMatrix) coords(c int) (int, int) { return c / d.ny, c % d.ny }

func (d *denseMatrix) initPriorRow(dst []float64, i int) {
	xi, yi := d.coords(i)
	if d.rule == UpdateKernelBayes {
		d.kernel.FillLogRow(dst, xi, yi, d.nx, d.ny)
		return
	}
	var sum float64
	for j := range dst {
		xj, yj := d.coords(j)
		dst[j] = d.kernel.Weight(xi-xj, yi-yj)
		sum += dst[j]
	}
	for j := range dst {
		dst[j] *= d.strength / sum
	}
}

func (d *denseMatrix) observe(i, h int) {
	d.observed++
	row := d.row(i)
	if d.rule == UpdateDirichlet {
		row[h]++
		return
	}
	xh, yh := d.coords(h)
	mx := d.kernel.AddLogRow(row, xh, yh, d.nx, d.ny)
	for j := range row {
		row[j] -= mx
	}
}

func (d *denseMatrix) observeRun(c, count int) {
	if count <= 0 {
		return
	}
	d.observed += count
	row := d.row(c)
	if d.rule == UpdateDirichlet {
		row[c] += float64(count)
		return
	}
	xc, yc := d.coords(c)
	mx := d.kernel.AddLogRowScaled(row, xc, yc, d.nx, d.ny, float64(count))
	for j := range row {
		row[j] -= mx
	}
}

func (d *denseMatrix) grow(gr Growth) {
	nx := d.nx + gr.XLow + gr.XHigh
	ny := d.ny + gr.YLow + gr.YHigh
	d.kernel = d.kernel.covering(nx, ny)
	old := d.weights
	oldNx, oldNy, oldN := d.nx, d.ny, d.n
	d.nx, d.ny, d.n = nx, ny, nx*ny
	d.weights = make([]float64, d.n*d.n)
	penalty := d.kernel.StepPenalty()
	for i := 0; i < d.n; i++ {
		xi, yi := d.coords(i)
		oxi, oyi := xi-gr.XLow, yi-gr.YLow
		dst := d.row(i)
		if oxi < 0 || oxi >= oldNx || oyi < 0 || oyi >= oldNy {
			d.initPriorRow(dst, i)
			continue
		}
		src := old[(oxi*oldNy+oyi)*oldN : (oxi*oldNy+oyi+1)*oldN]
		for j := 0; j < d.n; j++ {
			xj, yj := d.coords(j)
			oxj, oyj := xj-gr.XLow, yj-gr.YLow
			cxj := clampInt(oxj, 0, oldNx-1)
			cyj := clampInt(oyj, 0, oldNy-1)
			extra := absInt(oxj-cxj) + absInt(oyj-cyj)
			v := src[cxj*oldNy+cyj]
			if d.rule == UpdateKernelBayes {
				dst[j] = v - float64(extra)*penalty
			} else {
				dst[j] = v * math.Exp(-float64(extra)*penalty)
			}
		}
	}
}

// sparseUnderTest pairs a sparse matrix with its dense reference and with
// the set of cells a transition has been observed out of, which is what
// the sparse matrix must store — no more, no fewer.
type sparseUnderTest struct {
	t      *testing.T
	tm     *TransitionMatrix
	ref    *denseMatrix
	source []bool
}

// check compares all n rows by bits and the stored set with source.
func (s *sparseUnderTest) check(after string) {
	s.t.Helper()
	if s.tm.nx != s.ref.nx || s.tm.ny != s.ref.ny || s.tm.Observed() != s.ref.observed {
		s.t.Fatalf("after %s: sparse is %dx%d with %d observed, dense %dx%d with %d",
			after, s.tm.nx, s.tm.ny, s.tm.Observed(), s.ref.nx, s.ref.ny, s.ref.observed)
	}
	for i := 0; i < s.ref.n; i++ {
		if stored := s.tm.rows[i] != nil; stored != s.source[i] {
			s.t.Fatalf("after %s: row %d stored=%v, but source of an observed transition=%v", after, i, stored, s.source[i])
		}
		got, want := s.tm.row(i), s.ref.row(i)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				s.t.Fatalf("after %s (%d growths): row %d col %d: sparse %v (%#x), dense %v (%#x)",
					after, len(s.tm.growths), i, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// step applies one random operation to both matrices and returns its name.
func (s *sparseUnderTest) step(rng *rand.Rand, grow bool) string {
	n := s.ref.n
	switch op := rng.Intn(4); {
	case grow:
		var gr Growth
		for !gr.Grew() { // any subset of the four sides, by one or two
			gr = Growth{XLow: rng.Intn(3) * rng.Intn(2), XHigh: rng.Intn(3) * rng.Intn(2), YLow: rng.Intn(3) * rng.Intn(2), YHigh: rng.Intn(3) * rng.Intn(2)}
		}
		if s.ref.n > 150 { // keep n² affordable: one interval on one side
			gr = [...]Growth{{XLow: 1}, {XHigh: 1}, {YLow: 1}, {YHigh: 1}}[rng.Intn(4)]
		}
		grid, err := UniformGrid(0, 1, s.ref.nx+gr.XLow+gr.XHigh, 0, 1, s.ref.ny+gr.YLow+gr.YHigh)
		if err != nil {
			s.t.Fatal(err)
		}
		oldNy := s.ref.ny
		if err := s.tm.Grow(grid, gr); err != nil {
			s.t.Fatal(err)
		}
		s.ref.grow(gr)
		source := make([]bool, s.ref.n)
		for i, was := range s.source {
			source[(i/oldNy+gr.XLow)*s.ref.ny+i%oldNy+gr.YLow] = was
		}
		s.source = source
		return fmt.Sprintf("grow %+v", gr)
	case op == 0:
		c, count := rng.Intn(n), rng.Intn(6)
		if err := s.tm.ObserveRun(c, count); err != nil {
			s.t.Fatal(err)
		}
		s.ref.observeRun(c, count)
		s.source[c] = s.source[c] || count > 0
		return fmt.Sprintf("run %d×%d", c, count)
	case op == 1:
		// Read-only calls: check() then proves they stored nothing.
		i, h := rng.Intn(n), rng.Intn(n)
		_, _, err := s.tm.ScoreTransition(i, h)
		if err == nil {
			_, err = s.tm.FitnessAt(rng.Intn(n), h)
		}
		if err == nil {
			_, err = s.tm.Prob(rng.Intn(n), h)
		}
		if err == nil {
			_, err = s.tm.RowInto(nil, rng.Intn(n))
		}
		if err != nil {
			s.t.Fatal(err)
		}
		return "reads"
	default:
		i, h := rng.Intn(n), rng.Intn(n)
		if err := s.tm.Observe(i, h); err != nil {
			s.t.Fatal(err)
		}
		s.ref.observe(i, h)
		s.source[i] = true
		return fmt.Sprintf("observe %d→%d", i, h)
	}
}

// TestSparseMatchesDenseReference drives the sparse matrix and the dense
// reference with the same seeded sequence of observations, coalesced runs,
// growths on every side and read-only calls, for both update rules and all
// three kernels. After every operation all n rows agree by Float64bits and
// the stored rows are exactly the sources of observed transitions; halfway,
// the matrix goes through Save → Load → Save, which must be byte-identical,
// and the loaded copy carries on against the same reference.
func TestSparseMatchesDenseReference(t *testing.T) {
	for _, rule := range []UpdateRule{UpdateKernelBayes, UpdateDirichlet} {
		for _, kind := range []KernelKind{KernelHarmonic, KernelProduct, KernelUniform} {
			t.Run(rule.String()+"/"+kind.String(), func(t *testing.T) {
				cfg := Config{Kernel: kind, UpdateRule: rule, DirichletStrength: 7}.withDefaults()
				grid, err := UniformGrid(0, 1, 3, 0, 1, 2)
				if err != nil {
					t.Fatal(err)
				}
				model, err := NewModelFromGrid(grid, cfg)
				if err != nil {
					t.Fatal(err)
				}
				refKernel, err := NewKernel(kind, cfg.DecayW, 3, 2)
				if err != nil {
					t.Fatal(err)
				}
				s := &sparseUnderTest{t: t, tm: model.tm, ref: newDenseMatrix(3, 2, refKernel, rule, 7), source: make([]bool, 6)}
				s.check("construction")

				rng := rand.New(rand.NewSource(int64(31*int(rule) + int(kind))))
				const ops, growEvery = 168, 7 // 24 growths
				for k := 1; k <= ops; k++ {
					s.check(s.step(rng, k%growEvery == 0))
					if k != ops/2 {
						continue
					}
					model.grid, err = UniformGrid(0, 1, s.ref.nx, 0, 1, s.ref.ny)
					if err != nil {
						t.Fatal(err)
					}
					var first, second bytes.Buffer
					if err := model.Save(&first); err != nil {
						t.Fatal(err)
					}
					saved := bytes.Clone(first.Bytes())
					loaded, err := LoadModel(&first)
					if err != nil {
						t.Fatal(err)
					}
					if first.Len() != 0 {
						t.Fatalf("LoadModel left %d bytes unread", first.Len())
					}
					if err := loaded.Save(&second); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(saved, second.Bytes()) {
						t.Fatalf("Save → Load → Save is not byte-identical (%d bytes, then %d)", len(saved), second.Len())
					}
					model, s.tm = loaded, loaded.tm
					s.check("load")
					if want := 8 * s.ref.n * s.tm.ObservedRows(); len(saved) < want || len(saved) > want+want/4+1024 {
						t.Fatalf("saved %d bytes for %d stored rows of %d cells (%d bytes of weights)", len(saved), s.tm.ObservedRows(), s.ref.n, want)
					}
				}
				if len(s.tm.growths) < 20 {
					t.Fatalf("only %d growths exercised", len(s.tm.growths))
				}
			})
		}
	}
}
