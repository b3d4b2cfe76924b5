package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMatrix(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := NewMatrix(len(rows), len(rows[0]))
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %g", m.At(1, 2))
	}
	if _, err := NewMatrix(-1, 2); err == nil {
		t.Error("NewMatrix(-1, 2): want error")
	}
}

func TestMatrixMul(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	b := mustMatrix(t, [][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(mustMatrix(t, [][]float64{{1, 2, 3}})); err == nil {
		t.Error("Mul incompatible: want error")
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("MulVec incompatible: want error")
	}
}

func TestTranspose(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d", at.Rows(), at.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Errorf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestClone(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestSolveLinear(t *testing.T) {
	a := mustMatrix(t, [][]float64{{2, 1}, {1, 3}})
	x, err := SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !AlmostEqual(x[0], 1, 1e-9) || !AlmostEqual(x[1], 3, 1e-9) {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("singular system: want error")
	}
}

func TestSolveLinearNeedsPivot(t *testing.T) {
	// Zero in the leading position forces a row swap.
	a := mustMatrix(t, [][]float64{{0, 1}, {1, 0}})
	x, err := SolveLinear(a, []float64{2, 3})
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !AlmostEqual(x[0], 3, 1e-12) || !AlmostEqual(x[1], 2, 1e-12) {
		t.Errorf("solution = %v, want [3 2]", x)
	}
}

func TestSolveLinearDimErrors(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("non-square: want error")
	}
	sq := mustMatrix(t, [][]float64{{1, 0}, {0, 1}})
	if _, err := SolveLinear(sq, []float64{1}); err == nil {
		t.Error("rhs length mismatch: want error")
	}
}

// Property: for random well-conditioned systems, A·x reproduces b.
func TestSolveLinearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed uint8) bool {
		n := 1 + int(seed)%5
		a, _ := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		got, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if !AlmostEqual(got[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSym2(t *testing.T) {
	s := Sym2{XX: 2, XY: 0, YY: 8}
	if s.Det() != 16 {
		t.Errorf("Det = %g", s.Det())
	}
	inv, err := s.Inverse()
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	if !AlmostEqual(inv.XX, 0.5, 1e-12) || !AlmostEqual(inv.YY, 0.125, 1e-12) {
		t.Errorf("Inverse = %+v", inv)
	}
	if got := inv.Mahalanobis(2, 0); !AlmostEqual(got, 2, 1e-12) {
		t.Errorf("Mahalanobis = %g, want 2", got)
	}
	if _, err := (Sym2{}).Inverse(); err == nil {
		t.Error("singular Sym2: want error")
	}
}

func TestMatrixString(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}})
	if a.String() != "1 2\n" {
		t.Errorf("String = %q", a.String())
	}
}

func TestSym2MahalanobisCross(t *testing.T) {
	// Correlated covariance: check the cross term contributes.
	s := Sym2{XX: 1, XY: 0.5, YY: 1}
	inv, err := s.Inverse()
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	d := inv.Mahalanobis(1, 1)
	// For equicorrelated unit-variance pairs, distance along the main
	// diagonal is reduced relative to the independent case (2).
	if d >= 2 || math.IsNaN(d) {
		t.Errorf("Mahalanobis along correlation = %g, want < 2", d)
	}
}
