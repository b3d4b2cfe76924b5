package mathx

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular matrix")

// Matrix is a dense row-major matrix of float64.
// The zero value is an empty matrix; use NewMatrix to allocate.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a rows×cols matrix of zeros.
// It returns an error if either dimension is negative.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("new %dx%d matrix: %w", rows, cols, ErrDimensionMismatch)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at (i, j). Indices are not bounds-checked beyond
// the underlying slice access.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(c.data, m.data)
	return c
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("mul %dx%d by %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrDimensionMismatch)
	}
	out, err := NewMatrix(m.rows, b.cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m.rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += a * bk[j]
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("mulvec %dx%d by %d: %w", m.rows, m.cols, len(v), ErrDimensionMismatch)
	}
	out := make([]float64, m.rows)
	for i := range out {
		s, _ := Dot(m.Row(i), v)
		out[i] = s
	}
	return out, nil
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := &Matrix{rows: m.cols, cols: m.rows, data: make([]float64, len(m.data))}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.At(i, j)
		}
	}
	return t
}

// SolveLinear solves the square system a·x = b by Gaussian elimination with
// partial pivoting. a and b are not modified. It returns ErrSingular when a
// pivot falls below a small absolute tolerance.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("solve with %dx%d matrix: %w", a.rows, a.cols, ErrDimensionMismatch)
	}
	if len(b) != n {
		return nil, fmt.Errorf("solve %d equations with %d rhs values: %w", n, len(b), ErrDimensionMismatch)
	}
	// Work on an augmented copy.
	aug := make([][]float64, n)
	for i := 0; i < n; i++ {
		aug[i] = make([]float64, n+1)
		copy(aug[i], a.Row(i))
		aug[i][n] = b[i]
	}
	const tol = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude in col.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < tol {
			return nil, fmt.Errorf("pivot %d: %w", col, ErrSingular)
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := aug[r][col] / aug[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := aug[i][n]
		for j := i + 1; j < n; j++ {
			s -= aug[i][j] * x[j]
		}
		x[i] = s / aug[i][i]
	}
	return x, nil
}

// String renders the matrix for debugging, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Sym2 is a symmetric 2×2 matrix, used for covariance of 2-D data.
type Sym2 struct {
	XX, XY, YY float64
}

// Det returns the determinant of s.
func (s Sym2) Det() float64 { return s.XX*s.YY - s.XY*s.XY }

// Inverse returns the inverse of s, or ErrSingular if the determinant is
// too close to zero.
func (s Sym2) Inverse() (Sym2, error) {
	d := s.Det()
	if math.Abs(d) < 1e-18 {
		return Sym2{}, fmt.Errorf("2x2 inverse with det %g: %w", d, ErrSingular)
	}
	return Sym2{XX: s.YY / d, XY: -s.XY / d, YY: s.XX / d}, nil
}

// Mahalanobis returns (dx,dy)·s⁻¹·(dx,dy)ᵀ given the already-inverted
// matrix inv.
func (s Sym2) Mahalanobis(dx, dy float64) float64 {
	return s.XX*dx*dx + 2*s.XY*dx*dy + s.YY*dy*dy
}
