// Package linalg provides the small dense linear algebra kernels needed by
// the geometric-programming solver: vectors, row-major matrices, Cholesky
// factorization with adaptive diagonal regularization, and Gaussian
// elimination with partial pivoting for particular solutions and nullspace
// bases of underdetermined systems.
//
// Problem sizes in this repository are tiny (tens of variables), so the
// implementations favor clarity and numerical robustness over blocking or
// vectorization.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve meets a matrix
// that is singular to working precision.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrInconsistent is returned by SolveWithNullspace when the system
// A·x = b has no solution.
var ErrInconsistent = errors.New("linalg: inconsistent linear system")

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zero Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all have the same
// length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all entries to zero.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = A·x. y must have length Rows, x length Cols.
func (m *Dense) MulVec(x, y []float64) {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// MulTransVec computes y = Aᵀ·x. y must have length Cols, x length Rows.
func (m *Dense) MulTransVec(x, y []float64) {
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			y[j] += a * xi
		}
	}
}

// Mul returns A·B as a new matrix.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic("linalg: dimension mismatch in Mul")
	}
	r := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				r.Add(i, j, a*b.At(k, j))
			}
		}
	}
	return r
}

// CongruentTransform returns Zᵀ·H·Z for the symmetric matrix H; the result
// is the reduced Hessian used after equality elimination.
func CongruentTransform(z, h *Dense) *Dense {
	var ws Workspace
	return ws.CongruentTransformTo(NewDense(z.Cols, z.Cols), z, h)
}

// Cholesky factors the symmetric positive-definite matrix A in place into
// L (lower triangle) with A = L·Lᵀ. Returns ErrSingular when a pivot is
// not positive. Only the lower triangle of A is read: the strict upper
// triangle may hold anything, even NaN, and is overwritten with zeros.
func Cholesky(a *Dense) error {
	n := a.Rows
	if n != a.Cols {
		panic("linalg: Cholesky requires square matrix")
	}
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			l := a.At(j, k)
			d -= l * l
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrSingular
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	// Zero the strict upper triangle so the result is exactly L.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, 0)
		}
	}
	return nil
}

// CholSolve solves L·Lᵀ·x = b given the Cholesky factor L (as produced by
// Cholesky). b is overwritten with the solution.
func CholSolve(l *Dense, b []float64) {
	n := l.Rows
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * b[k]
		}
		b[i] = s / l.At(i, i)
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * b[k]
		}
		b[i] = s / l.At(i, i)
	}
}

// SolveSPD solves A·x = b for symmetric positive-definite A, adding
// an escalating diagonal regularization when the plain factorization
// fails (as happens near-singular Hessians during Newton iterations).
// Only the lower triangle of A is read. A and b are not modified; the
// solution is returned.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	x := make([]float64, a.Rows)
	var ws Workspace
	if err := ws.SolveSPDTo(x, a, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveWithNullspace solves the (possibly underdetermined, possibly
// redundant) system A·x = b by Gaussian elimination with partial
// pivoting. It returns a particular solution x0 and a matrix Z whose
// columns form a basis of the nullspace of A, so that every solution is
// x0 + Z·z. Returns ErrInconsistent when no solution exists.
func SolveWithNullspace(a *Dense, b []float64) (x0 []float64, z *Dense, err error) {
	var ws Workspace
	x0v, zv, err := ws.SolveWithNullspaceInto(a, b)
	if err != nil {
		return nil, nil, err
	}
	return append([]float64(nil), x0v...), zv.Clone(), nil
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AXPY computes y += alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}
