package linalg

import "math"

// Workspace holds reusable scratch buffers for the in-place variants of
// the package's factor-and-solve kernels. The barrier solver runs a
// Newton iteration hundreds of times per GP, and every iteration used to
// clone its Hessian (up to twelve times, once per regularization
// attempt) and allocate a fresh solution vector; with a Workspace the
// same factor buffer is reused for every attempt of every iteration.
//
// Buffers grow on demand and are retained at high-water mark, so a
// Workspace sized by its first few solves stops allocating entirely.
// The zero value is ready to use. A Workspace is not safe for concurrent
// use; pool instances instead of sharing one.
type Workspace struct {
	fact *Dense    // factorization scratch (SolveSPDTo, CholeskyInto)
	hz   *Dense    // H·Z intermediate (CongruentTransformTo)
	elim *Dense    // Gaussian-elimination working copy (SolveWithNullspaceInto)
	rhs  []float64 // elimination right-hand side
	x0   []float64 // particular solution (owned, returned as view)
	z    *Dense    // nullspace basis (owned, returned as view)
	pcol []int     // pivot column per eliminated row
	ispv []bool    // pivot-column marks
}

// dense resizes *m to rows×cols, reusing its backing array when large
// enough, and returns it. Contents are unspecified.
func (ws *Workspace) dense(m **Dense, rows, cols int) *Dense {
	n := rows * cols
	if *m == nil || cap((*m).Data) < n {
		*m = &Dense{Rows: rows, Cols: cols, Data: make([]float64, n)}
		return *m
	}
	(*m).Rows, (*m).Cols, (*m).Data = rows, cols, (*m).Data[:n]
	return *m
}

// vec resizes *v to n, reusing capacity. Contents are unspecified.
func (ws *Workspace) vec(v *[]float64, n int) []float64 {
	if cap(*v) < n {
		*v = make([]float64, n)
	}
	*v = (*v)[:n]
	return *v
}

// CholeskyInto factors the symmetric positive-definite a into dst (which
// must be a.Rows×a.Cols; dst == a factors in place) and behaves exactly
// like Cholesky otherwise.
func CholeskyInto(dst, a *Dense) error {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("linalg: CholeskyInto dimension mismatch")
	}
	if dst != a {
		copy(dst.Data, a.Data)
	}
	return Cholesky(dst)
}

// SolveSPDTo is SolveSPD writing the solution into dst (length a.Rows;
// dst may alias b). It performs the identical escalating-regularization
// attempts — the factor scratch lives in the workspace, so steady-state
// calls do not allocate. a and b are not modified. Only the lower
// triangle of a is read, so the solution's bits do not depend on its
// strict upper triangle, which may hold anything, even NaN; the barrier
// solver assembles its Hessians in the lower triangle alone.
func (ws *Workspace) SolveSPDTo(dst []float64, a *Dense, b []float64) error {
	n := a.Rows
	if len(dst) != n || len(b) != n {
		panic("linalg: SolveSPDTo dimension mismatch")
	}
	reg := 0.0
	maxDiag := 1e-12
	for i := 0; i < n; i++ {
		if d := math.Abs(a.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	l := ws.dense(&ws.fact, n, n)
	for attempt := 0; attempt < 12; attempt++ {
		copy(l.Data, a.Data)
		if reg > 0 {
			for i := 0; i < n; i++ {
				l.Add(i, i, reg)
			}
		}
		if err := Cholesky(l); err == nil {
			copy(dst, b)
			CholSolve(l, dst)
			ok := true
			for _, v := range dst {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					ok = false
					break
				}
			}
			if ok {
				return nil
			}
		}
		if reg == 0 {
			reg = 1e-10 * maxDiag
		} else {
			reg *= 100
		}
	}
	return ErrSingular
}

// CongruentTransformTo computes Zᵀ·H·Z into dst (which is resized to
// z.Cols×z.Cols and returned), using workspace scratch for the H·Z
// intermediate. dst must not alias z or h.
func (ws *Workspace) CongruentTransformTo(dst *Dense, z, h *Dense) *Dense {
	if h.Cols != z.Rows {
		panic("linalg: dimension mismatch in CongruentTransformTo")
	}
	hz := ws.dense(&ws.hz, h.Rows, z.Cols)
	for i := range hz.Data {
		hz.Data[i] = 0
	}
	for i := 0; i < h.Rows; i++ {
		for k := 0; k < h.Cols; k++ {
			a := h.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < z.Cols; j++ {
				hz.Add(i, j, a*z.At(k, j))
			}
		}
	}
	if dst.Rows != z.Cols || dst.Cols != z.Cols {
		panic("linalg: CongruentTransformTo dst dimension mismatch")
	}
	for i := 0; i < z.Cols; i++ {
		for j := 0; j < z.Cols; j++ {
			s := 0.0
			for k := 0; k < z.Rows; k++ {
				s += z.At(k, i) * hz.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// SolveWithNullspaceInto is SolveWithNullspace returning workspace-owned
// results: x0 and z are views into the workspace and remain valid only
// until the next SolveWithNullspaceInto call. Callers that outlive that
// window (or share results across goroutines) must deep-copy. a and b
// are not modified.
func (ws *Workspace) SolveWithNullspaceInto(a *Dense, b []float64) (x0 []float64, z *Dense, err error) {
	m, n := a.Rows, a.Cols
	w := ws.dense(&ws.elim, m, n)
	copy(w.Data, a.Data)
	rhs := ws.vec(&ws.rhs, m)
	copy(rhs, b)

	const tol = 1e-11
	if cap(ws.pcol) < n {
		ws.pcol = make([]int, 0, n)
	}
	pivotCol := ws.pcol[:0]
	isPivot := ws.ispv
	if cap(isPivot) < n {
		isPivot = make([]bool, n)
		ws.ispv = isPivot
	}
	isPivot = isPivot[:n]
	for i := range isPivot {
		isPivot[i] = false
	}
	row := 0
	for col := 0; col < n && row < m; col++ {
		best, bestAbs := -1, tol
		for i := row; i < m; i++ {
			if ab := math.Abs(w.At(i, col)); ab > bestAbs {
				best, bestAbs = i, ab
			}
		}
		if best < 0 {
			continue
		}
		if best != row {
			for j := 0; j < n; j++ {
				w.Data[row*n+j], w.Data[best*n+j] = w.Data[best*n+j], w.Data[row*n+j]
			}
			rhs[row], rhs[best] = rhs[best], rhs[row]
		}
		p := w.At(row, col)
		for i := 0; i < m; i++ {
			if i == row {
				continue
			}
			f := w.At(i, col) / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				w.Add(i, j, -f*w.At(row, j))
			}
			rhs[i] -= f * rhs[row]
		}
		pivotCol = append(pivotCol, col)
		isPivot[col] = true
		row++
	}
	ws.pcol = pivotCol
	scale := 1.0
	for _, v := range b {
		if ab := math.Abs(v); ab > scale {
			scale = ab
		}
	}
	for i := row; i < m; i++ {
		if math.Abs(rhs[i]) > 1e-8*scale {
			return nil, nil, ErrInconsistent
		}
	}
	x0 = ws.vec(&ws.x0, n)
	for i := range x0 {
		x0[i] = 0
	}
	for r, c := range pivotCol {
		x0[c] = rhs[r] / w.At(r, c)
	}
	nFree := n - len(pivotCol)
	z = ws.dense(&ws.z, n, nFree)
	for i := range z.Data {
		z.Data[i] = 0
	}
	fc := 0
	for col := 0; col < n; col++ {
		if isPivot[col] {
			continue
		}
		z.Set(col, fc, 1)
		for r, c := range pivotCol {
			z.Set(c, fc, -w.At(r, col)/w.At(r, c))
		}
		fc++
	}
	return x0, z, nil
}
