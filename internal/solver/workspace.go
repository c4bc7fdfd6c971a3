package solver

import (
	"repro/internal/linalg"
)

// Workspace holds every reusable buffer of a barrier solve: the linalg
// factor scratch, the Newton-iteration vectors and Hessians, the arena
// backing composed log-sum-exp functions, and a cache of the equality
// elimination (particular solution, nullspace basis, composed box
// constraints). The pipeline solves hundreds of GPs per placement that
// share one equality system — identical extent-product and pin
// constraints — so the cache turns an O(N³) elimination plus 2N box
// compositions per solve into a content-equality check.
//
// The zero value is ready to use (NewWorkspace is provided for clarity).
// A Workspace is not safe for concurrent use: pool instances, one per
// in-flight solve. All returned Results hold freshly allocated memory;
// nothing a caller keeps aliases the workspace.
type Workspace struct {
	// Lin is the dense linear-algebra scratch (Cholesky factors,
	// nullspace elimination) shared by every solve on this workspace.
	Lin linalg.Workspace

	// Equality-elimination cache, keyed by problem dimension, equality
	// content, and box bound.
	eqValid   bool
	cachedN   int
	cachedBox float64
	cachedAeq *linalg.Dense // deep copy; nil means "no equalities"
	cachedBeq []float64
	yPart     []float64
	zBasis    *linalg.Dense
	boxComp   []LSE // box constraints composed against zBasis
	boxRaw    LSE   // one box constraint before composition
	ztz       *linalg.Dense
	ztzValid  bool

	// rawObj indexes the caller's objective while Solve evaluates the
	// reported objective value; it borrows the rows only for that call.
	rawObj LSE

	// Composed-function scratch: per-solve objective and inequality
	// headers whose row, offset and nonzero-column slices are reused at
	// high-water mark.
	objScratch  LSE
	ineqScratch []LSE
	ineqList    []LSE

	// Phase-I scratch: extended constraints (the slack floor last), the
	// objective row, and the extended iterate.
	extScratch []LSE
	phObjLSE   LSE
	phX        []float64

	// Newton scratch, sized to the largest dimension seen.
	g, gTmp, negG, dir, zTrial []float64
	h, hTmp                    *linalg.Dense
	evalU, evalP               []float64 // LSE evaluation scratch (max K)

	// Hint-projection and recovery scratch.
	hintD, hintRhs, hintSol, recTmp []float64
}

// NewWorkspace returns an empty workspace (equivalent to new(Workspace)).
func NewWorkspace() *Workspace { return &Workspace{} }

// growF resizes *v to n reusing capacity; contents are unspecified.
func growF(v *[]float64, n int) []float64 {
	if cap(*v) < n {
		*v = make([]float64, n)
	}
	*v = (*v)[:n]
	return *v
}

// growLSEs resizes *v to n, preserving existing element headers (whose
// row/offset slices are the reusable storage) rather than zeroing them.
func growLSEs(v *[]LSE, n int) []LSE {
	if cap(*v) < n {
		*v = append((*v)[:cap(*v)], make([]LSE, n-cap(*v))...)
	}
	*v = (*v)[:n]
	return *v
}

// growDense resizes *m to rows×cols reusing its backing array; contents
// are unspecified.
func growDense(m **linalg.Dense, rows, cols int) *linalg.Dense {
	n := rows * cols
	if *m == nil || cap((*m).Data) < n {
		*m = linalg.NewDense(rows, cols)
		return *m
	}
	(*m).Rows, (*m).Cols, (*m).Data = rows, cols, (*m).Data[:n]
	return *m
}

// composeInto writes f composed with the affine map y = y0 + Z·z into
// dst, reusing dst's row, offset and column-list storage. LSE.Compose
// is this with a fresh dst.
func composeInto(dst *LSE, f *LSE, y0 []float64, z *linalg.Dense) {
	k := len(f.B)
	if cap(dst.A) < k {
		dst.A = make([][]float64, k)
	}
	dst.A = dst.A[:k]
	dst.B = growF(&dst.B, k)
	for i := 0; i < k; i++ {
		row := growF(&dst.A[i], z.Cols)
		z.MulTransVec(f.A[i], row)
		dst.B[i] = f.B[i] + linalg.Dot(f.A[i], y0)
	}
	dst.index()
}

// linearInto builds the affine LSE a·y + b into dst, reusing dst's
// storage (a is copied). Numerically identical to Linear.
func linearInto(dst *LSE, a []float64, b float64) {
	if cap(dst.A) < 1 {
		dst.A = make([][]float64, 1)
	}
	dst.A = dst.A[:1]
	row := growF(&dst.A[0], len(a))
	copy(row, a)
	dst.A[0] = row
	dst.B = growF(&dst.B, 1)
	dst.B[0] = b
	dst.index()
}

// extendInto writes f over a space widened to newDim with coefficient
// coefLast on the final coordinate into dst, reusing dst's storage.
// LSE.ExtendDim is this with a fresh dst.
func extendInto(dst *LSE, f *LSE, newDim int, coefLast float64) {
	k := len(f.B)
	if cap(dst.A) < k {
		dst.A = make([][]float64, k)
	}
	dst.A = dst.A[:k]
	dst.B = growF(&dst.B, k)
	copy(dst.B, f.B)
	for i := 0; i < k; i++ {
		row := growF(&dst.A[i], newDim)
		nc := copy(row, f.A[i])
		for j := nc; j < newDim; j++ {
			row[j] = 0
		}
		row[newDim-1] = coefLast
		dst.A[i] = row
	}
	dst.index()
}

// value returns f(y) for a caller-supplied f. A literal LSE is indexed
// into workspace storage rather than allocating its column lists.
func (ws *Workspace) value(f *LSE, y []float64) float64 {
	if len(f.idx) > 0 {
		return f.Value(y)
	}
	ws.rawObj.A, ws.rawObj.B = f.A, f.B
	ws.rawObj.index()
	v := ws.rawObj.Value(y)
	ws.rawObj.A, ws.rawObj.B = nil, nil
	return v
}

// sameFloats reports exact element-wise equality.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//tlvet:ignore floateq -- cache key: exact content identity decides reuse; any difference must miss
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eliminate returns the equality elimination for p — the particular
// solution yPart, nullspace basis zBasis, and the box constraints
// |y_i| ≤ box composed against that basis — from cache when p carries
// the same equalities, dimension, and box bound as the previous solve.
// The returned slices are workspace-owned and must be treated read-only.
func (ws *Workspace) eliminate(p *Problem, box float64) (yPart []float64, zBasis *linalg.Dense, boxComp []LSE, err error) {
	hasEq := p.Aeq != nil && p.Aeq.Rows > 0
	if ws.eqValid && ws.cachedN == p.N && sameBox(ws.cachedBox, box) {
		switch {
		case !hasEq && ws.cachedAeq == nil:
			return ws.yPart, ws.zBasis, ws.boxComp, nil
		case hasEq && ws.cachedAeq != nil &&
			ws.cachedAeq.Rows == p.Aeq.Rows && ws.cachedAeq.Cols == p.Aeq.Cols &&
			sameFloats(ws.cachedAeq.Data, p.Aeq.Data) && sameFloats(ws.cachedBeq, p.Beq):
			return ws.yPart, ws.zBasis, ws.boxComp, nil
		}
	}
	ws.eqValid = false
	ws.ztzValid = false
	if hasEq {
		x0, z, serr := ws.Lin.SolveWithNullspaceInto(p.Aeq, p.Beq)
		if serr != nil {
			return nil, nil, nil, serr
		}
		ws.yPart = append(ws.yPart[:0], x0...)
		zb := growDense(&ws.zBasis, z.Rows, z.Cols)
		copy(zb.Data, z.Data)
		ca := growDense(&ws.cachedAeq, p.Aeq.Rows, p.Aeq.Cols)
		copy(ca.Data, p.Aeq.Data)
		ws.cachedBeq = append(ws.cachedBeq[:0], p.Beq...)
	} else {
		ws.yPart = growF(&ws.yPart, p.N)
		for i := range ws.yPart {
			ws.yPart[i] = 0
		}
		zb := growDense(&ws.zBasis, p.N, p.N)
		for i := range zb.Data {
			zb.Data[i] = 0
		}
		for i := 0; i < p.N; i++ {
			zb.Set(i, i, 1)
		}
		ws.cachedAeq = nil
	}
	// Compose the 2N box constraints ±y_i − box ≤ 0 once per cache fill;
	// every solve that hits the cache reuses them read-only.
	if box > 0 {
		ws.boxComp = growLSEs(&ws.boxComp, 2*p.N)
		unit := growF(&ws.hintD, p.N) // hintD is free until projectHint
		clear(unit)
		for i := 0; i < p.N; i++ {
			for s, sign := range [2]float64{1, -1} {
				unit[i] = sign
				linearInto(&ws.boxRaw, unit, -box)
				composeInto(&ws.boxComp[2*i+s], &ws.boxRaw, ws.yPart, ws.zBasis)
			}
			unit[i] = 0
		}
	} else {
		ws.boxComp = ws.boxComp[:0]
	}
	ws.cachedN = p.N
	ws.cachedBox = box
	ws.eqValid = true
	return ws.yPart, ws.zBasis, ws.boxComp, nil
}

// sameBox compares box bounds for cache keying.
func sameBox(a, b float64) bool {
	//tlvet:ignore floateq -- cache key: the box bound is a configuration constant, compared for identity
	return a == b
}
