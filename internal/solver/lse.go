// Package solver implements the convex backend used to solve the
// geometric programs generated by the Thistle reproduction. A geometric
// program in log-space is
//
//	minimize   f0(y)
//	subject to fi(y) ≤ 0        i = 1..m
//	           Aeq·y = beq
//
// where every f is a log-sum-exp function f(y) = log Σ_k exp(a_k·y + b_k).
// Equality constraints are eliminated by parameterizing the affine
// solution set (particular solution + nullspace basis); the reduced
// problem is solved with a standard two-phase log-barrier interior-point
// method. Its Newton steps work on sparse data: every exponent row keeps
// the list of its nonzero columns, so values, gradients and the rank-1
// Hessian terms cost O(nonzeros) rather than O(dimension), and only the
// lower triangle of the Hessian (all the Cholesky factorization reads)
// is assembled.
package solver

import (
	"math"

	"repro/internal/linalg"
)

// LSE is the function f(y) = log Σ_k exp(A_k·y + B_k). The special case
// of a single row is an affine function. LSE is convex, and closed under
// pre-composition with affine maps, which is how both the equality
// elimination and the phase-I slack variable are implemented.
//
// Evaluation visits only the nonzero coefficients of each row. Linear,
// Compose and ExtendDim record those columns once, so the rows of an LSE
// they return must not be modified afterwards. A literal LSE{A, B} (how
// package gp lowers posynomials) is indexed on each call to Value or
// Eval, which allocates; Solve indexes the functions it evaluates into
// its Workspace instead.
//
// Skipping a zero coefficient is exact: every sum starts at +0, and a
// sum that starts at +0 never becomes −0 under round-to-nearest, so
// adding the ±0 product of a zero coefficient changes no bit.
type LSE struct {
	A [][]float64 // K rows, each of the problem dimension
	B []float64   // K offsets

	// idx packs the nonzero columns: idx[k]..idx[k+1] delimit row k's
	// ascending column list, and idx[K] starts the ascending union of
	// all rows' columns, which runs to the end (see nz and cols).
	idx []int32
}

// Terms reports the number of exponential terms K.
func (f *LSE) Terms() int { return len(f.B) }

// Linear builds the affine LSE f(y) = a·y + b (a single-term LSE).
func Linear(a []float64, b float64) LSE {
	f := LSE{A: [][]float64{append([]float64(nil), a...)}, B: []float64{b}}
	f.index()
	return f
}

// index records the nonzero columns of every row and their union,
// reusing the storage f already holds (sized exactly on growth, since
// pooled workspaces keep every composed function's lists alive).
func (f *LSE) index() {
	k, n, nnz := len(f.A), 0, 0
	for _, row := range f.A {
		for _, a := range row {
			if a != 0 {
				nnz++
			}
		}
		n = max(n, len(row))
	}
	union := 0
	for j := 0; j < n; j++ {
		if f.anyNonzero(j) {
			union++
		}
	}
	if size := k + 1 + nnz + union; cap(f.idx) < size {
		f.idx = make([]int32, 0, size)
	}
	idx := f.idx[:k+1]
	for i, row := range f.A {
		idx[i] = int32(len(idx))
		for j, a := range row {
			if a != 0 {
				idx = append(idx, int32(j))
			}
		}
	}
	idx[k] = int32(len(idx))
	for j := 0; j < n; j++ {
		if f.anyNonzero(j) {
			idx = append(idx, int32(j))
		}
	}
	f.idx = idx
}

// anyNonzero reports whether some row has a nonzero in column j.
func (f *LSE) anyNonzero(j int) bool {
	for _, row := range f.A {
		if j < len(row) && row[j] != 0 {
			return true
		}
	}
	return false
}

// indexed returns f when its column lists are built, and an indexed
// copy of a literal LSE otherwise.
func (f *LSE) indexed() *LSE {
	if len(f.idx) > 0 {
		return f
	}
	g := LSE{A: f.A, B: f.B}
	g.index()
	return &g
}

// nz returns the nonzero columns of row k.
func (f *LSE) nz(k int) []int32 { return f.idx[f.idx[k]:f.idx[k+1]] }

// cols returns the columns where any row is nonzero.
func (f *LSE) cols() []int32 { return f.idx[f.idx[len(f.A)]:] }

// dot returns A_k·y over the nonzero columns of row k, in column order.
func (f *LSE) dot(k int, y []float64) float64 {
	a := f.A[k]
	s := 0.0
	for _, j := range f.nz(k) {
		s += a[j] * y[j]
	}
	return s
}

// Value returns f(y), computed with max-shifting for stability.
func (f *LSE) Value(y []float64) float64 {
	f = f.indexed()
	if len(f.B) == 1 {
		// Affine: f(y) = a·y + b exactly. The +0 replicates the general
		// path's maxU + log(1) so even the sign of a zero result matches.
		return f.dot(0, y) + f.B[0] + 0
	}
	maxU := math.Inf(-1)
	for k := range f.B {
		u := f.dot(k, y) + f.B[k]
		if u > maxU {
			maxU = u
		}
	}
	if math.IsInf(maxU, -1) {
		return math.Inf(-1) // empty sum: log 0
	}
	s := 0.0
	for k := range f.B {
		s += math.Exp(f.dot(k, y) + f.B[k] - maxU)
	}
	return maxU + math.Log(s)
}

// Eval returns f(y) and, when g or h are non-nil, fills them with the
// gradient and Hessian. g must have length dim(y); h must be dim×dim.
// g and h are overwritten, not accumulated; h is returned symmetric,
// its upper triangle a mirror of the lower.
func (f *LSE) Eval(y []float64, g []float64, h *linalg.Dense) float64 {
	f = f.indexed()
	if g == nil && h != nil {
		g = make([]float64, len(y))
	}
	if h != nil {
		h.Zero()
	}
	var val float64
	if k := len(f.B); k == 1 {
		val = f.evalAffine(y, g)
	} else {
		val = f.evalScratch(y, g, h, make([]float64, k), make([]float64, k))
	}
	if h != nil {
		for r := 0; r < h.Rows; r++ {
			for c := 0; c < r; c++ {
				h.Set(c, r, h.At(r, c))
			}
		}
	}
	return val
}

// evalAffine is Eval for a single-term f: the gradient is the row itself
// and the Hessian p·a·aᵀ − g·gᵀ is exactly zero. The value and gradient
// carry the same bits as the general path (maxU + log 1 and 0 + 1·a_j).
// g may be nil.
func (f *LSE) evalAffine(y []float64, g []float64) float64 {
	val := f.dot(0, y) + f.B[0] + 0
	if g != nil {
		for j := range g {
			g[j] = 0
		}
		a := f.A[0]
		for _, j := range f.nz(0) {
			g[j] = a[j]
		}
	}
	return val
}

// evalScratch is the multi-term body of Eval with caller-provided
// scratch for the shifted exponents (u) and softmax weights (p), both of
// length Terms(); the workspace-backed solve path uses it to keep
// steady-state constraint evaluation allocation-free. g is overwritten
// (it must be non-nil when h is). Of h it writes only the lower
// triangle of the cols() rows and columns; those entries must be zero
// on entry, and every other entry of the Hessian is zero.
func (f *LSE) evalScratch(y []float64, g []float64, h *linalg.Dense, u, p []float64) float64 {
	maxU := math.Inf(-1)
	for i := range f.B {
		u[i] = f.dot(i, y) + f.B[i]
		if u[i] > maxU {
			maxU = u[i]
		}
	}
	z := 0.0
	for i := range u {
		p[i] = math.Exp(u[i] - maxU)
		z += p[i]
	}
	val := maxU + math.Log(z)
	if g == nil {
		return val
	}
	for i := range p {
		p[i] /= z
	}
	for j := range g {
		g[j] = 0
	}
	for i := range p {
		if p[i] == 0 {
			continue
		}
		a := f.A[i]
		for _, j := range f.nz(i) {
			g[j] += p[i] * a[j]
		}
	}
	if h != nil {
		// H = Σ p_i a_i a_iᵀ − g gᵀ, lower triangle.
		n := h.Cols
		for i := range p {
			if p[i] == 0 {
				continue
			}
			a, nz := f.A[i], f.nz(i)
			for x, r := range nz {
				pr := p[i] * a[r]
				if pr == 0 {
					continue
				}
				row := h.Data[int(r)*n:]
				for _, c := range nz[:x+1] {
					row[c] += pr * a[c]
				}
			}
		}
		cols := f.cols()
		for x, r := range cols {
			gr := g[r]
			row := h.Data[int(r)*n:]
			for _, c := range cols[:x+1] {
				row[c] += -gr * g[c]
			}
		}
	}
	return val
}

// Compose returns g(z) = f(y0 + Z·z): an LSE over the reduced variable z.
func (f *LSE) Compose(y0 []float64, z *linalg.Dense) LSE {
	var out LSE
	composeInto(&out, f, y0, z)
	return out
}

// ExtendDim returns a copy of f over a space with extra appended
// coordinates, with coefficient coefLast on the final coordinate of the
// new space for every term. It is used to add the phase-I slack variable:
// f(y) − s = log Σ exp(a·y + b − s) remains an LSE.
func (f *LSE) ExtendDim(newDim int, coefLast float64) LSE {
	var out LSE
	extendInto(&out, f, newDim, coefLast)
	return out
}
