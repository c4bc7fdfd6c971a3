package model

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/expr"
)

// Choices lists the candidate tilings of one iterator for Tabulate:
// Trips[c][l] is choice c's trip count at level l of the nest.
type Choices struct {
	Iter  int
	Trips [][]int64
}

// Table evaluates mappings that share one permutation choice and differ
// only in the tiling of a few iterators, each drawn from a short list of
// choices. This is the shape of the integerization search, which walks
// the cross product of per-iterator divisor ladders. Every factor of the
// traffic and footprint products depends on the trips of the iterators
// whose variables it references, so Tabulate evaluates each factor once
// per combination of those iterators' choices (one iterator for most
// factors, two for a convolution input extent over two tiled
// iterators). A candidate then costs a table lookup per factor instead
// of a walk of the symbolic volumes.
//
// Results are bit-identical to Evaluator.Evaluate on the same mapping:
// each table entry is the same expr.Poly.Eval, the products multiply the
// entries in the original factor order, the sums add the products in
// the original tensor order, and both paths end in the same report
// formulas.
//
// Set selects a choice per dimension (a dimension is one entry of the
// Choices passed to Tabulate); the other methods describe the current
// selection. A Table is not safe for concurrent use.
type Table struct {
	base *Mapping // perms, and the trips of the untabulated iterators
	dims []Choices
	ops  int64

	sel []int
	// pesPre[d] and okPre[d] fold the PEs used and the trip checks of
	// the untabulated iterators and of dimensions below d.
	pesPre []int64
	okPre  []bool

	// Per-choice facts, packed: choice c of dimension d is at
	// choiceOff[d]+c.
	choiceOff []int
	choiceOK  []bool
	choicePEs []int64

	vals    []float64 // the factor tables, packed; identical factors share one
	facs    []factor  // every factor of the four sums, in evaluation order
	deps    []dep     // the dimensions each table is indexed by, packed
	cur     []float64 // each factor's value under the current selection
	refresh []int32   // factors by the last dimension they depend on
	refOff  []int     // refresh[refOff[d]:refOff[d+1]] depend last on d
	prodEnd []int     // end of each product's factors in facs
	sumEnd  [numSums]int

	stale int   // factors depending on dimensions ≥ stale are out of date
	have  uint8 // bit s set: sums[s] is current
	sums  [numSums]float64
}

// The four sums of a report, footprints first so that a candidate over
// capacity costs no traffic evaluation.
const (
	sumRegFoot = iota
	sumSRAMFoot
	sumTrafficSR
	sumTrafficDS
	numSums
)

type factor struct {
	off    int32 // start of the factor's table in vals
	lo, hi int32 // the factor's dependencies, deps[lo:hi]
}

// dep is one dimension a factor's table is indexed by (mixed radix: the
// last dependency varies fastest).
type dep struct {
	dim    int32
	stride int32
}

// Tabulate builds the table for one permutation choice. dims lists the
// tabulated iterators (each at most once) with their choices; every
// other iterator keeps its UniformMapping trips. The table's first
// selection is choice 0 of every dimension.
func (e *Evaluator) Tabulate(perms [][]int, dims []Choices) (*Table, error) {
	v, err := e.volumes(perms)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMapping, err)
	}
	if err := checkBoundaries(v); err != nil {
		return nil, err
	}
	n := e.Nest
	base := UniformMapping(n)
	base.Perms = make([][]int, len(perms))
	for i, p := range perms {
		if p != nil {
			base.Perms[i] = append([]int(nil), p...)
		}
	}
	t := &Table{
		base:   base,
		dims:   dims,
		ops:    n.Prob.Ops(),
		sel:    make([]int, len(dims)),
		pesPre: make([]int64, len(dims)+1),
		okPre:  make([]bool, len(dims)+1),
	}

	dimOf := make([]int, len(n.Prob.Iters))
	for it := range dimOf {
		dimOf[it] = -1
	}
	for d, ch := range dims {
		if ch.Iter < 0 || ch.Iter >= len(dimOf) || dimOf[ch.Iter] >= 0 {
			return nil, fmt.Errorf("%w: bad or repeated tabulated iterator %d", ErrBadMapping, ch.Iter)
		}
		if len(ch.Trips) == 0 {
			return nil, fmt.Errorf("%w: iterator %d has no choices", ErrBadMapping, ch.Iter)
		}
		dimOf[ch.Iter] = d
	}
	t.pesPre[0], t.okPre[0] = 1, true
	for it := range n.Prob.Iters {
		if dimOf[it] < 0 {
			t.pesPre[0] *= spatialTrips(n, base.Trips, it)
			t.okPre[0] = t.okPre[0] && n.CheckIter(base.Trips, it) == nil
		}
	}

	// Per-choice checks, PEs and variable values. choiceX[varOff[d] +
	// c·len(vars[d]) + k] is the value of dimension d's k-th variable
	// under choice c, as AssignmentInto would set it.
	x := n.Assignment(n.Vars.Len(), base.Trips)
	vars := make([][]expr.VarID, len(dims))
	varOff := make([]int, len(dims))
	nx := 0
	t.choiceOff = make([]int, len(dims)+1)
	for d, ch := range dims {
		t.choiceOff[d+1] = t.choiceOff[d] + len(ch.Trips)
		vars[d] = n.DimTripVars(ch.Iter)
		varOff[d] = nx
		nx += len(ch.Trips) * len(vars[d])
	}
	choiceX := make([]float64, 0, nx)
	t.choiceOK = make([]bool, t.choiceOff[len(dims)])
	t.choicePEs = make([]int64, len(t.choiceOK))
	col := make([]int64, len(n.Levels))
	for d, ch := range dims {
		it := ch.Iter
		for li := range col {
			col[li] = base.Trips[li][it]
		}
		for c, tr := range ch.Trips {
			if len(tr) != len(n.Levels) {
				return nil, fmt.Errorf("%w: choice %d of iterator %d has %d levels, want %d",
					ErrBadMapping, c, it, len(tr), len(n.Levels))
			}
			for li := range tr {
				base.Trips[li][it] = tr[li]
			}
			k := t.choiceOff[d] + c
			t.choiceOK[k] = n.CheckIter(base.Trips, it) == nil
			t.choicePEs[k] = spatialTrips(n, base.Trips, it)
			n.AssignIter(x, it, base.Trips)
			for _, v := range vars[d] {
				choiceX = append(choiceX, x[v])
			}
		}
		for li := range col {
			base.Trips[li][it] = col[li]
		}
		n.AssignIter(x, it, base.Trips)
	}
	setX := func(d, c int) {
		vals := choiceX[varOff[d]+c*len(vars[d]):]
		for k, v := range vars[d] {
			x[v] = vals[k]
		}
	}

	// Factor tables, in the order the report sums them. Pass 1 lays out
	// every factor; a factor identical to an earlier one shares its
	// table. Pass 2 fills the tables.
	sums := [numSums][]expr.Product{
		sumRegFoot:   v.Footprint[0],
		sumSRAMFoot:  v.Footprint[1],
		sumTrafficSR: v.Traffic[0],
		sumTrafficDS: v.Traffic[1],
	}
	nfac, nprod := 0, 0
	for _, prods := range sums {
		nprod += len(prods)
		for _, pr := range prods {
			nfac += len(pr.Factors)
		}
	}
	t.facs = make([]factor, 0, nfac)
	t.prodEnd = make([]int, 0, nprod)
	var (
		ds, idx    []int
		distinct   []expr.Poly
		layout     []factor
		ndep, nval int
	)
	for s, prods := range sums {
		for _, pr := range prods {
			for _, f := range pr.Factors {
				k := slices.IndexFunc(distinct, f.Identical)
				if k < 0 {
					ds = factorDims(ds[:0], f, n, dimOf)
					size := 1
					for _, d := range ds {
						size *= len(dims[d].Trips)
					}
					k = len(distinct)
					distinct = append(distinct, f)
					layout = append(layout, factor{off: int32(nval), lo: int32(ndep), hi: int32(ndep + len(ds))})
					nval += size
					ndep += len(ds)
				}
				t.facs = append(t.facs, layout[k])
			}
			t.prodEnd = append(t.prodEnd, len(t.facs))
		}
		t.sumEnd[s] = len(t.prodEnd)
	}
	t.vals = make([]float64, 0, nval)
	t.deps = make([]dep, ndep)
	for k, f := range distinct {
		ds = factorDims(ds[:0], f, n, dimOf)
		stride := 1
		for i := len(ds) - 1; i >= 0; i-- {
			t.deps[int(layout[k].lo)+i] = dep{dim: int32(ds[i]), stride: int32(stride)}
			stride *= len(dims[ds[i]].Trips)
		}
		// Enumerate the dependencies' choices in index order (mixed
		// radix, last dependency fastest).
		idx = append(idx[:0], make([]int, len(ds))...)
		for _, d := range ds {
			setX(d, 0)
		}
		for {
			t.vals = append(t.vals, f.Eval(x))
			i := len(ds) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(dims[ds[i]].Trips) {
					setX(ds[i], idx[i])
					break
				}
				idx[i] = 0
				setX(ds[i], 0)
			}
			if i < 0 {
				break
			}
		}
	}

	// Each factor is refreshed when the last dimension it depends on is
	// set (a counting sort of the factors by that dimension).
	t.refOff = make([]int, len(dims)+1)
	for _, fc := range t.facs {
		if fc.hi > fc.lo {
			t.refOff[t.deps[fc.hi-1].dim+1]++
		}
	}
	for d := range dims {
		t.refOff[d+1] += t.refOff[d]
	}
	t.refresh = make([]int32, t.refOff[len(dims)])
	next := append([]int(nil), t.refOff[:len(dims)]...)
	t.cur = make([]float64, len(t.facs))
	for f, fc := range t.facs {
		t.cur[f] = t.vals[fc.off]
		if fc.hi > fc.lo {
			d := t.deps[fc.hi-1].dim
			t.refresh[next[d]] = int32(f)
			next[d]++
		}
	}
	t.Select(t.sel)
	return t, nil
}

// factorDims appends to dst, ascending, the dimensions whose iterator
// owns a variable of f.
func factorDims(dst []int, f expr.Poly, n *dataflow.Nest, dimOf []int) []int {
	for _, m := range f {
		for _, term := range m.Terms {
			it := n.IterOfVar(term.Var)
			if it < 0 || dimOf[it] < 0 {
				continue
			}
			d := dimOf[it]
			i := 0
			for i < len(dst) && dst[i] < d {
				i++
			}
			if i < len(dst) && dst[i] == d {
				continue
			}
			dst = append(dst, 0)
			copy(dst[i+1:], dst[i:])
			dst[i] = d
		}
	}
	return dst
}

// Set selects choice c for dimension d. Dimensions must be set in
// order: setting d leaves the dimensions above it stale until they are
// set again, as a depth-first walk of the cross product does. Set only
// updates the PE count and the trip checks; factor values are looked up
// when a candidate is evaluated, so a candidate rejected before that
// costs no lookups.
func (t *Table) Set(d, c int) {
	t.sel[d] = c
	k := t.choiceOff[d] + c
	t.pesPre[d+1] = t.pesPre[d] * t.choicePEs[k]
	t.okPre[d+1] = t.okPre[d] && t.choiceOK[k]
	t.stale = min(t.stale, d)
	t.have = 0
}

// refreshFactors looks up the value of every factor that depends on a
// dimension set since the last refresh.
func (t *Table) refreshFactors() {
	for _, f := range t.refresh[t.refOff[t.stale]:] {
		fc := &t.facs[f]
		i := int(fc.off)
		for _, dp := range t.deps[fc.lo:fc.hi] {
			i += t.sel[dp.dim] * int(dp.stride)
		}
		t.cur[f] = t.vals[i]
	}
	t.stale = len(t.dims)
}

// Select sets every dimension: sel[d] is dimension d's choice.
func (t *Table) Select(sel []int) {
	for d, c := range sel {
		t.Set(d, c)
	}
}

// TripsOK reports whether the selected mapping passes Nest.CheckTrips.
func (t *Table) TripsOK() bool { return t.okPre[len(t.dims)] }

// PEsUsed returns the selected mapping's Report.PEsUsed.
func (t *Table) PEsUsed() int64 { return t.pesPre[len(t.dims)] }

// ComputeCycles returns the compute term of the selected mapping's
// delay: a lower bound on its Report.Cycles on any architecture.
func (t *Table) ComputeCycles() float64 {
	return computeCycles(float64(t.ops), t.PEsUsed())
}

// Evaluate reports whether the selected mapping is valid on a: it
// passes the trip checks and fits a's capacities, so Evaluator.Evaluate
// would return it without error or violations. When it is valid, r is
// set to the report Evaluator.Evaluate would return; otherwise r is
// unspecified. a must pass arch.Validate.
func (t *Table) Evaluate(a *arch.Arch, r *Report) bool {
	pes := t.PEsUsed()
	if !t.TripsOK() || pes > a.PEs {
		return false
	}
	reg := t.sum(sumRegFoot)
	if reg > float64(a.Regs) {
		return false
	}
	sram := t.sum(sumSRAMFoot)
	if sram > float64(a.SRAM) {
		return false
	}
	*r = Report{
		Ops:           t.ops,
		PEsUsed:       pes,
		RegFootprint:  reg,
		SRAMFootprint: sram,
		TrafficSR:     t.sum(sumTrafficSR),
		TrafficDS:     t.sum(sumTrafficDS),
	}
	r.finish(a)
	return true
}

// sum returns sum s under the current selection, as Volumes.EvalTraffic
// or EvalFootprint computes it.
func (t *Table) sum(s int) float64 {
	if t.have&(1<<s) != 0 {
		return t.sums[s]
	}
	if t.stale < len(t.dims) {
		t.refreshFactors()
	}
	p0 := 0
	if s > 0 {
		p0 = t.sumEnd[s-1]
	}
	f0 := 0
	if p0 > 0 {
		f0 = t.prodEnd[p0-1]
	}
	v := 0.0
	for _, end := range t.prodEnd[p0:t.sumEnd[s]] {
		pv := 1.0
		for _, fv := range t.cur[f0:end] {
			pv *= fv
		}
		v += pv
		f0 = end
	}
	t.sums[s] = v
	t.have |= 1 << s
	return v
}

// Mapping returns a new mapping holding the current selection.
func (t *Table) Mapping() *Mapping {
	m := t.base.Clone()
	for d, ch := range t.dims {
		for li, tv := range ch.Trips[t.sel[d]] {
			m.Trips[li][ch.Iter] = tv
		}
	}
	return m
}
