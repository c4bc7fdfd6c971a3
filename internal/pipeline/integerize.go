package pipeline

import (
	"math"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
)

// intOptions tunes the real-to-integer conversion (Section IV of the
// paper: N closest powers of two for memory capacities, n closest
// divisors per tile-size variable level by level, cross product, filter,
// evaluate with the model).
type intOptions struct {
	nDiv    int     // divisor candidates per variable (paper's n, 2–3)
	nPow2   int     // power-of-two candidates per capacity
	minUtil float64 // minimum PE utilization for fixed-arch candidates
	maxCand int     // cap on the candidate cross product
}

// integerizeStage converts the best TopClasses relaxed solutions to
// integer designs. Each pair's divisor-ladder search is a leaf compute
// job admitted through the shared scheduler; results land in per-pair
// slots and are compacted in solved-pair order, so parallelism cannot
// change which candidates survive. When no pair yields an integer point,
// a fallback ladder shrinks the relaxed solutions geometrically toward
// the all-ones tiling (x^λ stays ≥ 1) and retries.
type integerizeStage struct{}

func (integerizeStage) Name() string { return "integerize" }

func (integerizeStage) Run(r *Run) error {
	top := r.opts.TopClasses
	if top > len(r.solved) {
		top = len(r.solved)
	}
	iopt := intOptions{
		nDiv:    r.opts.NDiv,
		nPow2:   r.opts.NPow2,
		minUtil: r.opts.MinUtilization,
		maxCand: r.opts.MaxCandidates,
	}
	candC := r.obs.Counter("core.int_candidates")
	prunedC := r.obs.Counter("core.int_pruned")

	// integerizePass converts each of the top pairs under shrink(x) and
	// returns the surviving candidates in pair order.
	integerizePass := func(shrink func([]float64) []float64) ([]*integerized, error) {
		out := make([]*integerized, top)
		var mu sync.Mutex
		err := r.sched.ForEach(r.ctx, top, func(i int) error {
			sp := r.solved[i]
			res := r.integerizeOne(iopt, candC, prunedC, shrink(sp.x), sp)
			mu.Lock()
			r.stats.Candidates += res.visited
			mu.Unlock()
			if res.best != nil {
				out[i] = &integerized{pair: sp, cand: res.best, rep: res.rep}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		cands := out[:0]
		for _, c := range out {
			if c != nil {
				cands = append(cands, c)
			}
		}
		return cands, nil
	}

	identity := func(x []float64) []float64 { return x }
	cands, err := integerizePass(identity)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		// Fallback ladder: on tight architectures the divisor ladder
		// around the relaxed solution can miss every exactly-feasible
		// integer point. Shrink the solution geometrically toward the
		// minimal (all-ones) tiling and retry.
		for _, lambda := range []float64{0.5, 0.25, 0} {
			cands, err = integerizePass(func(x []float64) []float64 {
				shrunk := append([]float64(nil), x...)
				for i := range shrunk {
					if shrunk[i] > 1 {
						shrunk[i] = math.Pow(shrunk[i], lambda)
					}
				}
				return shrunk
			})
			if err != nil {
				return err
			}
			if len(cands) > 0 {
				break
			}
		}
	}
	r.cands = cands
	return nil
}

// integerizeOne converts one relaxed solution to the best integer
// design, recording an integerize span whose model-eval child covers
// the streamed candidate evaluation.
func (r *Run) integerizeOne(iopt intOptions, candC, prunedC *obs.Counter, x []float64, sp solvedPair) searchResult {
	o := r.obs
	var ispan *obs.Span
	if o.TracingEnabled() {
		ispan = o.StartSpan(r.parent, "integerize", obs.Float("gp_objective", sp.objective))
	}
	evalSpan := o.StartSpan(ispan, "model-eval")
	perms := dataflow.StandardPerms(sp.permL1, sp.permSRAM)
	res := searchIntegerCandidates(r.ev, r.nest, perms, x, r.av, iopt, r.opts.Criterion)
	candC.Add(int64(res.visited))
	prunedC.Add(int64(res.pruned))
	if evalSpan != nil {
		evalSpan.SetAttr("candidates", int64(res.visited))
		evalSpan.SetAttr("pruned", int64(res.pruned))
		evalSpan.End()
		ispan.SetAttr("found", res.best != nil)
		ispan.End()
	}
	return res
}

// nClosest returns the k values from sorted candidates closest to target
// in log space (ratio distance), deduplicated.
func nClosest(cands []int64, target float64, k int) []int64 {
	if len(cands) == 0 {
		return nil
	}
	if target < 1 {
		target = 1
	}
	type scored struct {
		v int64
		d float64
	}
	s := make([]scored, len(cands))
	for i, c := range cands {
		s[i] = scored{c, math.Abs(math.Log(float64(c)) - math.Log(target))}
	}
	slices.SortFunc(s, func(a, b scored) int {
		//tlvet:ignore floateq -- sort comparator: tolerance-based equality breaks strict weak ordering
		if a.d != b.d {
			if a.d < b.d {
				return -1
			}
			return 1
		}
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	if k > len(s) {
		k = len(s)
	}
	out := make([]int64, 0, k)
	for _, c := range s[:k] {
		out = append(out, c.v)
	}
	return out
}

// pow2Candidates returns the n powers of two nearest to target (at least
// 1, ascending).
func pow2Candidates(target float64, n int) []int64 {
	if target < 1 {
		target = 1
	}
	exp := math.Log2(target)
	lo := int(math.Floor(exp))
	var out []int64
	for i := 0; i < n; i++ {
		// Alternate around the floor: lo, lo+1, lo−1, lo+2, ...
		var e int
		switch {
		case i == 0:
			e = lo
		case i%2 == 1:
			e = lo + (i+1)/2
		default:
			e = lo - i/2
		}
		if e < 0 {
			continue
		}
		out = append(out, int64(1)<<uint(e))
	}
	slices.Sort(out)
	return out
}

// dimCandidates generates up to n³ integer tilings for one free iterator
// following the paper's divisor ladder: SRAM tile candidates S from the
// divisors of the extent, per-PE tile candidates Q from the divisors of
// each SRAM candidate, register tile candidates R from the divisors of
// each per-PE candidate (R | Q | S | N). Each tiling is returned as its
// trips at the four standard levels, deduplicated and ordered by
// (S, Q, R).
func dimCandidates(n *dataflow.Nest, it int, x []float64, opt intOptions) [][]int64 {
	extent := n.Prob.Iters[it].Extent
	lv := make([]float64, 0, 4)
	for _, v := range n.DimTripVars(it) {
		lv = append(lv, x[v])
	}
	if len(lv) != 4 {
		return nil // pinned or unit iterator: no free tiling
	}
	realReg := lv[0]
	realPE := lv[0] * lv[1]
	realSRAM := lv[0] * lv[1] * lv[2]
	var sqr [][3]int64
	for _, s := range nClosest(loopnest.Divisors(extent), realSRAM, opt.nDiv) {
		for _, q := range nClosest(loopnest.Divisors(s), realPE, opt.nDiv) {
			for _, r := range nClosest(loopnest.Divisors(q), realReg, opt.nDiv) {
				sqr = append(sqr, [3]int64{s, q, r})
			}
		}
	}
	slices.SortFunc(sqr, func(a, b [3]int64) int { return slices.Compare(a[:], b[:]) })
	sqr = slices.Compact(sqr)
	out := make([][]int64, len(sqr))
	for i, c := range sqr {
		s, q, r := c[0], c[1], c[2]
		trips := make([]int64, 4)
		trips[dataflow.StandardLevelReg] = r
		trips[dataflow.StandardLevelL1] = q / r
		trips[dataflow.StandardLevelSpatial] = s / q
		trips[dataflow.StandardLevelSRAM] = extent / s
		out[i] = trips
	}
	return out
}

// candidate is one fully integer design point.
type candidate struct {
	archCfg arch.Arch
	mapping *model.Mapping
}

// searchResult is the outcome of one integerization search.
type searchResult struct {
	best *candidate
	rep  *model.Report
	// visited counts the candidates evaluated or skipped, over both
	// passes of a MinUtilization retry.
	visited int
	// pruned counts the candidates the delay floor skipped.
	pruned int
}

// searchIntegerCandidates streams the integer candidate space — the
// cross product of per-dimension divisor-ladder tilings and (in
// co-design mode) power-of-two capacities — through a model.Table,
// keeping only the best valid design. Streaming avoids materializing
// the cross product (which reaches millions of mappings at ladder width
// 3), and the visit counter caps runaway spaces without biasing which
// region gets cut: the cap applies to evaluations, and the ladder
// orders each dimension's choices by proximity to the relaxed solution,
// so the nearest region is covered first.
//
// Under MinDelay, a candidate whose compute term ops/PEsUsed (a lower
// bound on its cycles) is not below the incumbent's cycles cannot win
// the strict comparison, so it is skipped unevaluated. It still counts
// as visited, so the cap and the reported candidate count do not
// depend on the skip.
func searchIntegerCandidates(ev *model.Evaluator, n *dataflow.Nest, perms [][]int, x []float64, av *archVars, opt intOptions, crit model.Criterion) (res searchResult) {
	var dims []model.Choices
	for it := range n.Prob.Iters {
		if len(n.DimTripVars(it)) != 4 {
			continue
		}
		trips := dimCandidates(n, it, x, opt)
		if len(trips) == 0 {
			return res
		}
		dims = append(dims, model.Choices{Iter: it, Trips: trips})
	}
	var archs []arch.Arch
	if av.mode == CoDesign {
		for _, r := range pow2Candidates(x[av.varR], opt.nPow2) {
			for _, s := range pow2Candidates(x[av.varS], opt.nPow2) {
				archs = append(archs, arch.Arch{
					Name: "codesign", Regs: r, SRAM: s, PEs: 1, Tech: av.tech,
				})
			}
		}
	} else {
		archs = []arch.Arch{av.fixed}
	}
	// A co-design candidate takes its PE count from the mapping, which
	// is at least 1, so validating with PEs 1 covers every candidate.
	archOK := make([]bool, len(archs))
	for i := range archs {
		archOK[i] = archs[i].Validate() == nil
	}

	tab, err := ev.Tabulate(perms, dims)
	if err != nil {
		return res
	}
	// The walk keeps the winner as a selection and a report value; its
	// mapping is built once, after the walk.
	var (
		rep, bestRep model.Report
		bestArch     arch.Arch
		found        bool
		sel, bestSel = make([]int, len(dims)), make([]int, len(dims))
	)
	leaf := func(minUtil float64) {
		pes := tab.PEsUsed()
		for i := range archs {
			a := &archs[i]
			if av.mode == CoDesign {
				a.PEs = pes
				if a.Area() > av.budget {
					continue
				}
			}
			res.visited++
			if !archOK[i] {
				continue
			}
			if crit == model.MinDelay && found && !(tab.ComputeCycles() < bestRep.Cycles) {
				res.pruned++
				continue
			}
			if !tab.Evaluate(a, &rep) {
				continue
			}
			if av.mode == FixedArch && rep.Utilization < minUtil {
				continue
			}
			if !found || model.Score(crit, &rep) < model.Score(crit, &bestRep) {
				found, bestRep, bestArch = true, rep, *a
				copy(bestSel, sel)
			}
		}
	}

	run := func(minUtil float64) {
		var rec func(d int)
		rec = func(d int) {
			if res.visited >= opt.maxCand {
				return
			}
			if d == len(dims) {
				leaf(minUtil)
				return
			}
			for c := range dims[d].Trips {
				sel[d] = c
				tab.Set(d, c)
				rec(d + 1)
			}
		}
		rec(0)
	}
	run(opt.minUtil)
	if !found && opt.minUtil > 0 {
		// The retry gets the full cap again; the count covers both
		// passes.
		first := res.visited
		res.visited = 0
		run(0)
		res.visited += first
	}
	if found {
		tab.Select(bestSel)
		res.best = &candidate{archCfg: bestArch, mapping: tab.Mapping()}
		res.rep = &bestRep
	}
	return res
}
