package solver

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Status classifies the outcome of a Solve call.
type Status int

const (
	// Optimal means the barrier method converged to the duality-gap
	// tolerance.
	Optimal Status = iota
	// Suboptimal means iteration limits were hit; the returned point is
	// feasible but the gap tolerance was not certified.
	Suboptimal
	// Infeasible means phase I could not find a strictly feasible point.
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Suboptimal:
		return "suboptimal"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrBadProblem reports a structurally invalid problem (dimension
// mismatches, inconsistent equalities).
var ErrBadProblem = errors.New("solver: invalid problem")

// Problem is a convex program in log-space (see package comment).
type Problem struct {
	N    int   // dimension of y
	Obj  LSE   // objective f0
	Ineq []LSE // constraints fi(y) ≤ 0
	// Optional equality constraints Aeq·y = Beq. Nil Aeq means none.
	Aeq *linalg.Dense
	Beq []float64
}

// Options tunes the interior-point method. Zero values select defaults.
type Options struct {
	// Tol is the target duality gap m/t. Default 1e-8.
	Tol float64
	// NewtonTol is the Newton-decrement^2/2 tolerance per centering step.
	// Default 1e-10.
	NewtonTol float64
	// Mu is the barrier parameter multiplier. Default 20.
	Mu float64
	// T0 is the initial barrier parameter. Default 1.
	T0 float64
	// MaxNewton bounds Newton iterations per centering step. Default 200.
	MaxNewton int
	// MaxCentering bounds outer barrier updates. Default 100.
	MaxCentering int
	// Box bounds every coordinate: |y_i| ≤ Box, added as constraints.
	// This keeps phase I bounded when the feasible set is unbounded.
	// Default 60 (generous for log-space trip counts); negative disables.
	Box float64
	// Obs receives solver telemetry: phase spans, the Newton-iteration,
	// line-search-backtrack and Newton-stall counters
	// (solver.newton_iters, solver.linesearch_backtracks,
	// solver.newton_stalls), and Trace-level stall diagnostics.
	// Nil disables all of it at the cost of a few nil checks.
	Obs *obs.Obs
	// Span, when tracing, parents this solve's phase spans (so each GP
	// solve nests under its caller's span). May be nil.
	Span *obs.Span
	// Workspace supplies reusable solve scratch and the equality-
	// elimination cache (see Workspace). Nil uses a fresh workspace per
	// call. Results are identical either way; reuse only changes
	// allocation behavior.
	Workspace *Workspace
	// WarmStart marks the hint as seeded from a neighboring solution.
	// It does not change the algorithm — the hint is honored either way —
	// only the telemetry: warm-started solves report warm_start and
	// phase1_skipped on solve_end events and count into the
	// solver.warmstart.hit / solver.warmstart.miss counters (hit means
	// the hint was already strictly feasible, so phase I was skipped).
	WarmStart bool
}

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.NewtonTol == 0 {
		o.NewtonTol = 1e-10
	}
	if o.Mu == 0 {
		o.Mu = 20
	}
	if o.T0 == 0 {
		o.T0 = 1
	}
	if o.MaxNewton == 0 {
		o.MaxNewton = 200
	}
	if o.MaxCentering == 0 {
		o.MaxCentering = 100
	}
	if o.Box == 0 {
		o.Box = 60
	}
	return o
}

// Result reports the solution of a Solve call, including the
// convergence telemetry the warm-start work needs: how much of the
// budget went to feasibility search vs. path following, and how tight
// the final certificate is.
type Result struct {
	Y          []float64 // point in the original y space
	Objective  float64   // f0(Y)
	Status     Status
	Newton     int // total Newton iterations
	Centerings int
	// Gap is the final duality gap m/t of the barrier path (0 when the
	// problem had no inequality constraints or was fully determined).
	Gap float64
	// PhaseI reports whether the solve needed a phase-I feasibility
	// search; false means the starting point (origin or warm hint) was
	// already strictly feasible.
	PhaseI bool
}

// Solve minimizes the problem starting from the hint y0 (projected onto
// the equality manifold; pass nil for the origin). The returned point is
// strictly feasible unless Status == Infeasible.
func Solve(p *Problem, yHint []float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	o := opts.Obs
	span := o.StartSpan(opts.Span, "solve")
	opts.Span = span // parent for the phase spans
	var t0 time.Time
	hist := o.Histogram("solver.solve_duration")
	if hist != nil || o.EventsEnabled() {
		//tlvet:ignore wallclock -- telemetry: solve duration feeds the solver.solve_duration histogram and solve_end event only
		t0 = time.Now()
	}
	res, err := solve(p, yHint, opts)
	if hist != nil {
		//tlvet:ignore wallclock -- telemetry: solve duration feeds the solver.solve_duration histogram only
		hist.Observe(time.Since(t0))
	}
	if o.EventsEnabled() {
		o.Emit(obs.EvSolveEnd, map[string]any{
			"status":     res.Status.String(),
			"newton":     res.Newton,
			"centerings": res.Centerings,
			"objective":  res.Objective,
			"gap":        res.Gap,
			"phase1":     res.PhaseI,
			"warm_start": opts.WarmStart,
			"phase1_skipped": opts.WarmStart &&
				res.Status != Infeasible && !res.PhaseI,
			//tlvet:ignore wallclock -- telemetry: wall_us on solve_end events; never feeds solve results
			"wall_us": time.Since(t0).Microseconds(),
		})
	}
	o.Counter("solver.solves").Inc()
	o.Counter("solver.newton_iters").Add(int64(res.Newton))
	if res.Status == Infeasible {
		o.Counter("solver.infeasible").Inc()
	}
	if opts.WarmStart {
		if res.Status != Infeasible && !res.PhaseI {
			o.Counter("solver.warmstart.hit").Inc()
		} else {
			o.Counter("solver.warmstart.miss").Inc()
		}
	}
	if span != nil {
		span.Annotate(
			obs.Int("newton", res.Newton),
			obs.Int("centerings", res.Centerings),
			obs.String("status", res.Status.String()),
			obs.Float("gap", res.Gap),
			obs.Bool("phase1", res.PhaseI),
		)
		span.End()
	}
	return res, err
}

func solve(p *Problem, yHint []float64, opts Options) (Result, error) {
	if p.N <= 0 {
		return Result{}, fmt.Errorf("%w: N = %d", ErrBadProblem, p.N)
	}
	ws := opts.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}

	// Eliminate equality constraints: y = yPart + Z·z (cached across
	// solves that share the same equality system and box bound).
	if p.Aeq != nil && p.Aeq.Rows > 0 && (p.Aeq.Cols != p.N || len(p.Beq) != p.Aeq.Rows) {
		return Result{}, fmt.Errorf("%w: equality dimensions", ErrBadProblem)
	}
	yPart, zBasis, boxComp, elimErr := ws.eliminate(p, opts.Box)
	if elimErr != nil {
		return Result{Status: Infeasible}, nil
	}
	nz := zBasis.Cols

	// Compose all functions with the affine map. Box constraints on the
	// original coordinates keep every subproblem (notably phase I)
	// bounded; their composed forms come from the elimination cache.
	composeInto(&ws.objScratch, &p.Obj, yPart, zBasis)
	obj := ws.objScratch
	ws.ineqScratch = growLSEs(&ws.ineqScratch, len(p.Ineq))
	ineq := ws.ineqList[:0]
	for i := range p.Ineq {
		composeInto(&ws.ineqScratch[i], &p.Ineq[i], yPart, zBasis)
		ineq = append(ineq, ws.ineqScratch[i])
	}
	ineq = append(ineq, boxComp...)
	ws.ineqList = ineq

	recover := func(z []float64) []float64 {
		y := append([]float64(nil), yPart...)
		tmp := growF(&ws.recTmp, p.N)
		zBasis.MulVec(z, tmp)
		linalg.AXPY(1, tmp, y)
		return y
	}

	if nz == 0 {
		// Fully determined by equalities; just check feasibility.
		z := []float64{}
		for i := range ineq {
			if ineq[i].Value(z) >= 0 {
				return Result{Status: Infeasible}, nil
			}
		}
		y := recover(z)
		return Result{Y: y, Objective: ws.value(&p.Obj, y), Status: Optimal}, nil
	}

	// Initial z: project the hint onto the manifold coordinates.
	z := make([]float64, nz)
	if yHint != nil {
		ws.projectHint(yHint, yPart, zBasis, z)
	}

	totalNewton := 0
	usedPhaseI := false

	// Phase I if the initial point is not strictly feasible.
	if !strictlyFeasible(ineq, z, 1e-9) {
		usedPhaseI = true
		ph := opts.Obs.StartSpan(opts.Span, "phase-i")
		opts.Obs.Counter("solver.phase1_runs").Inc()
		var ok bool
		var n int
		z, ok, n = phaseI(ws, ineq, z, opts)
		totalNewton += n
		if ph != nil {
			ph.Annotate(obs.Int("newton", n), obs.Attr{Key: "feasible", Value: ok})
			ph.End()
		}
		if !ok {
			return Result{Status: Infeasible, Newton: totalNewton, PhaseI: true}, nil
		}
	}

	// Phase II: barrier path following.
	ph2 := opts.Obs.StartSpan(opts.Span, "phase-ii")
	ph2Newton := totalNewton
	m := len(ineq)
	t := opts.T0
	centerings := 0
	status := Optimal
	finalGap := 0.0
	emit := opts.Obs.EventsEnabled()
	if m == 0 {
		// Unconstrained: single Newton minimization of the objective.
		n, _, converged := newtonMinimize(ws, &obj, nil, 1, z, opts, nil)
		totalNewton += n
		if !converged {
			status = Suboptimal
		}
	} else {
		for centerings < opts.MaxCentering {
			n, bt, converged := newtonMinimize(ws, &obj, ineq, t, z, opts, nil)
			totalNewton += n
			centerings++
			if !converged {
				status = Suboptimal
			}
			gap := float64(m) / t
			finalGap = gap
			if emit {
				opts.Obs.Emit(obs.EvCentering, map[string]any{
					"step":       centerings,
					"t":          t,
					"gap":        gap,
					"newton":     n,
					"backtracks": bt,
					"converged":  converged,
				})
			}
			if gap < opts.Tol {
				break
			}
			t *= opts.Mu
		}
		if float64(m)/t >= opts.Tol {
			status = Suboptimal
		}
	}
	if ph2 != nil {
		ph2.Annotate(obs.Int("newton", totalNewton-ph2Newton), obs.Int("centerings", centerings))
		ph2.End()
	}

	y := recover(z)
	return Result{
		Y:          y,
		Objective:  ws.value(&p.Obj, y),
		Status:     status,
		Newton:     totalNewton,
		Centerings: centerings,
		Gap:        finalGap,
		PhaseI:     usedPhaseI,
	}, nil
}

// projectHint solves min ||yPart + Z z − yHint||² for z. The Gram
// matrix ZᵀZ depends only on the nullspace basis, so it is cached with
// the equality elimination and rebuilt only when the basis changes.
func (ws *Workspace) projectHint(yHint, yPart []float64, zb *linalg.Dense, z []float64) {
	n, nz := zb.Rows, zb.Cols
	d := growF(&ws.hintD, n)
	for i := 0; i < n; i++ {
		d[i] = yHint[i] - yPart[i]
	}
	rhs := growF(&ws.hintRhs, nz)
	zb.MulTransVec(d, rhs)
	if !ws.ztzValid || ws.ztz == nil || ws.ztz.Rows != nz {
		ztz := growDense(&ws.ztz, nz, nz)
		for i := 0; i < nz; i++ {
			for j := 0; j < nz; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += zb.At(k, i) * zb.At(k, j)
				}
				ztz.Set(i, j, s)
			}
		}
		ws.ztzValid = true
	}
	sol := growF(&ws.hintSol, nz)
	if err := ws.Lin.SolveSPDTo(sol, ws.ztz, rhs); err == nil {
		copy(z, sol)
	}
}

func strictlyFeasible(ineq []LSE, z []float64, margin float64) bool {
	for i := range ineq {
		if ineq[i].Value(z) > -margin {
			return false
		}
	}
	return true
}

// phaseI finds a strictly feasible point by minimizing s subject to
// fi(z) ≤ s over the extended variable (z, s), stopping as soon as
// s < 0 at a centered point. Returns the feasible z and success.
func phaseI(ws *Workspace, ineq []LSE, z0 []float64, opts Options) ([]float64, bool, int) {
	nz := len(z0)
	dim := nz + 1
	// Extended constraints fi(z) − s ≤ 0 plus a floor s ≥ −1
	// (−s − 1 ≤ 0) to keep the problem bounded.
	ext := growLSEs(&ws.extScratch, len(ineq)+1)
	for i := range ineq {
		extendInto(&ext[i], &ineq[i], dim, -1)
	}
	floor := growF(&ws.hintD, dim) // hintD is free during phase I
	for i := range floor {
		floor[i] = 0
	}
	floor[dim-1] = -1
	linearInto(&ext[len(ineq)], floor, -1)

	// Objective: minimize s.
	objA := floor // reuse: only the last coordinate differs
	objA[dim-1] = 1
	obj := ws.phObjLSE
	linearInto(&obj, objA, 0)
	ws.phObjLSE = obj

	// Strictly feasible start: s = max fi(z0) + 1.
	x := growF(&ws.phX, dim)
	copy(x, z0)
	maxF := math.Inf(-1)
	for i := range ineq {
		if v := ineq[i].Value(z0); v > maxF {
			maxF = v
		}
	}
	x[dim-1] = maxF + 1

	total := 0
	t := opts.T0
	// Stop a centering step as soon as the slack is clearly negative and
	// the underlying point is strictly feasible.
	stop := func(x []float64) bool {
		return x[dim-1] < -1e-6 && strictlyFeasible(ineq, x[:nz], 0)
	}
	for c := 0; c < opts.MaxCentering; c++ {
		n, _, _ := newtonMinimize(ws, &obj, ext, t, x, opts, stop)
		total += n
		if x[dim-1] < -1e-7 {
			out := append([]float64(nil), x[:nz]...)
			if strictlyFeasible(ineq, out, 0) {
				return out, true, total
			}
		}
		if float64(len(ext))/t < opts.Tol {
			break
		}
		t *= opts.Mu
	}
	out := append([]float64(nil), x[:nz]...)
	return out, strictlyFeasible(ineq, out, 0), total
}

// newtonMinimize minimizes t·f0(z) − Σ log(−fi(z)) over z in place,
// returning the Newton iteration count, the line-search backtrack
// count, and whether the decrement tolerance was reached. f0 may be
// nil-adjacent only via ineq==nil unconstrained mode (then the barrier
// term is absent).
//
// The Hessian is assembled in its lower triangle only, over the nonzero
// columns of each function: that is all SolveSPDTo reads. A step the line
// search accepts but that leaves z bit-identical ends the minimization
// unconverged: every later iteration would evaluate the same point and
// repeat the same step until MaxNewton.
func newtonMinimize(ws *Workspace, f0 *LSE, ineq []LSE, t float64, z []float64, opts Options, stop func([]float64) bool) (iters, bt int, converged bool) {
	n := len(z)
	log := opts.Obs.Logger()
	backtracks := opts.Obs.Counter("solver.linesearch_backtracks")
	stalls := opts.Obs.Counter("solver.newton_stalls")
	g := growF(&ws.g, n)
	h := growDense(&ws.h, n, n)
	gTmp := growF(&ws.gTmp, n)
	hTmp := growDense(&ws.hTmp, n, n)

	// evalLSE routes multi-term evaluations through workspace scratch so
	// the inner loop stays allocation-free. It writes the lower triangle
	// of f's columns of h, which must be zero there.
	evalLSE := func(f *LSE, y []float64, g []float64, h *linalg.Dense) float64 {
		k := len(f.B)
		if k == 1 {
			return f.evalAffine(y, g)
		}
		return f.evalScratch(y, g, h, growF(&ws.evalU, k), growF(&ws.evalP, k))
	}

	eval := func(z []float64, needDeriv bool) (float64, bool) {
		var val float64
		if needDeriv {
			for r := 0; r < n; r++ {
				clear(h.Data[r*n : r*n+r+1])
			}
			val = t * evalLSE(f0, z, g, h)
			linalg.Scale(t, g)
			for r := 0; r < n; r++ {
				linalg.Scale(t, h.Data[r*n:r*n+r+1])
			}
		} else {
			val = t * f0.Value(z)
		}
		for i := range ineq {
			f := &ineq[i]
			// Affine constraints (single-term LSEs: box walls, trip lower
			// bounds — the bulk of every GP here) have an exactly-zero
			// Hessian, so skip both its evaluation and its accumulation;
			// only the rank-1 barrier curvature inv²·a·aᵀ remains.
			affine := len(f.B) == 1
			var fi float64
			if needDeriv && !affine {
				cols := f.cols()
				for x, r := range cols {
					row := hTmp.Data[int(r)*n:]
					for _, c := range cols[:x+1] {
						row[c] = 0
					}
				}
				fi = evalLSE(f, z, gTmp, hTmp)
			} else {
				fi = f.Value(z)
			}
			if fi >= 0 {
				if needDeriv && log.Enabled(obs.Trace) {
					log.Tracef("solver: constraint %d value %g at newton entry", i, fi)
				}
				return math.Inf(1), false
			}
			val -= math.Log(-fi)
			if !needDeriv {
				continue
			}
			inv := -1.0 / fi // positive
			inv2 := inv * inv
			if affine {
				// The gradient is the row a itself.
				a, nz := f.A[0], f.nz(0)
				for _, j := range nz {
					g[j] += inv * a[j]
				}
				for x, r := range nz {
					gr := a[r]
					row := h.Data[int(r)*n:]
					for _, c := range nz[:x+1] {
						row[c] += inv2 * gr * a[c]
					}
				}
				continue
			}
			cols := f.cols()
			for _, j := range cols {
				g[j] += inv * gTmp[j]
			}
			for x, r := range cols {
				gr := gTmp[r]
				row, hrow := h.Data[int(r)*n:], hTmp.Data[int(r)*n:]
				for _, c := range cols[:x+1] {
					row[c] += inv2*gr*gTmp[c] + inv*hrow[c]
				}
			}
		}
		return val, true
	}

	zTrial := growF(&ws.zTrial, n)
	negG := growF(&ws.negG, n)
	dir := growF(&ws.dir, n)
	for it := 0; it < opts.MaxNewton; it++ {
		val, ok := eval(z, true)
		if !ok {
			if log.Enabled(obs.Trace) {
				log.Tracef("solver: eval infeasible at start of newton iter %d (t=%g)", it, t)
			}
			return it, bt, false // should not happen from a feasible start
		}
		for i := range g {
			negG[i] = -g[i]
		}
		d := dir
		if err := ws.Lin.SolveSPDTo(d, h, negG); err != nil {
			// Fall back to steepest descent.
			d = negG
		}
		lambda2 := -linalg.Dot(g, d)
		if lambda2 <= 0 {
			// Not a descent direction (numerical trouble): use gradient.
			d = negG
			lambda2 = linalg.Dot(g, g)
		}
		if lambda2/2 <= opts.NewtonTol {
			return it + 1, bt, true
		}
		// Backtracking line search (Armijo, alpha=0.25, beta=0.5), with
		// implicit feasibility filtering via +Inf values.
		step := 1.0
		improved, moved := false, false
		for ls := 0; ls < 60; ls++ {
			copy(zTrial, z)
			linalg.AXPY(step, d, zTrial)
			if tv, tok := eval(zTrial, false); tok && tv <= val-0.25*step*lambda2 {
				moved = !sameBits(zTrial, z)
				copy(z, zTrial)
				improved = true
				bt += ls
				backtracks.Add(int64(ls))
				break
			}
			step *= 0.5
		}
		if !improved {
			bt += 60
			backtracks.Add(60)
			stalls.Inc()
			// No progress possible at machine precision.
			if log.Enabled(obs.Trace) {
				log.Tracef("solver: line search stalled at iter %d t=%g val=%g lambda2=%g", it, t, val, lambda2)
			}
			return it + 1, bt, true
		}
		if stop != nil && stop(z) {
			return it + 1, bt, true
		}
		if !moved {
			// The accepted step rounded away entirely: the Armijo test
			// passed on rounding noise, and every further iteration would
			// replay this one from the same z.
			stalls.Inc()
			if log.Enabled(obs.Trace) {
				log.Tracef("solver: accepted step left z unchanged at iter %d t=%g val=%g lambda2=%g", it, t, val, lambda2)
			}
			return it + 1, bt, false
		}
	}
	return opts.MaxNewton, bt, false
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
