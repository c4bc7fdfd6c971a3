// Package pipeline implements the Thistle optimization flow as a
// sequence of explicit stages sharing a per-run context:
//
//	Enumerate → Formulate → Solve → Integerize → Validate → Select
//
// Enumerate produces the pruned tile-loop permutation classes at both
// copy levels; Formulate builds one job per class pair over the shared
// geometric-program variable set; Solve runs the interior-point backend
// over the jobs (with a capacity-slack retry pass when every strict GP
// is infeasible); Integerize converts the best relaxed solutions to
// integer mappings via divisor-ladder candidate generation; Validate
// re-checks the surviving candidates against the analytical model; and
// Select picks the winner with a deterministic, scheduling-independent
// tie-break.
//
// Leaf compute — GP solves and integerization searches — is admitted
// through a single bounded Scheduler shared by every placement (and,
// when the caller attaches one to the context, every layer of a batch
// run), so concurrency is capped once instead of per call site.
// Orchestration goroutines never hold scheduler tokens.
//
// The package is the engine behind the public core.Optimize facade; it
// keeps the facade's observability contract, emitting the historical
// span names ("rs-placement", "enumerate-classes", "gp-solve-pass",
// "gp-pair", "formulate", "integerize", "model-eval") and "core.*"
// metric names, plus a per-stage duration histogram
// "pipeline.stage.<name>".
package pipeline

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Run is the per-run context shared by the stages of one optimization
// pass (one problem, one RS placement). Stages communicate exclusively
// through it: each stage reads what its predecessors produced and adds
// its own products, so the executor can instrument every boundary
// uniformly.
type Run struct {
	ctx   context.Context
	prob  *loopnest.Problem
	opts  Options // defaults applied
	obs   *obs.Obs
	sched *Scheduler
	// parent is the enclosing placement span; stage spans hang off it.
	parent *obs.Span

	// Built by the executor before the first stage.
	nest *dataflow.Nest
	av   *archVars
	varT expr.VarID
	// ev evaluates integer mappings of nest for Integerize and Validate.
	// model.Evaluator is safe for concurrent use, and sharing it lets
	// Validate reuse the volumes Integerize computed.
	ev *model.Evaluator

	// Stage products, in pipeline order.
	classesL1, classesSRAM []dataflow.PermClass // Enumerate
	jobs                   []pairJob            // Formulate
	solved                 []solvedPair         // Solve (sorted, deterministic)
	cands                  []*integerized       // Integerize, filtered by Validate
	best                   *DesignPoint         // Select

	stats Stats
}

// wsPool recycles solver workspaces across every run in the process. A
// workspace is out of the pool only while a solve job holds it, so the
// live set follows the jobs in flight, not the runs in flight (a
// whole-network sweep has dozens of runs mid-solve at once). A recycled
// workspace's equality-elimination cache hits when its previous solve
// had the same equality system (every pair GP of one run does) and
// rebuilds otherwise; results are identical either way.
var wsPool = sync.Pool{New: func() any { return solver.NewWorkspace() }}

// getWS takes a solver workspace from the pool (or makes one).
func getWS() *solver.Workspace { return wsPool.Get().(*solver.Workspace) }

// putWS returns a workspace to the pool for the next job.
func putWS(ws *solver.Workspace) { wsPool.Put(ws) }

// Context returns the run's context (cancelling it stops admission of
// new leaf jobs).
func (r *Run) Context() context.Context { return r.ctx }

// Problem returns the problem under optimization.
func (r *Run) Problem() *loopnest.Problem { return r.prob }

// Options returns the run's resolved options.
func (r *Run) Options() Options { return r.opts }

// Stats returns the search-effort counters accumulated so far.
func (r *Run) Stats() Stats { return r.stats }

// pairJob is one permutation-class pair to be solved as a GP.
type pairJob struct {
	l1, sram []int
}

// integerized is one pair's best integer design, in solved-pair order.
type integerized struct {
	pair solvedPair
	cand *candidate
	rep  *model.Report
}

// Stage is one step of the optimization pipeline. Stages are executed
// in order against a shared *Run; a stage returning an error aborts the
// run (ErrNoDesign-wrapped errors still surface the accumulated Stats).
type Stage interface {
	// Name is the stage's identifier, used for the per-stage duration
	// histogram ("pipeline.stage.<name>") and debug logs.
	Name() string
	Run(*Run) error
}

// Stages returns the standard stage sequence of one optimization pass.
func Stages() []Stage {
	return []Stage{
		enumerateStage{},
		formulateStage{},
		solveStage{},
		integerizeStage{},
		validateStage{},
		selectStage{},
	}
}

// Execute runs the full flow for one problem: one staged pass per
// configured RS placement (all placements in flight concurrently,
// drawing leaf work from one scheduler), keeping the best design and
// accumulating search-effort stats across placements. Selection is
// deterministic and scheduling-independent: placements are merged in
// configuration order and candidate ties are broken by permutation
// order, so the same inputs produce byte-identical results at any
// scheduler width.
func Execute(ctx context.Context, p *loopnest.Problem, opts Options) (*Result, error) {
	opts = opts.WithDefaults()
	o := obs.FromContext(ctx)
	sched := SchedulerFromContext(ctx)
	if sched == nil {
		sched = NewScheduler(opts.Parallel)
		ctx = ContextWithScheduler(ctx, sched)
	}
	placements := opts.RSPlacements
	if placements == nil {
		placements = []dataflow.RSPlacement{dataflow.RSAtRegister}
		if hasUntiledKernelLoops(p) {
			placements = append(placements, dataflow.RSAtLevel1)
		}
	}
	if o.Enabled(obs.Info) {
		o.Logf(obs.Info, "optimize %s: criterion=%v mode=%v placements=%d",
			p.Name, opts.Criterion, opts.Mode, len(placements))
	}
	// Placement passes are orchestration: they run as plain goroutines
	// (no scheduler tokens) and compete only through the leaf jobs they
	// submit. Results are merged in placement order below, so the
	// concurrency here cannot change the selected design.
	type placementOut struct {
		res *Result
		err error
	}
	outs := make([]placementOut, len(placements))
	var wg sync.WaitGroup
	for i, rs := range placements {
		po := opts
		po.Nest.RS = rs
		wg.Add(1)
		go func(i int, rs dataflow.RSPlacement, po Options) {
			defer wg.Done()
			pctx, pspan := obs.StartSpan(ctx, "rs-placement", obs.String("rs", rs.String()))
			res, err := executeOne(pctx, p, po, sched)
			if res != nil {
				pspan.Annotate(
					obs.Int("classes_l1", res.Stats.ClassesL1),
					obs.Int("classes_sram", res.Stats.ClassesSRAM),
					obs.Int("pairs_solved", res.Stats.PairsSolved),
				)
			}
			pspan.End()
			outs[i] = placementOut{res, err}
		}(i, rs, po)
	}
	wg.Wait()

	var best *Result
	var combined Stats
	var firstErr error
	for i, out := range outs {
		if out.res != nil {
			// Accumulate search effort across placements — including
			// placements that found no design but still solved GPs —
			// instead of overwriting with the best placement's counts.
			combined.ClassesL1 += out.res.Stats.ClassesL1
			combined.ClassesSRAM += out.res.Stats.ClassesSRAM
			combined.PairsSolved += out.res.Stats.PairsSolved
			combined.Candidates += out.res.Stats.Candidates
			combined.NewtonIters += out.res.Stats.NewtonIters
			combined.Infeasible += out.res.Stats.Infeasible
			combined.Suboptimal += out.res.Stats.Suboptimal
			combined.Pruned += out.res.Stats.Pruned
		}
		if out.err != nil {
			if o.Enabled(obs.Debug) {
				o.Logf(obs.Debug, "optimize %s: placement %v failed: %v", p.Name, placements[i], out.err)
			}
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		if best == nil || model.Score(opts.Criterion, out.res.Best.Report) < model.Score(opts.Criterion, best.Best.Report) {
			best = out.res
		}
	}
	if best == nil {
		return nil, firstErr
	}
	combined.FreshSolves = combined.PairsSolved
	best.Stats = combined
	if o.Enabled(obs.Info) {
		o.Logf(obs.Info, "optimize %s: done, %d GPs solved (%d newton iters), %d integer candidates",
			p.Name, combined.PairsSolved, combined.NewtonIters, combined.Candidates)
	}
	return best, nil
}

// executeOne runs the staged pipeline for one fixed nest configuration.
func executeOne(ctx context.Context, p *loopnest.Problem, opts Options, sched *Scheduler) (*Result, error) {
	if err := opts.Arch.Validate(); err != nil {
		return nil, err
	}
	o := obs.FromContext(ctx)
	nest, av, varT, err := newNest(p, opts)
	if err != nil {
		return nil, err
	}
	r := &Run{
		ctx:    ctx,
		prob:   p,
		opts:   opts,
		obs:    o,
		sched:  sched,
		parent: obs.SpanFromContext(ctx),
		nest:   nest,
		av:     av,
		varT:   varT,
		ev:     model.NewEvaluator(nest),
	}
	for _, st := range Stages() {
		//tlvet:ignore wallclock -- telemetry: stage duration feeds the pipeline.stage.* histogram only
		start := time.Now()
		// Each stage runs under its own "stage:<name>" span: spans the
		// stage opens (and the scheduler's sched-wait children, which
		// follow the context's current span) nest beneath it. Stages run
		// sequentially on this goroutine, so the swap is safe.
		stageSpan := o.StartSpan(r.parent, "stage:"+st.Name())
		var prevParent *obs.Span
		var prevCtx context.Context
		if stageSpan != nil {
			prevParent, prevCtx = r.parent, r.ctx
			r.parent = stageSpan
			r.ctx = obs.ContextWithSpan(r.ctx, stageSpan)
		}
		err := st.Run(r)
		if stageSpan != nil {
			r.parent, r.ctx = prevParent, prevCtx
			stageSpan.End()
		}
		if o.MetricsEnabled() {
			//tlvet:ignore wallclock -- telemetry: stage duration feeds the pipeline.stage.* histogram only
			o.Histogram("pipeline.stage." + st.Name()).Observe(time.Since(start))
		}
		if err != nil {
			if errors.Is(err, ErrNoDesign) {
				// The search effort behind a no-design outcome still
				// counts toward the cross-placement totals.
				return &Result{Stats: r.stats}, err
			}
			return nil, err
		}
	}
	return &Result{Best: r.best, Stats: r.stats}, nil
}

// newNest builds the standard nest of one placement, with the
// architecture variables (registered on the shared VarSet so they can
// appear in the same GP as the trip counts) and the delay variable.
func newNest(p *loopnest.Problem, opts Options) (*dataflow.Nest, *archVars, expr.VarID, error) {
	nest, err := dataflow.StandardNest(p, opts.Nest)
	if err != nil {
		return nil, nil, expr.NoVar, err
	}
	av := &archVars{mode: opts.Mode, tech: opts.Arch.Tech, fixed: *opts.Arch, budget: opts.AreaBudget}
	if opts.Mode == CoDesign {
		av.varR = nest.Vars.NewVar("arch_R")
		av.varS = nest.Vars.NewVar("arch_S")
		av.varP = nest.Vars.NewVar("arch_P")
	}
	return nest, av, nest.Vars.NewVar("delay_T"), nil
}

// hasUntiledKernelLoops reports whether the problem has kernel iterators
// (named r/s) with extent > 1, i.e. whether the two RS placements differ.
func hasUntiledKernelLoops(p *loopnest.Problem) bool {
	for _, name := range []string{"r", "s"} {
		if i := p.IterIndex(name); i >= 0 && p.Iters[i].Extent > 1 {
			return true
		}
	}
	return false
}

// enumerateStage produces the permutation classes at both copy levels.
type enumerateStage struct{}

func (enumerateStage) Name() string { return "enumerate" }

func (enumerateStage) Run(r *Run) error {
	o := r.obs
	enumSpan := o.StartSpan(r.parent, "enumerate-classes")
	var syms []dataflow.Involution
	if !r.opts.DisablePruning {
		syms = dataflow.SymmetricInvolutions(r.prob)
	}
	classesL1, err := enumerate(r.nest, dataflow.StandardLevelL1, syms, r.opts.DisablePruning)
	if err != nil {
		enumSpan.End()
		return err
	}
	classesSRAM, err := enumerate(r.nest, dataflow.StandardLevelSRAM, syms, r.opts.DisablePruning)
	if err != nil {
		enumSpan.End()
		return err
	}
	if enumSpan != nil {
		enumSpan.Annotate(obs.Int("classes_l1", len(classesL1)), obs.Int("classes_sram", len(classesSRAM)))
		enumSpan.End()
	}
	if o.MetricsEnabled() {
		// Per-placement class counts, plus running totals across the run.
		rs := r.opts.Nest.RS.String()
		o.Gauge("core.classes_l1." + rs).Set(int64(len(classesL1)))
		o.Gauge("core.classes_sram." + rs).Set(int64(len(classesSRAM)))
		o.Counter("core.classes_l1").Add(int64(len(classesL1)))
		o.Counter("core.classes_sram").Add(int64(len(classesSRAM)))
	}
	if o.Enabled(obs.Debug) {
		o.Logf(obs.Debug, "optimize %s: placement %v: %d x %d permutation classes",
			r.prob.Name, r.opts.Nest.RS, len(classesL1), len(classesSRAM))
	}
	r.classesL1, r.classesSRAM = classesL1, classesSRAM
	r.stats.ClassesL1 = len(classesL1)
	r.stats.ClassesSRAM = len(classesSRAM)
	return nil
}

// enumerate returns permutation classes, or every raw permutation when
// pruning is disabled (ablation mode).
func enumerate(nest *dataflow.Nest, level int, syms []dataflow.Involution, raw bool) ([]dataflow.PermClass, error) {
	if !raw {
		return nest.EnumerateClasses(level, syms)
	}
	// Raw mode: every permutation of the active set becomes its own
	// "class".
	lvl := nest.Levels[level]
	var out []dataflow.PermClass
	permuteAll(append([]int(nil), lvl.Active...), func(p []int) {
		out = append(out, dataflow.PermClass{Perm: append([]int(nil), p...), Size: 1})
	})
	return out, nil
}

func permuteAll(s []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(s)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				s[i], s[k-1] = s[k-1], s[i]
			} else {
				s[0], s[k-1] = s[k-1], s[0]
			}
		}
	}
	if len(s) == 0 {
		fn(s)
		return
	}
	rec(len(s))
}

// formulateStage turns the class cross product into the GP job list.
// The per-pair posynomial construction itself stays lazy — each solve
// job builds (and discards) its program right before solving, keeping
// peak memory proportional to the scheduler width rather than the
// job count.
type formulateStage struct{}

func (formulateStage) Name() string { return "formulate" }

func (formulateStage) Run(r *Run) error {
	r.jobs = make([]pairJob, 0, len(r.classesL1)*len(r.classesSRAM))
	for _, c1 := range r.classesL1 {
		for _, c3 := range r.classesSRAM {
			r.jobs = append(r.jobs, pairJob{c1.Perm, c3.Perm})
		}
	}
	return nil
}
