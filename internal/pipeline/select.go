package pipeline

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
)

// validateStage re-checks every surviving integer candidate against the
// analytical model before selection: the mapping must evaluate cleanly
// on its architecture and satisfy the exact capacity constraints. The
// integerize search only ever emits valid candidates, so this is
// defense-in-depth — a regression in candidate generation surfaces here
// as a warning (and a dropped candidate) instead of as a silently
// infeasible "best" design.
type validateStage struct{}

func (validateStage) Name() string { return "validate" }

func (validateStage) Run(r *Run) error {
	if len(r.cands) == 0 {
		return nil
	}
	o := r.obs
	kept := r.cands[:0]
	for _, c := range r.cands {
		rep, err := r.ev.Evaluate(&c.cand.archCfg, c.cand.mapping)
		if err != nil || !rep.Valid() {
			o.Counter("core.validate_dropped").Inc()
			if o.Enabled(obs.Warn) {
				o.Logf(obs.Warn, "optimize %s: dropping invalid integer candidate (perms %v/%v): err=%v",
					r.prob.Name, c.pair.permL1, c.pair.permSRAM, err)
			}
			continue
		}
		// Keep the report produced during the search: it is the one the
		// candidate was scored with, so selection stays byte-identical.
		kept = append(kept, c)
	}
	r.cands = kept
	return nil
}

// selectStage picks the winning candidate. Candidates arrive in
// solved-pair order (objective, then permutation tie-break) and the
// comparison is strict, so the result is independent of scheduler width
// and completion order.
type selectStage struct{}

func (selectStage) Name() string { return "select" }

func (selectStage) Run(r *Run) error {
	var best *DesignPoint
	for _, c := range r.cands {
		if best == nil || model.Score(r.opts.Criterion, c.rep) < model.Score(r.opts.Criterion, best.Report) {
			best = &DesignPoint{
				Arch:        c.cand.archCfg,
				Mapping:     c.cand.mapping,
				Report:      c.rep,
				PermL1:      c.pair.permL1,
				PermSRAM:    c.pair.permSRAM,
				NestOptions: r.opts.Nest,
				GPObjective: c.pair.objective,
			}
		}
	}
	if best == nil {
		return fmt.Errorf("%w: no integer candidate satisfied the constraints", ErrNoDesign)
	}
	r.best = best
	return nil
}
