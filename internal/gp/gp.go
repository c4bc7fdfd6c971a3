// Package gp represents geometric programs (GPs) over the symbolic
// expressions of package expr and lowers them to the log-space convex
// form solved by package solver. This pairing is the repository's
// substitute for the CVXPY disciplined-geometric-programming stack used
// by the Thistle paper.
//
// A geometric program in standard form is
//
//	minimize   f0(x)                 (posynomial)
//	subject to fi(x) ≤ 1             (posynomials)
//	           gj(x) = 1             (monomials)
//	           x > 0
//
// With the substitution y = log x every posynomial becomes a log-sum-exp
// function and every monomial equality a linear equation, yielding a
// convex program.
package gp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/floats"
	"repro/internal/linalg"
	"repro/internal/solver"
)

// ErrNotPosynomial is returned when an objective or constraint contains a
// non-positive coefficient (after any relaxation the caller performed).
var ErrNotPosynomial = errors.New("gp: expression is not a posynomial")

// ErrBadConstraint is returned for structurally invalid constraints, such
// as an equality between non-monomials.
var ErrBadConstraint = errors.New("gp: invalid constraint")

// Program is a geometric program under construction. Create with New,
// populate with AddConstraint*/SetObjective, then call Solve.
type Program struct {
	Vars      *expr.VarSet
	Objective expr.Poly       // posynomial, minimized
	Ineq      []expr.Poly     // each means poly ≤ 1
	Eq        []expr.Monomial // each means mono = 1
	names     []string        // optional labels parallel to Ineq (diagnostics)
}

// New creates an empty program over the given variable set.
func New(vars *expr.VarSet) *Program {
	return &Program{Vars: vars}
}

// SetObjective sets the posynomial objective to minimize.
func (p *Program) SetObjective(obj expr.Poly) error {
	if len(obj) == 0 {
		return fmt.Errorf("%w: empty objective", ErrBadConstraint)
	}
	if !obj.AllPositive() {
		return fmt.Errorf("%w: objective %s", ErrNotPosynomial, obj.String(p.Vars))
	}
	p.Objective = obj.Clone()
	return nil
}

// AddLessEq adds the constraint lhs ≤ rhs where lhs is a posynomial and
// rhs a monomial (the DGP-valid form). Internally stored as lhs/rhs ≤ 1.
func (p *Program) AddLessEq(name string, lhs expr.Poly, rhs expr.Monomial) error {
	if len(lhs) == 0 {
		return nil // 0 ≤ rhs is vacuous for positive monomials
	}
	if !lhs.AllPositive() {
		return fmt.Errorf("%w: %s: %s", ErrNotPosynomial, name, lhs.String(p.Vars))
	}
	if rhs.Coeff <= 0 {
		return fmt.Errorf("%w: %s: non-positive bound", ErrBadConstraint, name)
	}
	p.Ineq = append(p.Ineq, lhs.MulMono(rhs.Inv()))
	p.names = append(p.names, name)
	return nil
}

// AddUpperBound adds x ≤ c for a single variable.
func (p *Program) AddUpperBound(name string, v expr.VarID, c float64) error {
	return p.AddLessEq(name, expr.PolyFrom(expr.MonoPow(1, v, 1)), expr.Const(c))
}

// AddLowerBound adds x ≥ c (c > 0) for a single variable, i.e. c/x ≤ 1.
func (p *Program) AddLowerBound(name string, v expr.VarID, c float64) error {
	if c <= 0 {
		return fmt.Errorf("%w: %s: non-positive lower bound", ErrBadConstraint, name)
	}
	return p.AddLessEq(name, expr.PolyFrom(expr.MonoPow(c, v, -1)), expr.Const(1))
}

// AddMonoEq adds the monomial equality lhs = rhs (both monomials with
// positive coefficients). Internally stored as lhs/rhs = 1.
func (p *Program) AddMonoEq(name string, lhs, rhs expr.Monomial) error {
	if lhs.Coeff <= 0 || rhs.Coeff <= 0 {
		return fmt.Errorf("%w: %s: equality with non-positive coefficient", ErrBadConstraint, name)
	}
	p.Eq = append(p.Eq, lhs.Mul(rhs.Inv()))
	return nil
}

// ConstraintNames returns the labels of the inequality constraints, in
// order, for diagnostics.
func (p *Program) ConstraintNames() []string {
	return append([]string(nil), p.names...)
}

// Result reports the solution of a GP.
type Result struct {
	// X is the optimal point in the original (positive) variables,
	// indexed by VarID.
	X []float64
	// Objective is the posynomial objective value at X.
	Objective float64
	Status    solver.Status
	Newton    int
}

// lowerPoly converts a posynomial to a log-sum-exp over n variables.
func lowerPoly(poly expr.Poly, n int) (solver.LSE, error) {
	if !poly.AllPositive() {
		return solver.LSE{}, ErrNotPosynomial
	}
	f := solver.LSE{A: make([][]float64, len(poly)), B: make([]float64, len(poly))}
	for k, m := range poly {
		row := make([]float64, n)
		for _, t := range m.Terms {
			row[t.Var] += t.Exp
		}
		f.A[k] = row
		f.B[k] = math.Log(m.Coeff)
	}
	return f, nil
}

// Lower converts the program to the solver's log-space form.
func (p *Program) Lower() (*solver.Problem, error) {
	n := p.Vars.Len()
	if n == 0 {
		return nil, fmt.Errorf("%w: no variables", ErrBadConstraint)
	}
	obj, err := lowerPoly(p.Objective, n)
	if err != nil {
		return nil, fmt.Errorf("lowering objective: %w", err)
	}
	prob := &solver.Problem{N: n, Obj: obj, Ineq: make([]solver.LSE, 0, len(p.Ineq))}
	for i, c := range p.Ineq {
		f, err := lowerPoly(c, n)
		if err != nil {
			return nil, fmt.Errorf("lowering constraint %q: %w", p.names[i], err)
		}
		prob.Ineq = append(prob.Ineq, f)
	}
	if len(p.Eq) > 0 {
		aeq := linalg.NewDense(len(p.Eq), n)
		beq := make([]float64, len(p.Eq))
		for i, m := range p.Eq {
			for _, t := range m.Terms {
				aeq.Add(i, int(t.Var), t.Exp)
			}
			beq[i] = -math.Log(m.Coeff)
		}
		prob.Aeq = aeq
		prob.Beq = beq
	}
	return prob, nil
}

// Solve lowers and solves the program. xHint, when non-nil, is an initial
// guess in the original positive variables (values ≤ 0 are treated as 1).
func (p *Program) Solve(xHint []float64, opts solver.Options) (Result, error) {
	prob, err := p.Lower()
	if err != nil {
		return Result{}, err
	}
	var yHint []float64
	if xHint != nil {
		yHint = make([]float64, len(xHint))
		for i, v := range xHint {
			if v > 0 {
				yHint[i] = math.Log(v)
			}
		}
	}
	res, err := solver.Solve(prob, yHint, opts)
	if err != nil {
		return Result{}, err
	}
	out := Result{Status: res.Status, Newton: res.Newton}
	if res.Status == solver.Infeasible {
		return out, nil
	}
	out.X = make([]float64, len(res.Y))
	for i, y := range res.Y {
		out.X[i] = math.Exp(y)
	}
	out.Objective = p.Objective.Eval(out.X)
	return out, nil
}

// CheckFeasible evaluates all constraints at x and returns the names of
// violated inequality constraints (relative violation beyond tol) and
// equalities off by more than tol.
func (p *Program) CheckFeasible(x []float64, tol float64) []string {
	var bad []string
	for i, c := range p.Ineq {
		if c.Eval(x) > 1+tol {
			bad = append(bad, p.names[i])
		}
	}
	for _, m := range p.Eq {
		if v := m.Eval(x); !floats.EqTol(v, 1, tol) {
			bad = append(bad, fmt.Sprintf("equality %s", m.String(p.Vars)))
		}
	}
	return bad
}
