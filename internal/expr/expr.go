// Package expr implements the symbolic algebra used throughout the
// reproduction of the Thistle optimizer (CGO 2022): positive variables,
// monomials c·∏xᵢ^aᵢ, polynomials (sums of monomials, possibly with
// negative coefficients, i.e. signomials), and factored products of
// polynomials.
//
// The dataflow package builds data-footprint (DF) and data-volume (DV)
// expressions in factored form, where each factor is either a single
// monomial (a trip-count multiplier) or a convolution extent such as
// (q_h·r_h + q_r·r_r − 1). Keeping the factored structure allows
//
//   - exact integer evaluation (used by the Timeloop-substitute model and
//     the integerization filter), and
//   - the posynomial relaxation required for geometric programming
//     (dropping the negative constant of each factor before expanding),
//
// to share one construction.
package expr

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// VarID identifies a variable within a VarSet. Variables are strictly
// positive reals (the geometric-programming domain).
type VarID int32

// NoVar is a sentinel for "no variable" (e.g. a trip count fixed to 1).
const NoVar VarID = -1

// VarSet owns the variables of one optimization problem. The zero value is
// ready to use.
type VarSet struct {
	names []string
}

// NewVar registers a fresh variable and returns its id.
func (vs *VarSet) NewVar(name string) VarID {
	vs.names = append(vs.names, name)
	return VarID(len(vs.names) - 1)
}

// Len reports the number of registered variables.
func (vs *VarSet) Len() int { return len(vs.names) }

// Name returns the name given to v at registration.
func (vs *VarSet) Name(v VarID) string {
	if v < 0 || int(v) >= len(vs.names) {
		return fmt.Sprintf("v%d", v)
	}
	return vs.names[v]
}

// Term is one factor xᵛ^Exp of a monomial.
type Term struct {
	Var VarID
	Exp float64
}

// Monomial is Coeff·∏ terms. Terms are kept sorted by Var with no
// duplicates and no zero exponents; use Canon after manual construction.
type Monomial struct {
	Coeff float64
	Terms []Term
}

// Mono builds a monomial from a coefficient and variables, each with
// exponent 1. Repeated variables accumulate.
func Mono(coeff float64, vars ...VarID) Monomial {
	m := Monomial{Coeff: coeff}
	for _, v := range vars {
		m.Terms = append(m.Terms, Term{Var: v, Exp: 1})
	}
	m.Canon()
	return m
}

// MonoPow builds the single-variable monomial coeff·v^exp.
func MonoPow(coeff float64, v VarID, exp float64) Monomial {
	m := Monomial{Coeff: coeff, Terms: []Term{{Var: v, Exp: exp}}}
	m.Canon()
	return m
}

// Const builds the constant monomial c.
func Const(c float64) Monomial { return Monomial{Coeff: c} }

// Canon sorts the terms by variable, merges duplicates, and removes zero
// exponents, in place.
func (m *Monomial) Canon() {
	if len(m.Terms) == 0 {
		return
	}
	slices.SortFunc(m.Terms, termCmp)
	out := m.Terms[:0]
	for _, t := range m.Terms {
		if n := len(out); n > 0 && out[n-1].Var == t.Var {
			out[n-1].Exp += t.Exp
		} else {
			out = append(out, t)
		}
	}
	n := 0
	for _, t := range out {
		if t.Exp != 0 {
			out[n] = t
			n++
		}
	}
	m.Terms = out[:n]
}

// Clone returns a deep copy of m.
func (m Monomial) Clone() Monomial {
	c := m
	c.Terms = append([]Term(nil), m.Terms...)
	return c
}

// IsConst reports whether m has no variables.
func (m Monomial) IsConst() bool { return len(m.Terms) == 0 }

// HasVar reports whether m references v.
func (m Monomial) HasVar(v VarID) bool {
	for _, t := range m.Terms {
		if t.Var == v {
			return true
		}
	}
	return false
}

// Mul returns m·o as a new canonical monomial.
func (m Monomial) Mul(o Monomial) Monomial {
	r := Monomial{Coeff: m.Coeff * o.Coeff}
	r.Terms = make([]Term, 0, len(m.Terms)+len(o.Terms))
	r.Terms = append(r.Terms, m.Terms...)
	r.Terms = append(r.Terms, o.Terms...)
	r.Canon()
	return r
}

// MulVar returns m·v (exponent 1) as a new monomial.
func (m Monomial) MulVar(v VarID) Monomial {
	return m.Mul(MonoPow(1, v, 1))
}

// Pow returns m^p as a new monomial. For negative or fractional p the
// coefficient must be positive.
func (m Monomial) Pow(p float64) Monomial {
	r := Monomial{Coeff: math.Pow(m.Coeff, p)}
	r.Terms = make([]Term, len(m.Terms))
	for i, t := range m.Terms {
		r.Terms[i] = Term{Var: t.Var, Exp: t.Exp * p}
	}
	r.Canon()
	return r
}

// Inv returns 1/m.
func (m Monomial) Inv() Monomial { return m.Pow(-1) }

// Eval evaluates m at the assignment x (indexed by VarID).
func (m Monomial) Eval(x []float64) float64 {
	v := m.Coeff
	for _, t := range m.Terms {
		if t.Exp == 1 {
			v *= x[t.Var]
		} else {
			v *= math.Pow(x[t.Var], t.Exp)
		}
	}
	return v
}

// sameExps reports whether two canonical monomials have identical
// variable/exponent structure.
func sameExps(a, b Monomial) bool {
	if len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

// termCmp orders terms by variable (the Canon sort key).
func termCmp(a, b Term) int {
	switch {
	case a.Var < b.Var:
		return -1
	case a.Var > b.Var:
		return 1
	}
	return 0
}

// expsCmp orders canonical monomials by their exponent vectors.
func expsCmp(a, b Monomial) int {
	for i := 0; i < len(a.Terms) && i < len(b.Terms); i++ {
		if a.Terms[i].Var != b.Terms[i].Var {
			if a.Terms[i].Var < b.Terms[i].Var {
				return -1
			}
			return 1
		}
		if a.Terms[i].Exp != b.Terms[i].Exp {
			if a.Terms[i].Exp < b.Terms[i].Exp {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a.Terms) < len(b.Terms):
		return -1
	case len(a.Terms) > len(b.Terms):
		return 1
	}
	return 0
}

// String renders m using the variable names in vs.
func (m Monomial) String(vs *VarSet) string {
	if m.IsConst() {
		return fmt.Sprintf("%g", m.Coeff)
	}
	var b strings.Builder
	if m.Coeff != 1 {
		fmt.Fprintf(&b, "%g*", m.Coeff)
	}
	for i, t := range m.Terms {
		if i > 0 {
			b.WriteByte('*')
		}
		b.WriteString(vs.Name(t.Var))
		if t.Exp != 1 {
			fmt.Fprintf(&b, "^%g", t.Exp)
		}
	}
	return b.String()
}

// Poly is a sum of monomials. Coefficients may be negative (signomial);
// geometric-program lowering rejects or relaxes negative terms. A nil or
// empty Poly is the zero polynomial. Keep canonical via Canon.
type Poly []Monomial

// PolyFrom builds a canonical polynomial from monomials.
func PolyFrom(ms ...Monomial) Poly {
	p := make(Poly, 0, len(ms))
	for _, m := range ms {
		p = append(p, m.Clone())
	}
	p.Canon()
	return p
}

// PolyConst returns the constant polynomial c (empty when c == 0).
func PolyConst(c float64) Poly {
	if c == 0 {
		return nil
	}
	return Poly{Const(c)}
}

// Canon sorts the monomials by exponent structure, merges monomials with
// identical structure, and drops zero coefficients, in place; returns the
// canonical polynomial.
func (p *Poly) Canon() Poly {
	q := *p
	for i := range q {
		q[i].Canon()
	}
	slices.SortFunc(q, expsCmp)
	out := q[:0]
	for _, m := range q {
		if n := len(out); n > 0 && sameExps(out[n-1], m) {
			out[n-1].Coeff += m.Coeff
		} else {
			out = append(out, m)
		}
	}
	n := 0
	for _, m := range out {
		if m.Coeff != 0 {
			out[n] = m
			n++
		}
	}
	*p = out[:n]
	return *p
}

// Clone returns a deep copy of p.
func (p Poly) Clone() Poly {
	q := make(Poly, len(p))
	for i, m := range p {
		q[i] = m.Clone()
	}
	return q
}

// Add returns p+q as a new canonical polynomial.
func (p Poly) Add(q Poly) Poly {
	r := make(Poly, 0, len(p)+len(q))
	for _, m := range p {
		r = append(r, m.Clone())
	}
	for _, m := range q {
		r = append(r, m.Clone())
	}
	r.Canon()
	return r
}

// AddMono returns p+m as a new canonical polynomial.
func (p Poly) AddMono(m Monomial) Poly { return p.Add(Poly{m}) }

// MulMono returns p·m as a new canonical polynomial.
func (p Poly) MulMono(m Monomial) Poly {
	r := make(Poly, len(p))
	for i, pm := range p {
		r[i] = pm.Mul(m)
	}
	r.Canon()
	return r
}

// Mul returns p·q fully expanded as a new canonical polynomial.
func (p Poly) Mul(q Poly) Poly {
	r := make(Poly, 0, len(p)*len(q))
	for _, pm := range p {
		for _, qm := range q {
			r = append(r, pm.Mul(qm))
		}
	}
	r.Canon()
	return r
}

// Scale returns c·p.
func (p Poly) Scale(c float64) Poly {
	return p.MulMono(Const(c))
}

// Eval evaluates p at the assignment x.
func (p Poly) Eval(x []float64) float64 {
	s := 0.0
	for _, m := range p {
		s += m.Eval(x)
	}
	return s
}

// IsMonomial reports whether p consists of a single monomial.
func (p Poly) IsMonomial() bool { return len(p) == 1 }

// IsConstant reports whether p is a constant (including zero).
func (p Poly) IsConstant() bool {
	for _, m := range p {
		if !m.IsConst() {
			return false
		}
	}
	return true
}

// AllPositive reports whether every coefficient is positive (a true
// posynomial).
func (p Poly) AllPositive() bool {
	for _, m := range p {
		if m.Coeff <= 0 {
			return false
		}
	}
	return true
}

// DropNegativeConstants returns a copy of p without its negative
// constant monomials (the posynomial relaxation used when lowering
// convolution extents to geometric-program form). Negative coefficients on
// monomials that contain variables are returned unchanged; callers must
// check AllPositive afterwards.
func (p Poly) DropNegativeConstants() Poly {
	q := make(Poly, 0, len(p))
	for _, m := range p {
		if m.IsConst() && m.Coeff < 0 {
			continue
		}
		q = append(q, m.Clone())
	}
	return q.Canon()
}

// HasVar reports whether any monomial references v.
func (p Poly) HasVar(v VarID) bool {
	for _, m := range p {
		if m.HasVar(v) {
			return true
		}
	}
	return false
}

// Vars appends the distinct variables referenced by p to dst.
func (p Poly) Vars(dst map[VarID]bool) {
	for _, m := range p {
		for _, t := range m.Terms {
			dst[t.Var] = true
		}
	}
}

// String renders p using the names in vs.
func (p Poly) String(vs *VarSet) string {
	if len(p) == 0 {
		return "0"
	}
	parts := make([]string, len(p))
	for i, m := range p {
		parts[i] = m.String(vs)
	}
	return strings.Join(parts, " + ")
}

// Key returns a canonical, name-independent serialization of p, used for
// structural deduplication (permutation-class pruning). Two polynomials
// over the same VarSet have equal keys iff they are structurally equal
// after Canon.
func (p Poly) Key() string {
	q := p.Clone()
	q.Canon()
	var b strings.Builder
	for i, m := range q {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%g", m.Coeff)
		for _, t := range m.Terms {
			fmt.Fprintf(&b, "@%d^%g", t.Var, t.Exp)
		}
	}
	return b.String()
}

// Identical reports whether p and q hold the same monomials in the same
// order with bit-identical coefficients and exponents, so that Eval
// returns the same bits for both on every assignment.
func (p Poly) Identical(q Poly) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		a, b := p[i], q[i]
		if math.Float64bits(a.Coeff) != math.Float64bits(b.Coeff) || len(a.Terms) != len(b.Terms) {
			return false
		}
		for j := range a.Terms {
			if a.Terms[j].Var != b.Terms[j].Var || math.Float64bits(a.Terms[j].Exp) != math.Float64bits(b.Terms[j].Exp) {
				return false
			}
		}
	}
	return true
}

// SubstConst returns a copy of p with every variable in vals replaced by
// its constant value (folded into coefficients). Canonicalization merges
// the resulting like terms, so pinned-variable extents such as
// t_h + t_r − 1 with t_r = 3 collapse to the true posynomial t_h + 2.
func (p Poly) SubstConst(vals map[VarID]float64) Poly {
	q := make(Poly, 0, len(p))
	for _, m := range p {
		nm := Monomial{Coeff: m.Coeff}
		for _, t := range m.Terms {
			if c, ok := vals[t.Var]; ok {
				nm.Coeff *= math.Pow(c, t.Exp)
			} else {
				nm.Terms = append(nm.Terms, t)
			}
		}
		q = append(q, nm)
	}
	return q.Canon()
}

// RenameVars returns a copy of p with every variable v replaced by
// subst[v] (identity when subst[v] == v). Used by symmetry pruning, which
// swaps the h/w variables and compares canonical keys.
func (p Poly) RenameVars(subst map[VarID]VarID) Poly {
	q := p.Clone()
	for i := range q {
		for j := range q[i].Terms {
			if nv, ok := subst[q[i].Terms[j].Var]; ok {
				q[i].Terms[j].Var = nv
			}
		}
	}
	q.Canon()
	return q
}

// Product is a product of polynomial factors: the factored form of a
// data-footprint or data-volume expression. The empty Product is the
// constant 1.
type Product struct {
	Factors []Poly
}

// ProductOf builds a product from deep copies of the given factors.
func ProductOf(factors ...Poly) Product {
	pr := Product{Factors: make([]Poly, len(factors))}
	for i, f := range factors {
		pr.Factors[i] = f.Clone()
	}
	return pr
}

// Clone returns a deep copy of pr.
func (pr Product) Clone() Product {
	c := Product{Factors: make([]Poly, len(pr.Factors))}
	for i, f := range pr.Factors {
		c.Factors[i] = f.Clone()
	}
	return c
}

// MulMono appends the monomial m as a new factor.
func (pr *Product) MulMono(m Monomial) {
	pr.Factors = append(pr.Factors, Poly{m.Clone()})
}

// MulVar appends the variable v as a new factor.
func (pr *Product) MulVar(v VarID) { pr.MulMono(MonoPow(1, v, 1)) }

// Eval evaluates the product exactly (including negative constants in
// factors) at the assignment x.
func (pr Product) Eval(x []float64) float64 {
	v := 1.0
	for _, f := range pr.Factors {
		v *= f.Eval(x)
	}
	return v
}

// Expand multiplies all factors into a single canonical polynomial. With
// relax true, each factor first drops its negative constant monomials
// (the posynomial relaxation); the result is then guaranteed
// all-positive if each factor's variable terms are positive.
func (pr Product) Expand(relax bool) Poly {
	r := PolyConst(1)
	for _, f := range pr.Factors {
		g := f
		if relax {
			g = f.DropNegativeConstants()
		}
		r = r.Mul(g)
	}
	return r
}

// ScaleVarMonomials multiplies, in every factor, every monomial that
// references a variable for which ofIter returns it, by the variable c.
// This implements Algorithm 1's replace(E, c^{l-1}, c^l·c^{l-1}) step
// under the invariant that each monomial references the trip-count
// variables of at most one iterator (which holds for all DF/DV
// expressions built by the dataflow package).
func (pr *Product) ScaleVarMonomials(ofIter func(VarID) int, it int, c VarID) {
	for fi := range pr.Factors {
		changed := false
		f := pr.Factors[fi]
		for mi := range f {
			hit := false
			for _, t := range f[mi].Terms {
				if ofIter(t.Var) == it {
					hit = true
					break
				}
			}
			if hit {
				f[mi] = f[mi].MulVar(c)
				changed = true
			}
		}
		if changed {
			pr.Factors[fi] = f.Canon()
		}
	}
}

// HasIter reports whether any factor references a variable belonging to
// iterator it (per ofIter).
func (pr Product) HasIter(ofIter func(VarID) int, it int) bool {
	for _, f := range pr.Factors {
		for _, m := range f {
			for _, t := range m.Terms {
				if ofIter(t.Var) == it {
					return true
				}
			}
		}
	}
	return false
}

// String renders the product using the names in vs.
func (pr Product) String(vs *VarSet) string {
	if len(pr.Factors) == 0 {
		return "1"
	}
	parts := make([]string, len(pr.Factors))
	for i, f := range pr.Factors {
		if f.IsMonomial() || f.IsConstant() {
			parts[i] = f.String(vs)
		} else {
			parts[i] = "(" + f.String(vs) + ")"
		}
	}
	return strings.Join(parts, " * ")
}

// Key returns a canonical serialization of the product for structural
// deduplication. Factors are individually canonicalized and sorted so that
// factor order does not affect the key. Single-monomial factors are
// merged into one monomial factor first.
func (pr Product) Key() string {
	mono := Const(1)
	var polys []string
	for _, f := range pr.Factors {
		g := f.Clone()
		g.Canon()
		if g.IsMonomial() {
			mono = mono.Mul(g[0])
			continue
		}
		polys = append(polys, g.Key())
	}
	sort.Strings(polys)
	var b strings.Builder
	b.WriteString(Poly{mono}.Key())
	for _, s := range polys {
		b.WriteByte('|')
		b.WriteString(s)
	}
	return b.String()
}

// SubstConst returns a copy with the given variables folded into the
// factor coefficients (see Poly.SubstConst).
func (pr Product) SubstConst(vals map[VarID]float64) Product {
	c := Product{Factors: make([]Poly, len(pr.Factors))}
	for i, f := range pr.Factors {
		c.Factors[i] = f.SubstConst(vals)
	}
	return c
}

// RenameVars returns a copy with variables substituted per subst (see
// Poly.RenameVars).
func (pr Product) RenameVars(subst map[VarID]VarID) Product {
	c := Product{Factors: make([]Poly, len(pr.Factors))}
	for i, f := range pr.Factors {
		c.Factors[i] = f.RenameVars(subst)
	}
	return c
}
