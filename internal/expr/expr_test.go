package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func newVars(t *testing.T, names ...string) (*VarSet, []VarID) {
	t.Helper()
	vs := &VarSet{}
	ids := make([]VarID, len(names))
	for i, n := range names {
		ids[i] = vs.NewVar(n)
	}
	return vs, ids
}

func TestVarSet(t *testing.T) {
	vs := &VarSet{}
	a := vs.NewVar("a")
	b := vs.NewVar("b")
	if vs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", vs.Len())
	}
	if vs.Name(a) != "a" || vs.Name(b) != "b" {
		t.Fatalf("names wrong: %q %q", vs.Name(a), vs.Name(b))
	}
	if got := vs.Name(VarID(99)); got != "v99" {
		t.Fatalf("out-of-range name = %q", got)
	}
}

func TestMonomialCanonMergesAndSorts(t *testing.T) {
	_, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	m := Monomial{Coeff: 3, Terms: []Term{{y, 2}, {x, 1}, {y, -2}}}
	m.Canon()
	if len(m.Terms) != 1 || m.Terms[0].Var != x || m.Terms[0].Exp != 1 {
		t.Fatalf("canon wrong: %+v", m)
	}
}

func TestMonomialMulPowEval(t *testing.T) {
	_, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	m := Mono(2, x, y).Mul(MonoPow(3, x, 2)) // 6 x^3 y
	if got := m.Eval([]float64{2, 5}); got != 6*8*5 {
		t.Fatalf("eval = %v, want 240", got)
	}
	inv := m.Inv()
	if got := inv.Eval([]float64{2, 5}); math.Abs(got-1.0/240) > 1e-15 {
		t.Fatalf("inv eval = %v", got)
	}
	sq := Mono(4, x).Pow(0.5) // 2 x^0.5
	if got := sq.Eval([]float64{9, 1}); math.Abs(got-6) > 1e-12 {
		t.Fatalf("pow eval = %v, want 6", got)
	}
}

func TestMonomialHasVarIsConst(t *testing.T) {
	_, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	m := Mono(2, x)
	if !m.HasVar(x) || m.HasVar(y) || m.IsConst() {
		t.Fatalf("predicates wrong on %+v", m)
	}
	if !Const(5).IsConst() {
		t.Fatal("Const should be const")
	}
}

func TestPolyCanonMergesDuplicates(t *testing.T) {
	_, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	p := PolyFrom(Mono(1, x, y), Mono(2, y, x), Mono(3, x), Mono(-3, x), Const(7))
	if len(p) != 2 {
		t.Fatalf("canon kept %d monomials (%v), want 2", len(p), p)
	}
	// Constant and 3*x*y remain.
	if got := p.Eval([]float64{2, 5}); got != 3*10+7 {
		t.Fatalf("eval = %v, want 37", got)
	}
}

func TestPolyArithmetic(t *testing.T) {
	_, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	p := PolyFrom(Mono(1, x), Const(1))  // x + 1
	q := PolyFrom(Mono(1, y), Const(-1)) // y - 1
	r := p.Mul(q)                        // x*y - x + y - 1
	at := func(xs, ys float64) float64 { return r.Eval([]float64{xs, ys}) }
	if got := at(3, 4); got != (3+1)*(4-1) {
		t.Fatalf("mul eval = %v, want 12", got)
	}
	s := p.Add(q) // x + y
	if got := s.Eval([]float64{3, 4}); got != 7 {
		t.Fatalf("add eval = %v, want 7", got)
	}
	sc := p.Scale(2)
	if got := sc.Eval([]float64{3, 0}); got != 8 {
		t.Fatalf("scale eval = %v, want 8", got)
	}
	mm := p.MulMono(Mono(2, y))
	if got := mm.Eval([]float64{3, 4}); got != 2*4*(3+1) {
		t.Fatalf("mulmono eval = %v, want 32", got)
	}
}

func TestPolyPredicates(t *testing.T) {
	_, ids := newVars(t, "x")
	x := ids[0]
	if !PolyConst(3).IsConstant() || !PolyConst(3).IsMonomial() {
		t.Fatal("const poly predicates")
	}
	if PolyConst(0) != nil {
		t.Fatal("PolyConst(0) should be nil")
	}
	p := PolyFrom(Mono(1, x), Const(-1))
	if p.AllPositive() {
		t.Fatal("AllPositive on signomial")
	}
	dp := p.DropNegativeConstants()
	if !dp.AllPositive() || len(dp) != 1 {
		t.Fatalf("DropNegativeConstants wrong: %v", dp)
	}
	if !p.HasVar(x) {
		t.Fatal("HasVar")
	}
	vars := map[VarID]bool{}
	p.Vars(vars)
	if !vars[x] || len(vars) != 1 {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestPolyKeyStructural(t *testing.T) {
	_, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	a := PolyFrom(Mono(1, x), Mono(2, y))
	b := PolyFrom(Mono(2, y), Mono(1, x))
	if a.Key() != b.Key() {
		t.Fatalf("keys differ for equal polys: %q vs %q", a.Key(), b.Key())
	}
	c := PolyFrom(Mono(1, y), Mono(2, x))
	if a.Key() == c.Key() {
		t.Fatal("keys equal for different polys")
	}
}

func TestPolyRenameVars(t *testing.T) {
	_, ids := newVars(t, "h", "w")
	h, w := ids[0], ids[1]
	p := PolyFrom(Mono(1, h), Mono(2, w))
	q := p.RenameVars(map[VarID]VarID{h: w, w: h})
	want := PolyFrom(Mono(1, w), Mono(2, h))
	if q.Key() != want.Key() {
		t.Fatalf("rename = %v, want %v", q, want)
	}
}

func TestProductEvalExpand(t *testing.T) {
	vs, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	ext := PolyFrom(Mono(1, x), Mono(1, y), Const(-1)) // x + y - 1
	pr := ProductOf(ext)
	pr.MulVar(x)
	pr.MulMono(Mono(2, y))
	// 2*x*y*(x+y-1)
	xs := []float64{3, 4}
	if got, want := pr.Eval(xs), 2.0*3*4*(3+4-1); got != want {
		t.Fatalf("eval = %v, want %v", got, want)
	}
	exact := pr.Expand(false)
	if got := exact.Eval(xs); got != pr.Eval(xs) {
		t.Fatalf("expand(false) eval = %v, want %v", got, pr.Eval(xs))
	}
	relaxed := pr.Expand(true) // 2*x*y*(x+y)
	if !relaxed.AllPositive() {
		t.Fatalf("relaxed not posynomial: %s", relaxed.String(vs))
	}
	if got, want := relaxed.Eval(xs), 2.0*3*4*(3+4); got != want {
		t.Fatalf("relaxed eval = %v, want %v", got, want)
	}
}

func TestProductScaleVarMonomials(t *testing.T) {
	vs, ids := newVars(t, "r_h", "r_r", "q_h")
	rh, rr, qh := ids[0], ids[1], ids[2]
	iterOf := func(v VarID) int {
		switch v {
		case rh, qh:
			return 0 // iterator h
		case rr:
			return 1 // iterator r
		}
		return -1
	}
	ext := PolyFrom(Mono(1, rh), Mono(1, rr), Const(-1))
	pr := ProductOf(ext)
	pr.ScaleVarMonomials(iterOf, 0, qh)
	want := "(-1 + r_h*q_h + r_r)"
	if got := pr.String(vs); got != want {
		t.Fatalf("scaled = %q, want %q", got, want)
	}
	if !pr.HasIter(iterOf, 1) || !pr.HasIter(iterOf, 0) {
		t.Fatal("HasIter false negative")
	}
	if pr.HasIter(iterOf, 5) {
		t.Fatal("HasIter false positive")
	}
}

func TestProductKeyOrderIndependent(t *testing.T) {
	_, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	ext := PolyFrom(Mono(1, x), Mono(1, y))
	a := ProductOf(ext, Poly{Mono(2, x)})
	b := ProductOf(Poly{Mono(2, x)}, ext)
	if a.Key() != b.Key() {
		t.Fatalf("product keys differ: %q vs %q", a.Key(), b.Key())
	}
	// Monomial factors merge: x * 2y  ==  2xy as a single factor.
	c := ProductOf(Poly{Mono(1, x)}, Poly{Mono(2, y)})
	d := ProductOf(Poly{Mono(2, x, y)})
	if c.Key() != d.Key() {
		t.Fatalf("merged monomial keys differ: %q vs %q", c.Key(), d.Key())
	}
}

func TestStringRendering(t *testing.T) {
	vs, ids := newVars(t, "x", "y")
	x, y := ids[0], ids[1]
	m := Mono(2, x, y)
	if got := m.String(vs); got != "2*x*y" {
		t.Fatalf("mono string = %q", got)
	}
	if got := MonoPow(1, x, -1).String(vs); got != "x^-1" {
		t.Fatalf("pow string = %q", got)
	}
	p := PolyFrom(Mono(1, x), Const(-1))
	if got := p.String(vs); !strings.Contains(got, "x") {
		t.Fatalf("poly string = %q", got)
	}
	if got := Poly(nil).String(vs); got != "0" {
		t.Fatalf("zero poly string = %q", got)
	}
	if got := (Product{}).String(vs); got != "1" {
		t.Fatalf("empty product string = %q", got)
	}
}

// Property: Expand(false) equals the product of factor evaluations for
// random small polynomials and assignments.
func TestQuickExpandMatchesEval(t *testing.T) {
	f := func(c1, c2, c3 int8, x0, x1 uint8) bool {
		vs := &VarSet{}
		x := vs.NewVar("x")
		y := vs.NewVar("y")
		f1 := PolyFrom(Mono(float64(c1), x), Const(float64(c2)))
		f2 := PolyFrom(Mono(float64(c3), y), Mono(1, x, y))
		pr := ProductOf(f1, f2)
		xs := []float64{float64(x0%7) + 1, float64(x1%7) + 1}
		a := pr.Eval(xs)
		b := pr.Expand(false).Eval(xs)
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Poly.Add/Mul agree with pointwise arithmetic.
func TestQuickPolyRing(t *testing.T) {
	f := func(a1, a2, b1, b2 int8, xv uint8) bool {
		vs := &VarSet{}
		x := vs.NewVar("x")
		p := PolyFrom(Mono(float64(a1), x), Const(float64(a2)))
		q := PolyFrom(Mono(float64(b1), x), Const(float64(b2)))
		xs := []float64{float64(xv%9) + 1}
		sum := p.Add(q).Eval(xs)
		prod := p.Mul(q).Eval(xs)
		pe, qe := p.Eval(xs), q.Eval(xs)
		return math.Abs(sum-(pe+qe)) < 1e-9*(1+math.Abs(pe+qe)) &&
			math.Abs(prod-pe*qe) < 1e-9*(1+math.Abs(pe*qe))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Canon is idempotent and preserves value.
func TestQuickCanonIdempotent(t *testing.T) {
	f := func(cs [4]int8, xv uint8) bool {
		vs := &VarSet{}
		x := vs.NewVar("x")
		y := vs.NewVar("y")
		p := Poly{
			Mono(float64(cs[0]), x), Mono(float64(cs[1]), x),
			Mono(float64(cs[2]), y, x), Const(float64(cs[3])),
		}
		xs := []float64{float64(xv%5) + 1, 2}
		before := p.Clone().Eval(xs)
		p.Canon()
		after1 := p.Eval(xs)
		k1 := p.Key()
		p.Canon()
		return math.Abs(before-after1) < 1e-9*(1+math.Abs(before)) && p.Key() == k1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolySubstConst(t *testing.T) {
	_, ids := newVars(t, "h", "r")
	h, r := ids[0], ids[1]
	// t_h + t_r − 1 with t_r = 3 → t_h + 2.
	p := PolyFrom(Mono(1, h), Mono(1, r), Const(-1))
	q := p.SubstConst(map[VarID]float64{r: 3})
	want := PolyFrom(Mono(1, h), Const(2))
	if q.Key() != want.Key() {
		t.Fatalf("SubstConst = %v, want %v", q, want)
	}
	if !q.AllPositive() {
		t.Fatal("folded poly should be a posynomial")
	}
	// Exponents are honored: 2·r^2 with r=3 → 18.
	e := PolyFrom(MonoPow(2, r, 2)).SubstConst(map[VarID]float64{r: 3})
	if len(e) != 1 || e[0].Coeff != 18 || !e[0].IsConst() {
		t.Fatalf("SubstConst exp = %v", e)
	}
}

func TestProductSubstConst(t *testing.T) {
	_, ids := newVars(t, "h", "r")
	h, r := ids[0], ids[1]
	pr := ProductOf(
		PolyFrom(Mono(1, h), Mono(1, r), Const(-1)),
		PolyFrom(Mono(1, r)),
	)
	q := pr.SubstConst(map[VarID]float64{r: 3})
	x := []float64{5, 999} // r's slot ignored after folding
	if got, want := q.Eval(x), (5.0+3-1)*3; got != want {
		t.Fatalf("folded eval = %v, want %v", got, want)
	}
	if !q.Expand(true).AllPositive() {
		t.Fatal("folded product should expand to posynomial")
	}
}

func TestPolyIdentical(t *testing.T) {
	_, v := newVars(t, "a", "b")
	p := PolyFrom(Mono(2, v[0]), Const(-1))
	if !p.Identical(p.Clone()) {
		t.Fatal("a polynomial is not identical to its clone")
	}
	for name, q := range map[string]Poly{
		"coefficient": PolyFrom(Mono(3, v[0]), Const(-1)),
		"variable":    PolyFrom(Mono(2, v[1]), Const(-1)),
		"exponent":    PolyFrom(MonoPow(2, v[0], 2), Const(-1)),
		"length":      PolyFrom(Mono(2, v[0])),
	} {
		if p.Identical(q) || q.Identical(p) {
			t.Errorf("%s: %v reported identical to %v", name, q, p)
		}
	}
	// Eval can tell a -0 coefficient from a +0 one, so Identical does too.
	if (Poly{Const(0)}).Identical(Poly{Const(math.Copysign(0, -1))}) {
		t.Error("signed zeros reported identical")
	}
}
