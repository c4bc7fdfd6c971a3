package solver

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// goldenFile holds lowered GPs captured from the pipeline (resnet18_L6
// energy, resnet18_L2 delay, resnet18_L12 energy; cold, phase-I and
// warm-started solves, several ending Suboptimal after a stalled
// centering step) together with the solver's results on them, stored
// as float64 bit patterns.
const goldenFile = "testdata/golden_solves.json"

type goldenLSE struct {
	A [][][2]float64 `json:"a"` // per row: (column, coefficient) pairs
	B []float64      `json:"b"`
}

type goldenCase struct {
	Name      string             `json:"name"`
	N         int                `json:"n"`
	Obj       goldenLSE          `json:"obj"`
	Ineq      []goldenLSE        `json:"ineq"`
	Aeq       [][][2]float64     `json:"aeq"`
	Beq       []float64          `json:"beq"`
	Hint      []float64          `json:"hint"`
	WarmStart bool               `json:"warm_start"`
	Opts      map[string]float64 `json:"opts"`
	Want      struct {
		Y         []uint64 `json:"y_bits"`
		Objective uint64   `json:"objective_bits"`
		Gap       uint64   `json:"gap_bits"`
		Status    string   `json:"status"`
		Newton    int      `json:"newton"`
		PhaseI    bool     `json:"phase1"`
	} `json:"want"`
}

// denseRow expands (column, coefficient) pairs to an n-vector.
func denseRow(n int, entries [][2]float64) []float64 {
	row := make([]float64, n)
	for _, e := range entries {
		row[int(e[0])] = e[1]
	}
	return row
}

// lse rebuilds the literal LSE gp.Program.Lower produced.
func (g goldenLSE) lse(n int) LSE {
	f := LSE{A: make([][]float64, len(g.A)), B: g.B}
	for k, r := range g.A {
		f.A[k] = denseRow(n, r)
	}
	return f
}

func (c *goldenCase) problem() *Problem {
	p := &Problem{N: c.N, Obj: c.Obj.lse(c.N)}
	for _, f := range c.Ineq {
		p.Ineq = append(p.Ineq, f.lse(c.N))
	}
	if len(c.Aeq) > 0 {
		p.Aeq = linalg.NewDense(len(c.Aeq), c.N)
		for i, r := range c.Aeq {
			copy(p.Aeq.Data[i*c.N:], denseRow(c.N, r))
		}
		p.Beq = c.Beq
	}
	return p
}

func (c *goldenCase) options(ws *Workspace) Options {
	return Options{
		Tol:          c.Opts["tol"],
		NewtonTol:    c.Opts["newton_tol"],
		Mu:           c.Opts["mu"],
		T0:           c.Opts["t0"],
		MaxNewton:    int(c.Opts["max_newton"]),
		MaxCentering: int(c.Opts["max_centering"]),
		Box:          c.Opts["box"],
		WarmStart:    c.WarmStart,
		Workspace:    ws,
	}
}

func loadGolden(tb testing.TB) []goldenCase {
	tb.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		tb.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		tb.Fatal(err)
	}
	if len(cases) == 0 {
		tb.Fatalf("%s: no cases", goldenFile)
	}
	return cases
}

// TestGoldenSolves pins every captured solve bit for bit: the same Y,
// Objective, Gap, Status and phase-I use as when the file was written,
// in no more Newton iterations. Each case is solved on a fresh
// workspace and again on one workspace shared across all cases, the
// way the pipeline pools them.
func TestGoldenSolves(t *testing.T) {
	cases := loadGolden(t)
	shared := NewWorkspace()
	suboptimal := 0
	for i := range cases {
		c := &cases[i]
		if c.Want.Status == Suboptimal.String() {
			suboptimal++
		}
		for _, ws := range []*Workspace{NewWorkspace(), shared} {
			res, err := Solve(c.problem(), c.Hint, c.options(ws))
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if res.Status.String() != c.Want.Status || res.PhaseI != c.Want.PhaseI {
				t.Fatalf("%s: status %v phase1 %v, want %s phase1 %v",
					c.Name, res.Status, res.PhaseI, c.Want.Status, c.Want.PhaseI)
			}
			if got := math.Float64bits(res.Objective); got != c.Want.Objective {
				t.Fatalf("%s: objective %v, want %v", c.Name, res.Objective, math.Float64frombits(c.Want.Objective))
			}
			if got := math.Float64bits(res.Gap); got != c.Want.Gap {
				t.Fatalf("%s: gap %v, want %v", c.Name, res.Gap, math.Float64frombits(c.Want.Gap))
			}
			if len(res.Y) != len(c.Want.Y) {
				t.Fatalf("%s: len(Y) = %d, want %d", c.Name, len(res.Y), len(c.Want.Y))
			}
			for j, y := range res.Y {
				if math.Float64bits(y) != c.Want.Y[j] {
					t.Fatalf("%s: Y[%d] = %v, want %v", c.Name, j, y, math.Float64frombits(c.Want.Y[j]))
				}
			}
			if res.Newton > c.Want.Newton {
				t.Fatalf("%s: %d Newton iterations, more than the recorded %d", c.Name, res.Newton, c.Want.Newton)
			}
		}
	}
	if suboptimal == 0 {
		t.Fatalf("%s has no Suboptimal case", goldenFile)
	}
}

// TestNewtonStallsCounted checks solver.newton_stalls on the golden
// cases: a solve that now needs fewer Newton iterations than recorded
// got there through the exit for a step that leaves z unchanged, which
// must be counted, and some case takes it.
func TestNewtonStallsCounted(t *testing.T) {
	var total int64
	for _, c := range loadGolden(t) {
		reg := obs.NewRegistry()
		opts := c.options(nil)
		opts.Obs = &obs.Obs{Metrics: reg}
		res, err := Solve(c.problem(), c.Hint, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		stalls := reg.Counter("solver.newton_stalls").Value()
		if res.Newton < c.Want.Newton && stalls == 0 {
			t.Errorf("%s: %d Newton iterations (recorded %d) but no stall counted", c.Name, res.Newton, c.Want.Newton)
		}
		total += stalls
	}
	if total == 0 {
		t.Fatal("no golden solve counted a Newton stall")
	}
}

// BenchmarkSolveL6 solves the captured resnet18_L6 GPs on one pooled
// workspace: the solver.Solve rung of the bench ladder.
func BenchmarkSolveL6(b *testing.B) {
	var cases []goldenCase
	for _, c := range loadGolden(b) {
		if strings.HasPrefix(c.Name, "resnet18_L6/") {
			cases = append(cases, c)
		}
	}
	probs := make([]*Problem, len(cases))
	for i := range cases {
		probs[i] = cases[i].problem()
	}
	ws := NewWorkspace()
	newton := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range cases {
			res, err := Solve(probs[i], cases[i].Hint, cases[i].options(ws))
			if err != nil {
				b.Fatal(err)
			}
			newton += res.Newton
		}
	}
	b.ReportMetric(float64(newton)/float64(b.N), "newton/op")
}
