package model

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/workloads"
)

// randomTrips returns trips for iterator it over the nest's levels.
// Most are valid: base's trips (which honor the pins), or the extent
// split over the iterator's levels with small random divisors at the
// inner levels and the rest at the outermost, so that many fit a
// buffer. The rest are random and usually fail Nest.CheckTrips (wrong
// product, trip at an inactive level, or a pin mismatch).
func randomTrips(rng *rand.Rand, n *dataflow.Nest, base *Mapping, it int) []int64 {
	tr := make([]int64, len(n.Levels))
	for li := range tr {
		tr[li] = 1
	}
	switch rng.Intn(10) {
	case 0:
		for li := range tr {
			tr[li] = int64(1 + rng.Intn(4))
		}
		return tr
	case 1, 2, 3:
		for li := range tr {
			tr[li] = base.Trips[li][it]
		}
		return tr
	}
	var levels []int
	for li := range n.Levels {
		if n.Levels[li].Trips[it] != -1 {
			levels = append(levels, li)
		}
	}
	rest := n.Prob.Iters[it].Extent
	for _, li := range levels[:len(levels)-1] {
		var small []int64
		limit := []int64{1, 2, 4}[rng.Intn(3)]
		for _, d := range loopnest.Divisors(rest) {
			if d <= limit {
				small = append(small, d)
			}
		}
		tr[li] = small[rng.Intn(len(small))]
		rest /= tr[li]
	}
	tr[levels[len(levels)-1]] = rest
	return tr
}

// checkTable compares Table.Evaluate with Evaluator.Evaluate on random
// selections from tables of random choices for every iterator with a
// trip variable.
func checkTable(t *testing.T, rng *rand.Rand, n *dataflow.Nest, archs []arch.Arch, selections int) {
	t.Helper()
	ev := NewEvaluator(n)
	base := UniformMapping(n)
	var (
		dims           []Choices
		tab            *Table
		sel            []int
		valid, invalid int
	)
	for k := 0; k < selections; k++ {
		if k%20 == 0 {
			// A fresh table every 20 selections.
			dims = nil
			for it := range n.Prob.Iters {
				if len(n.DimTripVars(it)) == 0 {
					continue
				}
				ch := Choices{Iter: it}
				for c := 0; c < 1+rng.Intn(4); c++ {
					ch.Trips = append(ch.Trips, randomTrips(rng, n, base, it))
				}
				dims = append(dims, ch)
			}
			rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
			var err error
			if tab, err = ev.Tabulate(base.Perms, dims); err != nil {
				t.Fatal(err)
			}
			sel = make([]int, len(dims))
		}
		for d := range sel {
			sel[d] = rng.Intn(len(dims[d].Trips))
		}
		tab.Select(sel)
		m := tab.Mapping()
		for d, ch := range dims {
			for li := range n.Levels {
				if got, want := m.Trips[li][ch.Iter], ch.Trips[sel[d]][li]; got != want {
					t.Fatalf("Mapping trip [%d][%d] = %d, want %d", li, ch.Iter, got, want)
				}
			}
		}
		if tab.TripsOK() != (n.CheckTrips(m.Trips) == nil) {
			t.Fatalf("TripsOK %v, CheckTrips %v", tab.TripsOK(), n.CheckTrips(m.Trips))
		}
		for i := range archs {
			a := &archs[i]
			want, err := ev.Evaluate(a, m)
			var got Report
			ok := tab.Evaluate(a, &got)
			if wantOK := err == nil && want.Valid(); ok != wantOK {
				t.Fatalf("%v on %v: Table.Evaluate %v, Evaluator.Evaluate err=%v report=%+v", m.Trips, a, ok, err, want)
			}
			if !ok {
				invalid++
				continue
			}
			valid++
			if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", *want); g != w {
				t.Fatalf("%v on %v:\ntable     %s\nevaluator %s", m.Trips, a, g, w)
			}
			if tab.PEsUsed() != want.PEsUsed || !(tab.ComputeCycles() <= want.Cycles) {
				t.Fatalf("PEsUsed %d / compute %v, report %d / %v", tab.PEsUsed(), tab.ComputeCycles(), want.PEsUsed, want.Cycles)
			}
		}
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("%d valid and %d invalid candidates: the property needs both", valid, invalid)
	}
}

// fixedArchs returns Eyeriss and a shrunken variant whose capacities
// most random tilings exceed.
func fixedArchs() []arch.Arch {
	e := arch.Eyeriss()
	small := e
	small.Regs, small.SRAM, small.PEs = 16, 2048, 12
	return []arch.Arch{e, small}
}

// codesignArchs returns random power-of-two architectures with the
// Eyeriss technology.
func codesignArchs(rng *rand.Rand) []arch.Arch {
	var out []arch.Arch
	for i := 0; i < 4; i++ {
		a := arch.Eyeriss()
		a.Name = "codesign"
		a.Regs = int64(1) << rng.Intn(10)
		a.SRAM = int64(1) << (8 + rng.Intn(10))
		a.PEs = int64(1 + rng.Intn(512))
		out = append(out, a)
	}
	return out
}

func TestTableMatchesEvaluatorTable2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range workloads.All() {
		p, err := l.Problem()
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range []dataflow.RSPlacement{dataflow.RSAtRegister, dataflow.RSAtLevel1} {
			t.Run(l.Name()+"/"+rs.String(), func(t *testing.T) {
				n, err := dataflow.StandardNest(p, dataflow.StandardOptions{RS: rs})
				if err != nil {
					t.Fatal(err)
				}
				checkTable(t, rng, n, fixedArchs(), 60)
			})
		}
	}
}

// TestTableMatchesEvaluatorTiledKernel tiles r and s (UntiledMax below
// their extent), so the input extents h+r−1 and w+s−1 are factors over
// two tabulated iterators.
func TestTableMatchesEvaluatorTiledKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range []string{"resnet18_L2", "resnet18_L6", "yolo9000_L1"} {
		l, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown layer %s", name)
		}
		p, err := l.Problem()
		if err != nil {
			t.Fatal(err)
		}
		n, err := dataflow.StandardNest(p, dataflow.StandardOptions{UntiledMax: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r := p.IterIndex("r"); p.Iters[r].Extent > 1 && len(n.DimTripVars(r)) != 4 {
			t.Fatalf("%s: r is not tiled", name)
		}
		checkTable(t, rng, n, fixedArchs(), 200)

		base := UniformMapping(n)
		var dims []Choices
		for it := range n.Prob.Iters {
			if len(n.DimTripVars(it)) == 4 {
				dims = append(dims, Choices{Iter: it, Trips: [][]int64{randomTrips(rng, n, base, it)}})
			}
		}
		tab, err := NewEvaluator(n).Tabulate(base.Perms, dims)
		if err != nil {
			t.Fatal(err)
		}
		two := 0
		for _, f := range tab.facs {
			if f.hi-f.lo == 2 {
				two++
			}
		}
		if two == 0 {
			t.Fatalf("%s: no factor depends on two tabulated iterators", name)
		}
	}
}

func TestTableMatchesEvaluatorEinsum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := loopnest.ParseEinsum("C[i,j] += A[i,k] * B[k,j]", map[string]int64{"i": 48, "j": 64, "k": 36})
	if err != nil {
		t.Fatal(err)
	}
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, rng, n, fixedArchs(), 300)
}

func TestTableMatchesEvaluatorCodesign(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, name := range []string{"resnet18_L6", "resnet18_L12", "yolo9000_L5"} {
		l, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown layer %s", name)
		}
		p, err := l.Problem()
		if err != nil {
			t.Fatal(err)
		}
		n, err := dataflow.StandardNest(p, dataflow.StandardOptions{RS: dataflow.RSAtLevel1})
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, rng, n, codesignArchs(rng), 100)
	}
}

func TestTabulateRejectsBadChoices(t *testing.T) {
	ev, m := matmulSetup(t)
	for name, dims := range map[string][]Choices{
		"repeated iterator": {{Iter: 0, Trips: [][]int64{{4, 2, 2, 4}}}, {Iter: 0, Trips: [][]int64{{4, 2, 2, 4}}}},
		"unknown iterator":  {{Iter: 7, Trips: [][]int64{{4, 2, 2, 4}}}},
		"no choices":        {{Iter: 0}},
		"short choice":      {{Iter: 0, Trips: [][]int64{{4, 16}}}},
	} {
		if _, err := ev.Tabulate(m.Perms, dims); err == nil {
			t.Errorf("%s: Tabulate accepted %v", name, dims)
		}
	}
}
