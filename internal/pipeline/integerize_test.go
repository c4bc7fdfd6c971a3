package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/workloads"
)

func TestNClosest(t *testing.T) {
	cands := []int64{1, 2, 4, 8, 16, 32}
	got := nClosest(cands, 7, 2)
	if len(got) != 2 || got[0] != 8 || got[1] != 4 {
		t.Fatalf("nClosest = %v", got)
	}
	if got := nClosest(cands, 0.5, 1); got[0] != 1 {
		t.Fatalf("nClosest low = %v", got)
	}
	if got := nClosest(nil, 5, 2); got != nil {
		t.Fatalf("nClosest nil = %v", got)
	}
	if got := nClosest(cands, 100, 99); len(got) != len(cands) {
		t.Fatalf("nClosest clamp = %v", got)
	}
}

func TestPow2Candidates(t *testing.T) {
	got := pow2Candidates(12, 2)
	if len(got) != 2 || got[0] != 8 || got[1] != 16 {
		t.Fatalf("pow2Candidates(12, 2) = %v", got)
	}
	got = pow2Candidates(12, 3)
	if len(got) != 3 || got[0] != 4 || got[2] != 16 {
		t.Fatalf("pow2Candidates(12, 3) = %v", got)
	}
	got = pow2Candidates(0.3, 2)
	for _, v := range got {
		if v < 1 {
			t.Fatalf("pow2Candidates below 1: %v", got)
		}
	}
}

// goldenSearch is one integerization search captured from a pipeline
// run: its inputs (layer, options, permutation pair, the relaxed
// solution's float bits) and its outcome (winner, report float bits and
// visit count).
type goldenSearch struct {
	Layer     string            `json:"layer"`
	Criterion string            `json:"criterion"`
	Mode      string            `json:"mode"`
	RS        string            `json:"rs"`
	NDiv      int               `json:"ndiv"`
	NPow2     int               `json:"npow2"`
	MinUtil   float64           `json:"min_util"`
	MaxCand   int               `json:"max_cand"`
	PermL1    []int             `json:"perm_l1"`
	PermSRAM  []int             `json:"perm_sram"`
	X         []uint64          `json:"x_bits"`
	Visited   int               `json:"visited"`
	Found     bool              `json:"found"`
	Arch      *goldenArch       `json:"arch,omitempty"`
	Trips     [][]int64         `json:"trips,omitempty"`
	Ints      map[string]int64  `json:"report_ints,omitempty"`
	Bits      map[string]uint64 `json:"report_bits,omitempty"`
}

type goldenArch struct {
	PEs  int64 `json:"pes"`
	Regs int64 `json:"regs"`
	SRAM int64 `json:"sram"`
}

// reportBits flattens the report fields the golden file records.
func reportBits(r *model.Report) (map[string]int64, map[string]uint64) {
	ints := map[string]int64{"Ops": r.Ops, "PEsUsed": r.PEsUsed, "Violations": int64(len(r.Violations))}
	bits := map[string]uint64{}
	for k, v := range map[string]float64{
		"Energy": r.Energy, "EnergyPerMAC": r.EnergyPerMAC,
		"Breakdown.Compute": r.Breakdown.Compute, "Breakdown.RegFile": r.Breakdown.RegFile,
		"Breakdown.SRAM": r.Breakdown.SRAM, "Breakdown.DRAM": r.Breakdown.DRAM, "Breakdown.NoC": r.Breakdown.NoC,
		"Cycles": r.Cycles, "IPC": r.IPC, "Utilization": r.Utilization,
		"TrafficSR": r.TrafficSR, "TrafficDS": r.TrafficDS,
		"RegFootprint": r.RegFootprint, "SRAMFootprint": r.SRAMFootprint,
	} {
		bits[k] = math.Float64bits(v)
	}
	return ints, bits
}

// TestIntegerizeGolden replays captured integerization searches — the
// largest delay layer (resnet18_L2, 1.86 M candidates), an energy
// layer, a co-design delay layer and a MinUtilization search — and
// requires the same winner, the same report bits and the same visit
// count.
func TestIntegerizeGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "integerize_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Searches []goldenSearch `json:"searches"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Searches) == 0 {
		t.Fatal("no golden searches")
	}
	for i, g := range golden.Searches {
		name := fmt.Sprintf("%d_%s_%s_%s_%s", i, g.Layer, g.Criterion, g.Mode, g.RS)
		t.Run(name, func(t *testing.T) {
			l, ok := workloads.ByName(g.Layer)
			if !ok {
				t.Fatalf("unknown layer %s", g.Layer)
			}
			p, err := l.Problem()
			if err != nil {
				t.Fatal(err)
			}
			a := arch.Eyeriss()
			opts := Options{Arch: &a, MinUtilization: g.MinUtil}
			for _, c := range []model.Criterion{model.MinEnergy, model.MinDelay, model.MinEDP} {
				if c.String() == g.Criterion {
					opts.Criterion = c
				}
			}
			if g.Mode == CoDesign.String() {
				opts.Mode = CoDesign
			}
			for _, rs := range []dataflow.RSPlacement{dataflow.RSAtRegister, dataflow.RSAtLevel1} {
				if rs.String() == g.RS {
					opts.Nest.RS = rs
				}
			}
			opts = opts.WithDefaults()
			if opts.Criterion.String() != g.Criterion || opts.Mode.String() != g.Mode || opts.Nest.RS.String() != g.RS {
				t.Fatalf("cannot rebuild options %s/%s/%s", g.Criterion, g.Mode, g.RS)
			}
			if opts.NDiv != g.NDiv || opts.NPow2 != g.NPow2 || opts.MaxCandidates != g.MaxCand {
				t.Fatalf("defaults moved: ndiv %d npow2 %d cap %d, golden %d %d %d",
					opts.NDiv, opts.NPow2, opts.MaxCandidates, g.NDiv, g.NPow2, g.MaxCand)
			}
			nest, av, _, err := newNest(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.X) != nest.Vars.Len() {
				t.Fatalf("x has %d entries, nest has %d variables", len(g.X), nest.Vars.Len())
			}
			x := make([]float64, len(g.X))
			for i, b := range g.X {
				x[i] = math.Float64frombits(b)
			}
			iopt := intOptions{nDiv: g.NDiv, nPow2: g.NPow2, minUtil: g.MinUtil, maxCand: g.MaxCand}
			res := searchIntegerCandidates(model.NewEvaluator(nest), nest,
				dataflow.StandardPerms(g.PermL1, g.PermSRAM), x, av, iopt, opts.Criterion)
			if res.visited != g.Visited {
				t.Errorf("visited %d, golden %d", res.visited, g.Visited)
			}
			if (res.best != nil) != g.Found {
				t.Fatalf("found %v, golden %v", res.best != nil, g.Found)
			}
			if res.best == nil {
				return
			}
			ac := res.best.archCfg
			if got := (goldenArch{ac.PEs, ac.Regs, ac.SRAM}); got != *g.Arch {
				t.Errorf("arch %+v, golden %+v", got, *g.Arch)
			}
			if !reflect.DeepEqual(res.best.mapping.Trips, g.Trips) {
				t.Errorf("trips %v, golden %v", res.best.mapping.Trips, g.Trips)
			}
			ints, bits := reportBits(res.rep)
			if !reflect.DeepEqual(ints, g.Ints) {
				t.Errorf("report ints %v, golden %v", ints, g.Ints)
			}
			for k, b := range g.Bits {
				if bits[k] != b {
					t.Errorf("report %s = %v, golden %v", k, math.Float64frombits(bits[k]), math.Float64frombits(b))
				}
			}
			if len(bits) != len(g.Bits) {
				t.Errorf("report has %d float fields, golden %d", len(bits), len(g.Bits))
			}
		})
	}
}

// TestMinUtilizationRetryCountsBothPasses: when no candidate reaches
// MinUtilization, the search retries without the filter, and the
// reported candidate count covers both passes. A 4×4×4 matmul can use
// at most 64 PEs, fewer than half of Eyeriss's 168, so every search
// retries and the first pass visits exactly what the second does.
func TestMinUtilizationRetryCountsBothPasses(t *testing.T) {
	p := loopnest.MatMul(4, 4, 4)
	a := arch.Eyeriss()
	run := func(minUtil float64) *Result {
		t.Helper()
		res, err := Execute(context.Background(), p, Options{Arch: &a, MinUtilization: minUtil, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, filtered := run(0), run(0.5)
	if plain.Stats.Candidates == 0 {
		t.Fatal("no candidates")
	}
	if want := 2 * plain.Stats.Candidates; filtered.Stats.Candidates != want {
		t.Fatalf("MinUtilization 0.5: %d candidates, want both passes = %d", filtered.Stats.Candidates, want)
	}
	if !reflect.DeepEqual(plain.Best, filtered.Best) {
		t.Fatalf("retry picked a different design:\n%+v\n%+v", plain.Best, filtered.Best)
	}
}
