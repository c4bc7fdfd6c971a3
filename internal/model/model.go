// Package model is the reproduction's substitute for the Timeloop
// accelerator model: it evaluates a concrete integer mapping (per-level
// trip counts plus per-level loop permutations) of a loop-nest problem on
// an architecture, producing exact per-boundary access counts (with
// spatial multicast), an energy breakdown per the paper's Eq. 3, a delay
// estimate (maximum over component throughputs, Section V.B), and
// capacity/utilization checks.
//
// Exactness note: unlike the geometric-program relaxation, evaluation
// here uses the exact footprint/volume expressions including the negative
// constants of convolution extents.
package model

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/expr"
)

// ErrBadMapping reports a structurally invalid mapping.
var ErrBadMapping = errors.New("model: invalid mapping")

// Criterion selects an optimization objective for searches and
// comparisons over reports.
type Criterion int

const (
	// MinEnergy minimizes total pJ.
	MinEnergy Criterion = iota
	// MinDelay minimizes total cycles.
	MinDelay
	// MinEDP minimizes the energy-delay product (pJ·cycles) — the
	// objective the paper mentions as expressible but does not evaluate.
	MinEDP
)

func (c Criterion) String() string {
	switch c {
	case MinDelay:
		return "delay"
	case MinEDP:
		return "edp"
	default:
		return "energy"
	}
}

// Score extracts the criterion's objective value from a report.
func Score(c Criterion, r *Report) float64 {
	switch c {
	case MinDelay:
		return r.Cycles
	case MinEDP:
		return r.Energy * r.Cycles
	default:
		return r.Energy
	}
}

// Mapping is a concrete design point: integer trip counts per level per
// iterator and iterator orders for the temporal copy levels.
type Mapping struct {
	// Perms[l] is the outer-to-inner iterator order of copy level l
	// (nil for non-copy levels), as accepted by Nest.ComputeVolumes.
	Perms [][]int
	// Trips[l][it] is the integer trip count of iterator it at level l
	// (0 entries mean 1).
	Trips [][]int64
}

// Clone returns a deep copy of the mapping.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{
		Perms: make([][]int, len(m.Perms)),
		Trips: make([][]int64, len(m.Trips)),
	}
	for i, p := range m.Perms {
		if p != nil {
			c.Perms[i] = append([]int(nil), p...)
		}
	}
	for i, t := range m.Trips {
		c.Trips[i] = append([]int64(nil), t...)
	}
	return c
}

// EnergyBreakdown itemizes the Eq. 3 energy components (pJ).
type EnergyBreakdown struct {
	Compute float64 // (4ε_R + ε_op)·N_ops
	RegFile float64 // ε_R · S↔R traffic
	SRAM    float64 // ε_S · (S↔R + D↔S traffic)
	DRAM    float64 // ε_D · D↔S traffic
	NoC     float64 // ε_hop · √P · S↔R traffic (optional extension)
}

// Total sums the components.
func (b EnergyBreakdown) Total() float64 {
	return b.Compute + b.RegFile + b.SRAM + b.DRAM + b.NoC
}

// Report is the evaluation result for one mapping on one architecture.
type Report struct {
	Ops          int64
	Energy       float64 // pJ
	EnergyPerMAC float64 // pJ/MAC
	Breakdown    EnergyBreakdown

	Cycles float64
	IPC    float64 // MACs per cycle

	PEsUsed     int64
	Utilization float64 // PEsUsed / PEs

	// TrafficSR and TrafficDS are total words moved across the
	// SRAM↔register and DRAM↔SRAM boundaries (read-write tensors
	// counted twice per the paper).
	TrafficSR float64
	TrafficDS float64
	// RegFootprint and SRAMFootprint are the exact buffer requirements.
	RegFootprint  float64
	SRAMFootprint float64

	// Violations lists capacity/shape constraint failures; empty means
	// the mapping is valid for the architecture.
	Violations []string
}

// Valid reports whether the mapping satisfied all constraints.
func (r *Report) Valid() bool { return len(r.Violations) == 0 }

// Evaluator evaluates mappings of one nest, caching the symbolic volume
// expressions per permutation choice (they are trip-value independent).
// It is safe for concurrent use.
type Evaluator struct {
	Nest *dataflow.Nest

	mu    sync.Mutex
	cache map[string]*dataflow.Volumes // guarded by mu
}

// NewEvaluator wraps a nest.
func NewEvaluator(n *dataflow.Nest) *Evaluator {
	return &Evaluator{Nest: n, cache: map[string]*dataflow.Volumes{}}
}

func permKey(perms [][]int) string {
	var b strings.Builder
	for _, p := range perms {
		for _, it := range p {
			fmt.Fprintf(&b, "%d,", it)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// volumes returns (possibly cached) symbolic volumes for a permutation
// choice.
func (e *Evaluator) volumes(perms [][]int) (*dataflow.Volumes, error) {
	key := permKey(perms)
	e.mu.Lock()
	v, ok := e.cache[key]
	e.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := e.Nest.ComputeVolumes(perms)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.cache[key] = v
	e.mu.Unlock()
	return v, nil
}

// Evaluate computes the report for a mapping on the architecture. The
// nest must be a standard 3-level-memory nest (two copy boundaries:
// registers and SRAM). Mappings that violate capacities still produce a
// full report, with Violations populated, so searches can reject them.
func (e *Evaluator) Evaluate(a *arch.Arch, m *Mapping) (*Report, error) {
	v, err := e.volumes(m.Perms)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMapping, err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := e.Nest.CheckTrips(m.Trips); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMapping, err)
	}
	if err := checkBoundaries(v); err != nil {
		return nil, err
	}
	x := e.Nest.Assignment(e.Nest.Vars.Len(), m.Trips)
	r := &Report{
		Ops:           e.Nest.Prob.Ops(),
		TrafficSR:     v.EvalTraffic(0, x),
		TrafficDS:     v.EvalTraffic(1, x),
		RegFootprint:  v.EvalFootprint(0, x),
		SRAMFootprint: v.EvalFootprint(1, x),
		PEsUsed:       1,
	}
	for it := range e.Nest.Prob.Iters {
		r.PEsUsed *= spatialTrips(e.Nest, m.Trips, it)
	}
	r.finish(a)
	r.Violations = r.violations(a)
	return r, nil
}

func checkBoundaries(v *dataflow.Volumes) error {
	if len(v.Boundaries) != 2 {
		return fmt.Errorf("%w: need exactly 2 memory boundaries, nest has %d", ErrBadMapping, len(v.Boundaries))
	}
	return nil
}

// spatialTrips returns iterator it's share of PEsUsed: the product of
// its trips above 1 at the nest's spatial levels.
func spatialTrips(n *dataflow.Nest, trips [][]int64, it int) int64 {
	p := int64(1)
	for li := range n.Levels {
		if n.Levels[li].Kind != dataflow.Spatial || n.Levels[li].Trips[it] == expr.NoVar {
			continue
		}
		if tv := tripAt(trips, li, it); tv > 1 {
			p *= tv
		}
	}
	return p
}

// computeCycles is the compute term of the delay model: ops spread over
// the PEs in use. It bounds Cycles from below, which lets a delay search
// skip candidates that cannot beat its incumbent.
func computeCycles(ops float64, pesUsed int64) float64 {
	return ops / float64(pesUsed)
}

// finish fills the fields that follow from r's Ops, traffic, footprints
// and PEsUsed on a: utilization, the energy breakdown of Eq. 3 (plus
// the optional NoC extension) and the delay of Section V.B. Both
// Evaluator.Evaluate and Table.Evaluate end here, so the two cannot
// disagree.
func (r *Report) finish(a *arch.Arch) {
	r.Utilization = float64(r.PEsUsed) / float64(a.PEs)

	epsR := a.RegEnergy()
	epsS := a.SRAMEnergy()
	epsD := a.Tech.EnergyDRAM
	ops := float64(r.Ops)
	r.Breakdown = EnergyBreakdown{
		Compute: (4*epsR + a.Tech.EnergyMAC) * ops,
		RegFile: epsR * r.TrafficSR,
		SRAM:    epsS * (r.TrafficSR + r.TrafficDS),
		DRAM:    epsD * r.TrafficDS,
	}
	if a.Tech.EnergyNoCHop > 0 {
		r.Breakdown.NoC = a.Tech.EnergyNoCHop * math.Sqrt(float64(r.PEsUsed)) * r.TrafficSR
	}
	r.Energy = r.Breakdown.Total()
	r.EnergyPerMAC = r.Energy / ops

	// Delay: max over component throughputs.
	compute := computeCycles(ops, r.PEsUsed)
	regPort := 4 * ops / (float64(r.PEsUsed) * a.Tech.BWReg)
	sram := (r.TrafficSR + r.TrafficDS) / a.Tech.BWSRAM
	dram := r.TrafficDS / a.Tech.BWDRAM
	r.Cycles = math.Max(math.Max(compute, regPort), math.Max(sram, dram))
	r.IPC = ops / r.Cycles
}

// violations lists r's capacity violations on a (nil when it fits).
func (r *Report) violations(a *arch.Arch) []string {
	var viols []string
	if r.RegFootprint > float64(a.Regs) {
		viols = append(viols, fmt.Sprintf("register footprint %.0f > %d", r.RegFootprint, a.Regs))
	}
	if r.SRAMFootprint > float64(a.SRAM) {
		viols = append(viols, fmt.Sprintf("SRAM footprint %.0f > %d", r.SRAMFootprint, a.SRAM))
	}
	if r.PEsUsed > a.PEs {
		viols = append(viols, fmt.Sprintf("PEs used %d > %d", r.PEsUsed, a.PEs))
	}
	return viols
}

func tripAt(trips [][]int64, li, it int) int64 {
	if li < len(trips) && it < len(trips[li]) && trips[li][it] > 0 {
		return trips[li][it]
	}
	return 1
}

// UniformMapping builds a trivial valid mapping that executes everything
// sequentially on one PE with unit tiles everywhere except level 0 trips
// forced by pins. It is the fallback/sanity mapping: the full extent of
// every free iterator is placed at the outermost (SRAM-tile) level.
func UniformMapping(n *dataflow.Nest) *Mapping {
	nl := len(n.Levels)
	ni := len(n.Prob.Iters)
	m := &Mapping{Perms: make([][]int, nl), Trips: make([][]int64, nl)}
	for li := 0; li < nl; li++ {
		m.Trips[li] = make([]int64, ni)
		for it := range m.Trips[li] {
			m.Trips[li][it] = 1
		}
	}
	// Pins (untiled full loops at their placement level).
	pinnedTotal := make([]int64, ni)
	for it := range pinnedTotal {
		pinnedTotal[it] = 1
	}
	for _, pin := range n.Pins {
		it := n.IterOfVar(pin.Var)
		li := levelOf(n, pin.Var)
		m.Trips[li][it] = int64(pin.Value)
		pinnedTotal[it] *= int64(pin.Value)
	}
	// Remaining extent at the outermost level where the iterator is active.
	for it, iter := range n.Prob.Iters {
		rest := iter.Extent / pinnedTotal[it]
		if rest <= 1 {
			continue
		}
		for li := nl - 1; li >= 0; li-- {
			if n.Levels[li].Trips[it] != expr.NoVar {
				m.Trips[li][it] *= rest
				break
			}
		}
	}
	// Copy-level perms: active iterators in declaration order.
	for li := 0; li < nl; li++ {
		lvl := &n.Levels[li]
		if lvl.Kind == dataflow.Temporal && lvl.Copy {
			perm := append([]int(nil), lvl.Active...)
			sort.Ints(perm)
			m.Perms[li] = perm
		}
	}
	return m
}

func levelOf(n *dataflow.Nest, v expr.VarID) int {
	for li := range n.Levels {
		for _, tv := range n.Levels[li].Trips {
			if tv == v {
				return li
			}
		}
	}
	return -1
}
