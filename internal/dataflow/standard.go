package dataflow

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/loopnest"
)

// RSPlacement selects at which level the untiled convolution kernel loops
// (r, s) execute (the paper prunes tiling of these loops because kernel
// extents are small odd numbers).
type RSPlacement int

const (
	// RSAtRegister places the full r/s loops inside the register tile
	// (weights for a full kernel window resident in the register file).
	RSAtRegister RSPlacement = iota
	// RSAtLevel1 places the full r/s loops among the register-tile loops
	// (matching the worked example of the paper's Table I).
	RSAtLevel1
)

func (r RSPlacement) String() string {
	switch r {
	case RSAtRegister:
		return "rs_at_register"
	case RSAtLevel1:
		return "rs_at_level1"
	default:
		return fmt.Sprintf("rs_placement(%d)", int(r))
	}
}

// StandardOptions configures StandardNest.
type StandardOptions struct {
	// RS selects the placement of untiled small loops (see RSPlacement).
	RS RSPlacement
	// UntiledMax is the extent threshold at or below which an iterator
	// named "r" or "s" is considered an untiled kernel loop. Iterators
	// with extent 1 are always dropped everywhere. Default 0 treats all
	// "r"/"s" iterators as untiled regardless of extent.
	UntiledMax int64
	// ReductionMulticast enables free spatial reduction for read-write
	// tensors at the PE level (off by default; see LevelConfig).
	ReductionMulticast bool
}

// StandardLevelReg, StandardLevelL1, StandardLevelSpatial, and
// StandardLevelSRAM are the level indices of the standard nest.
const (
	StandardLevelReg     = 0
	StandardLevelL1      = 1
	StandardLevelSpatial = 2
	StandardLevelSRAM    = 3
)

// StandardNest builds the paper's three-level-memory nest (Fig. 1):
// register tile, register-tile loops (SRAM→register copies), spatial PE
// grid, and SRAM-tile loops (DRAM→SRAM copies).
//
// Iterators with extent 1 are inactive at every level. Iterators named
// "r" or "s" (convolution kernel loops) are untiled: their full extents
// are pinned at the level chosen by opts.RS.
func StandardNest(p *loopnest.Problem, opts StandardOptions) (*Nest, error) {
	var tiled, untiled []int
	for i, it := range p.Iters {
		if it.Extent == 1 {
			continue
		}
		if (it.Name == "r" || it.Name == "s") && (opts.UntiledMax == 0 || it.Extent <= opts.UntiledMax) {
			untiled = append(untiled, i)
		} else {
			tiled = append(tiled, i)
		}
	}
	fixedFor := func(level int) ([]int, map[int]int64) {
		active := append([]int(nil), tiled...)
		fixed := map[int]int64{}
		place := StandardLevelReg
		if opts.RS == RSAtLevel1 {
			place = StandardLevelL1
		}
		if level == place {
			for _, it := range untiled {
				active = append(active, it)
				fixed[it] = p.Iters[it].Extent
			}
		}
		return active, fixed
	}
	l0Active, l0Fixed := fixedFor(StandardLevelReg)
	l1Active, l1Fixed := fixedFor(StandardLevelL1)
	cfgs := []LevelConfig{
		{Name: "reg", Kind: Temporal, Active: l0Active, Fixed: l0Fixed},
		{Name: "q", Kind: Temporal, Copy: true, Active: l1Active, Fixed: l1Fixed},
		{Name: "p", Kind: Spatial, Active: append([]int(nil), tiled...), ReductionMulticast: opts.ReductionMulticast},
		{Name: "t", Kind: Temporal, Copy: true, Active: append([]int(nil), tiled...)},
	}
	return NewNest(p, cfgs)
}

// StandardPerms assembles the per-level permutation slice expected by
// ComputeVolumes for a standard nest from the two copy-level orders.
func StandardPerms(l1, sram []int) [][]int {
	return [][]int{nil, l1, nil, sram}
}

// SpatialTripVars returns the trip variables of the spatial level of a
// standard nest (the PE-grid extents the paper calls P_i).
func (n *Nest) SpatialTripVars() []expr.VarID {
	for li := range n.Levels {
		if n.Levels[li].Kind == Spatial {
			var out []expr.VarID
			for _, it := range n.Levels[li].Active {
				out = append(out, n.Levels[li].Trips[it])
			}
			return out
		}
	}
	return nil
}

// DimEqualities returns, for every iterator of the problem, the monomial
// that must equal the iterator's full extent: the product of its trip
// variables across all levels. Iterators with extent 1 and no variables
// are skipped.
func (n *Nest) DimEqualities() []DimEquality {
	var out []DimEquality
	for it := range n.Prob.Iters {
		vars := n.DimTripVars(it)
		if len(vars) == 0 {
			continue
		}
		out = append(out, DimEquality{
			Iter:   it,
			Vars:   vars,
			Extent: n.Prob.Iters[it].Extent,
		})
	}
	return out
}

// DimEquality states that the product of Vars equals Extent.
type DimEquality struct {
	Iter   int
	Vars   []expr.VarID
	Extent int64
}

// Assignment builds a full variable assignment (indexed by VarID over the
// nest's VarSet, extended to total variables) from per-level trip values.
// trips[li][it] gives the trip of iterator it at level li; entries for
// variables the nest does not have are ignored. Pinned variables receive
// their pinned values. Missing entries default to 1.
func (n *Nest) Assignment(total int, trips [][]int64) []float64 {
	return n.AssignmentInto(make([]float64, total), trips)
}

// AssignmentInto is Assignment writing into the caller-owned dst (whose
// length fixes the variable count), so evaluation loops can reuse one
// buffer. Returns dst.
func (n *Nest) AssignmentInto(dst []float64, trips [][]int64) []float64 {
	x := dst
	for i := range x {
		x[i] = 1
	}
	for it := range n.Prob.Iters {
		n.AssignIter(x, it, trips)
	}
	return x
}

// AssignIter writes the trip variables of iterator it into x as
// AssignmentInto does: the trip from trips (1 when missing), then the
// iterator's pinned values. Other entries of x are left alone, so an
// evaluator can update one iterator's variables at a time.
func (n *Nest) AssignIter(x []float64, it int, trips [][]int64) {
	for li := range n.Levels {
		v := n.Levels[li].Trips[it]
		if v == expr.NoVar {
			continue
		}
		x[v] = 1
		if li < len(trips) && it < len(trips[li]) && trips[li][it] > 0 {
			x[v] = float64(trips[li][it])
		}
	}
	for _, pin := range n.Pins {
		if n.IterOfVar(pin.Var) == it {
			x[pin.Var] = pin.Value
		}
	}
}

// CheckTrips validates that per-level trips multiply to the full extents
// and respect pinned values.
func (n *Nest) CheckTrips(trips [][]int64) error {
	if len(trips) != len(n.Levels) {
		return fmt.Errorf("%w: got %d levels of trips, want %d", ErrBadNest, len(trips), len(n.Levels))
	}
	for it := range n.Prob.Iters {
		if err := n.checkIterProduct(trips, it); err != nil {
			return err
		}
	}
	for _, pin := range n.Pins {
		if err := n.checkPin(trips, pin); err != nil {
			return err
		}
	}
	return nil
}

// CheckIter is CheckTrips restricted to iterator it: its trips multiply
// to its extent, are 1 at its inactive levels, and match its pins.
// CheckTrips passes exactly when trips has one row per level and
// CheckIter passes for every iterator, so an evaluator can check each
// iterator's tiling choices once instead of once per combination.
func (n *Nest) CheckIter(trips [][]int64, it int) error {
	if len(trips) != len(n.Levels) {
		return fmt.Errorf("%w: got %d levels of trips, want %d", ErrBadNest, len(trips), len(n.Levels))
	}
	if err := n.checkIterProduct(trips, it); err != nil {
		return err
	}
	for _, pin := range n.Pins {
		if n.IterOfVar(pin.Var) != it {
			continue
		}
		if err := n.checkPin(trips, pin); err != nil {
			return err
		}
	}
	return nil
}

func (n *Nest) checkIterProduct(trips [][]int64, it int) error {
	iter := n.Prob.Iters[it]
	prod := int64(1)
	for li := range n.Levels {
		tv := int64(1)
		if it < len(trips[li]) && trips[li][it] > 0 {
			tv = trips[li][it]
		}
		if n.Levels[li].Trips[it] == expr.NoVar && tv != 1 {
			return fmt.Errorf("%w: iterator %s has trip %d at inactive level %s", ErrBadNest, iter.Name, tv, n.Levels[li].Name)
		}
		prod *= tv
	}
	if prod != iter.Extent {
		return fmt.Errorf("%w: iterator %s trips multiply to %d, want %d", ErrBadNest, iter.Name, prod, iter.Extent)
	}
	return nil
}

func (n *Nest) checkPin(trips [][]int64, pin Pin) error {
	it := n.IterOfVar(pin.Var)
	li := n.levelOfVar(pin.Var)
	tv := int64(1)
	if li >= 0 && li < len(trips) && it < len(trips[li]) && trips[li][it] > 0 {
		tv = trips[li][it]
	}
	if float64(tv) != pin.Value {
		return fmt.Errorf("%w: iterator %s pinned to %g at level %s but trip is %d",
			ErrBadNest, n.Prob.Iters[it].Name, pin.Value, n.Levels[li].Name, tv)
	}
	return nil
}

// levelOfVar finds the level owning a trip variable, or −1.
func (n *Nest) levelOfVar(v expr.VarID) int {
	for li := range n.Levels {
		for _, tv := range n.Levels[li].Trips {
			if tv == v {
				return li
			}
		}
	}
	return -1
}
