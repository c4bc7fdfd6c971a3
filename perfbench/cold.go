package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/workloads"
)

// Shares of --seconds: cold workloads spend coldShare of it on sweeps
// and the rest replaying their own designs warm over HTTP.
const coldShare = 0.6

// setupReps is how many times a run sets itself up; setup_s is the
// median. A cold workload's set-up takes well under a millisecond, so
// it repeats more often to keep the median out of host-noise outliers;
// a traced run does not report setup_s and sets up once.
func setupReps(trace bool, each int) int {
	if trace {
		return 1
	}
	return each
}

// inputs are a run's seeded inputs.
type inputs struct {
	layers []workloads.Layer // the Table II layers in seeded order
	rng    *rand.Rand        // draws everything else, after the order
}

// newInputs loads the reference and draws the seeded layer order.
func (r *run) newInputs() (*inputs, error) {
	ref, err := loadReference(r.refDir)
	if err != nil {
		return nil, err
	}
	if r.corrupt != nil {
		r.corrupt(ref)
	}
	r.ref = ref
	all := workloads.All()
	if r.layers != nil {
		all = nil
		for _, n := range r.layers {
			l, ok := workloads.ByName(n)
			if !ok {
				return nil, fmt.Errorf("unknown layer %q", n)
			}
			all = append(all, l)
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return &inputs{layers: all, rng: rng}, nil
}

// sweepCost is what one cold sweep cost.
type sweepCost struct {
	wall, cpu time.Duration
	allocMB   float64
}

// measure runs fn and returns its wall time, process CPU time and heap
// allocation.
func measure(fn func() error) (sweepCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	c := sweepCost{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	c.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return c, err
}

// setCosts reports the medians of a run's sweeps.
func (r *run) setCosts(cs []sweepCost) {
	var wall, cpu, alloc []float64
	for _, c := range cs {
		wall = append(wall, c.wall.Seconds())
		cpu = append(cpu, c.cpu.Seconds())
		alloc = append(alloc, c.allocMB)
	}
	r.set("sweep_s", median(wall))
	r.set("sweep_cpu_s", median(cpu))
	r.set("alloc_mb", median(alloc))
}

// setQuality reports the geometric means of the designs' pJ/MAC and IPC.
func (r *run) setQuality(energyPerMAC, ipc []float64) {
	r.set("energy_pj_per_mac.geomean", geomean(energyPerMAC))
	r.set("ipc.geomean", geomean(ipc))
}

// sweep optimizes every layer cold, on a fresh solve cache, through
// experiments.OptimizeLayers (the `thistle -pipeline all` path).
func sweep(ctx context.Context, in *inputs, crit model.Criterion) (*core.SolveCache, []*core.Result, error) {
	sc := newCache()
	res, err := experiments.OptimizeLayers(core.ContextWithCache(ctx, sc), in.layers, core.Options{Criterion: crit}, nil)
	return sc, res, err
}

// checkSweep checks every design of a sweep.
func (r *run) checkSweep(crit model.Criterion, in *inputs, res []*core.Result) {
	for i, l := range in.layers {
		r.checkDesign(crit, l, res[i])
	}
}

// runCold is the table2-energy / table2-delay workload: closed-loop cold
// sweeps of all Table II layers by one caller, each checked against the
// reference, then the sweep's own designs served warm over HTTP.
func runCold(r *run, crit model.Criterion) error {
	// Set-up draws the inputs and prepares the warm phase's requests and
	// the solve signatures their responses must carry.
	var in *inputs
	var keys []key
	var sigs []string
	var setups []float64
	for i := 0; i < setupReps(r.trace, 25); i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = r.start
		}
		var err error
		if in, err = r.newInputs(); err != nil {
			return err
		}
		keys = serveKeys(in.layers, crit)
		sigs = make([]string, len(in.layers))
		for j, l := range in.layers {
			p, err := l.Problem()
			if err != nil {
				return err
			}
			sigs[j] = core.SolveSignature(p, core.Options{Criterion: crit}).Short()
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	if r.trace {
		return r.traceCold(in, crit)
	}

	t0 := time.Now()
	var costs []sweepCost
	var sc *core.SolveCache
	var res []*core.Result
	sweepBudget := time.Duration(coldShare * r.seconds * float64(time.Second))
	// Start another sweep only if one more of the last one's length fits
	// the budget, so a run's length does not jump with the host's speed.
	for len(costs) == 0 || time.Since(t0)+costs[len(costs)-1].wall <= sweepBudget {
		c, err := measure(func() (err error) {
			sc, res, err = sweep(context.Background(), in, crit)
			return err
		})
		if err != nil {
			return err
		}
		costs = append(costs, c)
		r.checkSweep(crit, in, res)
	}
	r.setCosts(costs)
	var e, ipc []float64
	for _, x := range res {
		e = append(e, x.Best.Report.EnergyPerMAC)
		ipc = append(ipc, x.Best.Report.IPC)
	}
	r.setQuality(e, ipc)

	s, err := startServer(sc)
	if err != nil {
		return err
	}
	for i := range keys {
		keys[i].want = wantFor(sigs[i], res[i].Best.Report.EnergyPerMAC, res[i].Best.Report.IPC)
	}
	r.warmPhases(s, keys, in.rng, time.Duration((1-coldShare)*r.seconds*float64(time.Second)))
	return s.stop()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
