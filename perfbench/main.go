// Command perfbench is the repository benchmark: three seeded workloads
// that drive the optimizer through its public entry points, check every
// answer against the committed expected results, and print one JSON
// result line. See README.md for the workloads, the metrics and what
// each one is expected to move.
//
//	perfbench --workload table2-energy --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run, and a
// "where the time goes" table is printed above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/model"
)

// endToEnd lists the end-to-end metrics every untraced run prints, with
// their units, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"sweep_cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"energy_pj_per_mac.geomean", "pJ/MAC"},
	{"ipc.geomean", "MAC/cycle"},
	{"req_p50_ms.lo", "ms"},
	{"req_p90_ms.lo", "ms"},
	{"req_p50_ms.hi", "ms"},
	{"req_p90_ms.hi", "ms"},
	{"max_rps", "1/s"},
	{"ok_frac", "1"},
}

// perLayer lists the per-layer metrics every traced run prints. A layer
// that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"solve.self_s", "s"},
	{"solve.gps", "count"},
	{"solve.newton_iters", "count"},
	{"solve.newton_per_gp", "count"},
	{"solve.warmstart_hit_frac", "1"},
	{"solve.infeasible", "count"},
	{"integerize.self_s", "s"},
	{"integerize.candidates", "count"},
	{"integerize.us_per_candidate", "us"},
	{"enumerate.self_s", "s"},
	{"enumerate.classes", "count"},
	{"formulate.self_s", "s"},
	{"formulate.pairs_pruned_frac", "1"},
	{"sched.wait_s", "s"},
	{"sched.busy_frac", "1"},
	{"cpu.solver_frac", "1"},
	{"cpu.linalg_frac", "1"},
	{"cpu.math_frac", "1"},
	{"cpu.model_frac", "1"},
	{"cpu.expr_frac", "1"},
	{"cpu.dataflow_frac", "1"},
	{"cpu.runtime_frac", "1"},
	{"cache.hit_frac", "1"},
	{"cache.stores", "count"},
	{"cache.signature_us", "us"},
	{"core.warm_optimize_us", "us"},
	{"serve.overhead_us", "us"},
	{"serve.alloc_kb_per_req", "KB"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected", "count"},
	{"gc.cycles", "count"},
	{"gc.cpu_frac", "1"},
	{"obs.overhead_frac", "1"},
	{"gen.lag_ms.p99", "ms"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is one benchmark invocation: the workload, its seed and budget,
// and the outcome counters every phase adds to.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// refDir holds the committed expected results (fig4.tsv, fig7.tsv).
	refDir string
	// corrupt, when set, alters the loaded reference (the self-check
	// uses it to show that a wrong answer is counted).
	corrupt func(*reference)
	ref     *reference
	// layers overrides the 23 Table II layers (the self-check uses a
	// few small ones).
	layers []string

	start     time.Time
	attempted int64
	failed    int64
	vals      map[string]float64
	log       *os.File
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

// check counts one checked operation, and a failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// runners maps each workload name to its runner.
var runners = map[string]func(*run) error{
	"table2-energy": func(r *run) error { return runCold(r, model.MinEnergy) },
	"table2-delay":  func(r *run) error { return runCold(r, model.MinDelay) },
	"serve-warm":    runServeWarm,
}

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "table2-energy | table2-delay | serve-warm")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		refDir: "results", start: start, log: os.Stderr}
	res, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs the workload and assembles the result line.
func (r *run) execute() (*result, error) {
	fn, ok := runners[r.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", r.workload)
	}
	if r.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	r.vals = map[string]float64{}
	if err := fn(r); err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	} else {
		r.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
		r.set("peak_rss_mb", peakRSSMB())
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
