package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// layerSpans maps each per-layer self-time metric to the span names
// whose self time it sums.
var layerSpans = []struct {
	metric string
	spans  []string
}{
	{"solve.self_s", []string{"solve", "phase-i", "phase-ii"}},
	{"integerize.self_s", []string{"integerize", "model-eval"}},
	{"enumerate.self_s", []string{"enumerate-classes"}},
	{"formulate.self_s", []string{"formulate"}},
}

// cpuGroups maps each cpu.* metric to the Go packages it sums, each
// with its subpackages.
var cpuGroups = []struct {
	metric   string
	packages []string
}{
	{"cpu.solver_frac", []string{"repro/internal/solver", "repro/internal/gp"}},
	{"cpu.linalg_frac", []string{"repro/internal/linalg"}},
	{"cpu.math_frac", []string{"math"}},
	{"cpu.model_frac", []string{"repro/internal/model"}},
	{"cpu.expr_frac", []string{"repro/internal/expr"}},
	{"cpu.dataflow_frac", []string{"repro/internal/dataflow"}},
	{"cpu.runtime_frac", []string{"runtime", "internal/runtime"}},
}

// spanSelf is the aggregate of every span of one name.
type spanSelf struct {
	name  string
	count int
	self  time.Duration
}

// selfTimes aggregates span self time by name over a span forest. A
// span's self time is its duration minus the part of its interval that
// its children cover; children run concurrently, so their union is
// taken rather than their sum.
func selfTimes(roots []obs.SpanInfo) map[string]*spanSelf {
	acc := map[string]*spanSelf{}
	var walk func(s obs.SpanInfo)
	walk = func(s obs.SpanInfo) {
		if s.DurUS < 0 {
			return
		}
		start, end := s.StartUS, s.StartUS+s.DurUS
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range s.Children {
			walk(c)
			if c.DurUS >= 0 {
				ivs = append(ivs, iv{max(c.StartUS, start), min(c.StartUS+c.DurUS, end)})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, reach := int64(0), start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		a := acc[s.Name]
		if a == nil {
			a = &spanSelf{name: s.Name}
			acc[s.Name] = a
		}
		a.count++
		a.self += time.Duration(s.DurUS-covered) * time.Microsecond
	}
	for _, r := range roots {
		walk(r)
	}
	return acc
}

// printSelfTimes writes the "where the time goes" table: self time by
// span name and its share of the traced wall time.
func (r *run) printSelfTimes(acc map[string]*spanSelf, wall time.Duration) {
	rows := make([]*spanSelf, 0, len(acc))
	for _, a := range acc {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Printf("where the time goes: %s, traced wall %.3f s (self time can exceed wall: spans run on %d CPUs)\n",
		r.workload, wall.Seconds(), runtime.GOMAXPROCS(0))
	fmt.Printf("  %-20s %8s %10s %8s\n", "span", "count", "self_s", "of wall")
	for _, a := range rows {
		fmt.Printf("  %-20s %8d %10.3f %7.1f%%\n", a.name, a.count, a.self.Seconds(), 100*a.self.Seconds()/wall.Seconds())
	}
}

// probe records what a traced phase did: wall time, the CPU profile,
// GC activity and the scheduler's busy share.
type probe struct {
	prof      bytes.Buffer
	wall      time.Duration
	gcCycles  uint32
	gcCPUFrac float64
	busyFrac  float64
}

var cpuMetrics = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

// traced runs fn under a CPU profile, sampling the given scheduler
// in-flight gauge every millisecond to measure how busy its tokens are.
func traced(inFlight *obs.Gauge, tokens int, fn func() error) (*probe, error) {
	p := &probe{}
	var m0, m1 runtime.MemStats
	c0 := append([]metrics.Sample(nil), cpuMetrics...)
	c1 := append([]metrics.Sample(nil), cpuMetrics...)
	runtime.ReadMemStats(&m0)
	metrics.Read(c0)
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var busy, samples int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				busy += inFlight.Value()
				samples++
			}
		}
	}()
	t0 := time.Now()
	err := fn()
	p.wall = time.Since(t0)
	close(stop)
	wg.Wait()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	metrics.Read(c1)
	p.gcCycles = m1.NumGC - m0.NumGC
	if d := c1[1].Value.Float64() - c0[1].Value.Float64(); d > 0 {
		p.gcCPUFrac = (c1[0].Value.Float64() - c0[0].Value.Float64()) / d
	}
	if samples > 0 {
		p.busyFrac = float64(busy) / float64(samples) / float64(tokens)
	}
	return p, err
}

// setProbe reports the CPU-profile split and the GC and scheduler
// figures of a traced phase.
func (r *run) setProbe(p *probe) error {
	shares, err := packageShares(p.prof.Bytes())
	if err != nil {
		return err
	}
	for _, g := range cpuGroups {
		v := 0.0
		for pkg, share := range shares {
			for _, p := range g.packages {
				if pkg == p || strings.HasPrefix(pkg, p+"/") {
					v += share
				}
			}
		}
		r.set(g.metric, v)
	}
	type kv struct {
		pkg   string
		share float64
	}
	var top []kv
	for k, v := range shares {
		top = append(top, kv{k, v})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].share > top[j].share })
	var parts []string
	for _, t := range top[:min(8, len(top))] {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", t.pkg, 100*t.share))
	}
	fmt.Printf("cpu profile by package (flat): %s\n", strings.Join(parts, ", "))
	r.set("gc.cycles", float64(p.gcCycles))
	r.set("gc.cpu_frac", p.gcCPUFrac)
	r.set("sched.busy_frac", p.busyFrac)
	return nil
}

// readings are a registry's counters and histogram sums (in seconds)
// at one instant.
type readings map[string]float64

func read(reg *obs.Registry) readings {
	snap := reg.Snapshot()
	m := readings{}
	for _, c := range snap.Counters {
		m[c.Name] = float64(c.Value)
	}
	for _, h := range snap.Histograms {
		m[h.Name] = h.Sum().Seconds()
	}
	return m
}

// since returns the change of every reading from before to m.
func (m readings) since(before readings) readings {
	d := readings{}
	for k, v := range m {
		d[k] = v - before[k]
	}
	return d
}

// frac is a/(a+b), or 0 when both are 0.
func frac(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// setCounters reports the counts a phase left in the program's metrics
// registry (c holds the phase's change of each reading); the self-time
// metrics must already be set.
func (r *run) setCounters(c readings) {
	gps, newton := c["solver.solves"], c["solver.newton_iters"]
	r.set("solve.gps", gps)
	r.set("solve.newton_iters", newton)
	r.set("solve.newton_per_gp", newton/max(gps, 1))
	r.set("solve.warmstart_hit_frac", frac(c["solver.warmstart.hit"], c["solver.warmstart.miss"]))
	r.set("solve.infeasible", c["solver.infeasible"])
	cands := c["core.int_candidates"]
	r.set("integerize.candidates", cands)
	r.set("integerize.us_per_candidate", r.vals["integerize.self_s"]*1e6/max(cands, 1))
	r.set("enumerate.classes", c["core.classes_l1"]+c["core.classes_sram"])
	r.set("formulate.pairs_pruned_frac", frac(c["core.pairs_pruned"], c["core.pairs_solved"]))
	r.set("sched.wait_s", c["pipeline.sched.wait"])
	r.set("serve.rejected", c["serve.rejected_queue_full"]+c["serve.rejected_draining"])
}

// setSpanSelf reports the per-layer self times of a span forest.
func (r *run) setSpanSelf(acc map[string]*spanSelf) {
	for _, l := range layerSpans {
		v := 0.0
		for _, name := range l.spans {
			if a := acc[name]; a != nil {
				v += a.self.Seconds()
			}
		}
		r.set(l.metric, v)
	}
}

// warmCalls times the warm per-key entry points against a filled cache:
// core.SolveSignature and a cache-hit core.OptimizeContext. It sets the
// medians in microseconds and returns the warm optimize median.
func (r *run) warmCalls(in *inputs, crit model.Criterion, sc *core.SolveCache) (float64, error) {
	const rounds = 40
	opts := core.Options{Criterion: crit}
	ctx := core.ContextWithCache(context.Background(), sc)
	var sig, opt []float64
	for i := 0; i < rounds; i++ {
		for _, l := range in.layers {
			p, err := l.Problem()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			core.SolveSignature(p, opts)
			t1 := time.Now()
			res, err := core.OptimizeContext(ctx, p, opts)
			t2 := time.Now()
			if err != nil {
				return 0, err
			}
			if i == 0 {
				r.check(res.Stats.FromCache, "%s: warm optimize missed the cache", l.Name())
			}
			sig = append(sig, t1.Sub(t0).Seconds()*1e6)
			opt = append(opt, t2.Sub(t1).Seconds()*1e6)
		}
	}
	r.set("cache.signature_us", median(sig))
	r.set("core.warm_optimize_us", median(opt))
	return median(opt), nil
}

// zeroServe reports the serve and load-generator metrics of a workload
// whose traced run does not serve.
func (r *run) zeroServe() {
	for _, m := range []string{"serve.overhead_us", "serve.alloc_kb_per_req", "serve.queue_depth_max", "gen.lag_ms.p99"} {
		r.set(m, 0)
	}
}

// traceCold is the traced run of a cold workload: one sweep with the
// span tracer, the metrics registry and a CPU profile attached, between
// two untraced sweeps (the first sweep of a process runs slower, so the
// untraced base is their mean), then the warm per-key calls on the
// traced sweep's cache.
func (r *run) traceCold(in *inputs, crit model.Criterion) error {
	untraced := func() (time.Duration, error) {
		var res []*core.Result
		c, err := measure(func() (err error) {
			_, res, err = sweep(context.Background(), in, crit)
			return err
		})
		if err == nil {
			r.checkSweep(crit, in, res)
		}
		return c.wall, err
	}
	before, err := untraced()
	if err != nil {
		return err
	}
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), &obs.Obs{Tracer: tr, Metrics: reg})
	var sc *core.SolveCache
	var res []*core.Result
	p, err := traced(reg.Gauge("pipeline.sched.in_flight"), runtime.NumCPU(), func() (err error) {
		sctx, span := obs.StartSpan(ctx, "sweep")
		defer span.End()
		sc, res, err = sweep(sctx, in, crit)
		return err
	})
	if err != nil {
		return err
	}
	r.checkSweep(crit, in, res)
	acc := selfTimes(tr.Tree())
	r.printSelfTimes(acc, p.wall)
	r.setSpanSelf(acc)
	r.setCounters(read(reg))
	if err := r.setProbe(p); err != nil {
		return err
	}
	after, err := untraced()
	if err != nil {
		return err
	}
	base := (before + after) / 2
	st := sc.Stats()
	r.set("cache.hit_frac", st.HitRate())
	r.set("cache.stores", float64(st.Stores))
	r.set("obs.overhead_frac", p.wall.Seconds()/base.Seconds()-1)
	if _, err := r.warmCalls(in, crit, sc); err != nil {
		return err
	}
	r.zeroServe()
	fmt.Printf("obs overhead: traced sweep %.3f s, untraced %.3f s and %.3f s\n", p.wall.Seconds(), before.Seconds(), after.Seconds())
	return nil
}

// traceServe is the traced run of serve-warm: an untraced lo-rate
// window, then the same window with the benchmark's request spans and a
// CPU profile, reading the server's own counters and the cache's stats
// over the traced window.
func (r *run) traceServe(s *server, keys []key, in *inputs) error {
	window := time.Duration(r.seconds / 2 * float64(time.Second))
	popularity := in.rng.Perm(len(keys))
	base := r.openLoop(s, keys, newSchedule(in.rng, rateLo, arrivals(rateLo, window), popularity), nil)

	tr := obs.NewTracer()
	st0 := s.srv.Cache().Stats()
	c0 := read(s.reg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var ph phaseResult
	p, err := traced(s.reg.Gauge("pipeline.sched.in_flight"), s.srv.Scheduler().Size(), func() error {
		ph = r.openLoop(s, keys, newSchedule(in.rng, rateLo, arrivals(rateLo, window), popularity), tr)
		return nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	st1 := s.srv.Cache().Stats()
	c := read(s.reg).since(c0)

	acc := selfTimes(tr.Tree())
	r.printSelfTimes(acc, p.wall)
	r.setSpanSelf(acc)
	r.setCounters(c)
	if err := r.setProbe(p); err != nil {
		return err
	}
	hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses
	r.set("cache.hit_frac", frac(float64(hits), float64(misses)))
	r.set("cache.stores", float64(st1.Stores-st0.Stores))
	warm, err := r.warmCalls(in, model.MinEnergy, s.srv.Cache())
	if err != nil {
		return err
	}
	n := float64(len(ph.latMS))
	r.set("serve.overhead_us", median(ph.latMS)*1e3-warm)
	r.set("serve.alloc_kb_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n)
	r.set("serve.queue_depth_max", float64(ph.queueMax))
	r.set("gen.lag_ms.p99", quantile(ph.lagMS, 0.99))
	r.set("obs.overhead_frac", median(ph.latMS)/median(base.latMS)-1)
	fmt.Printf("timed phase: %d requests, %d GP solves, cache %d hits / %d misses\n", len(ph.latMS), int(c["solver.solves"]), hits, misses)
	return nil
}
