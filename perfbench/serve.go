package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	//tlvet:ignore stagedep -- the benchmark is a command (a module of its own) that serves thistled over loopback, as cmd/thistled does
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Load-generator constants. The timed request phases are closed
// loops: each caller sends its next request only when the previous one
// has been answered. lo is one caller, hi is `callers` callers (nproc of
// the 2-core box the benchmark targets); max_rps is the throughput hi
// sustains, which a closed loop reaches without a backlog. The phases
// run the server and its callers on one P (GOMAXPROCS 1), so they
// measure the CPU cost of the serving path and the queueing of two
// callers on it. Over two Ps every hand-off between the CPUs waits for
// an idle virtual CPU to wake, at a pace set by the host's other
// tenants: on a shared 2-core VM an open loop at fixed rates moved its
// latency medians by 40 % between two sets of runs of the same code,
// and closed loops spread lo's p90 from 0.47 to 0.69 ms over five runs;
// over one P it stayed within 0.26–0.32 ms. The traced serve-warm run
// keeps an open loop (openLoop, rateLo, two Ps) and reports the
// generator's lag there.
const (
	rateLo  = 1000.0
	callers = 2
	// window is the length of one measured closed-loop window, cut into
	// slices by completion time; the request metrics are medians over a
	// run's slices. A slice holds a few hundred requests, so its p90 has
	// tens of samples beyond it, and a host stall (up to tens of
	// milliseconds on the shared VM) spoils only the slices it lands in.
	window   = time.Second
	sliceLen = 100 * time.Millisecond
	// warmup is the unmeasured hi window that opens the connections and
	// warms the server before the first measured one.
	warmup = 300 * time.Millisecond
	// mixLen is the length of the seeded key sequence the closed-loop
	// callers cycle through.
	mixLen = 1 << 12
)

// server is one thistled instance on a loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
	reg  *obs.Registry
}

func startServer(sc *core.SolveCache) (*server, error) {
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{Cache: sc, Obs: &obs.Obs{Metrics: reg}, SampleInterval: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/optimize", done: make(chan error, 1), reg: reg}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serve goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// row is the part of a response row the benchmark checks.
type row struct {
	Sig          string  `json:"sig"`
	EnergyPerMAC float64 `json:"energy_per_mac"`
	IPC          float64 `json:"ipc"`
}

func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body fully read; close error carries nothing
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// key is one servable design: a Table II layer under one criterion, and
// the two equivalent request bodies that select it.
type key struct {
	layer workloads.Layer
	crit  model.Criterion
	// bodies are the layer-selector and the conv-selector requests.
	bodies [2][]byte
	// want are byte strings every warm response for the key must hold
	// (see wantFor).
	want [][]byte
}

func newKey(l workloads.Layer, crit model.Criterion) key {
	// Marshalling these plain structs cannot fail.
	layerReq, _ := json.Marshal(serve.OptimizeRequest{Layer: l.Name(), Criterion: crit.String()})
	convReq, _ := json.Marshal(serve.OptimizeRequest{Criterion: crit.String(), Conv: &serve.ConvSpec{
		K: l.K, C: l.C, H: l.HOut(), R: l.RS, StrideX: l.Stride, StrideY: l.Stride}})
	return key{layer: l, crit: crit, bodies: [2][]byte{layerReq, convReq}}
}

// prewarm solves every key cold through one batch request (the
// `thistle -pipeline` path over HTTP), checks each row against the
// reference, and records the exact answers warm responses must repeat.
func (r *run) prewarm(s *server, keys []key) ([]row, error) {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.layer.Name()
	}
	body, _ := json.Marshal(serve.OptimizeRequest{Layers: names, Criterion: keys[0].crit.String()})
	data, err := post(http.DefaultClient, s.url, body)
	if err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	var resp struct{ Results []row }
	if err := json.Unmarshal(data, &resp); err != nil || len(resp.Results) != len(keys) {
		return nil, fmt.Errorf("prewarm: bad response (%v): %.200s", err, data)
	}
	for i := range keys {
		k := &keys[i]
		got := resp.Results[i]
		want, field := r.ref.expected(k.crit, k.layer.Name())
		v := field(&model.Report{EnergyPerMAC: got.EnergyPerMAC, IPC: got.IPC})
		r.check(strconv.FormatFloat(v, 'f', 3, 64) == want, "%s: served %.3f, reference %s", k.layer.Name(), v, want)
		k.want = wantFor(got.Sig, got.EnergyPerMAC, got.IPC)
	}
	return resp.Results, nil
}

// wantFor lists the byte strings a warm response for a design must
// hold: its signature, its exact pJ/MAC and IPC, and the cache flag.
func wantFor(sig string, energyPerMAC, ipc float64) [][]byte {
	num := func(v float64) string {
		b, _ := json.Marshal(v)
		return string(b)
	}
	return [][]byte{
		[]byte(`"sig": "` + sig + `"`),
		[]byte(`"energy_per_mac": ` + num(energyPerMAC) + ","),
		[]byte(`"ipc": ` + num(ipc) + ","),
		[]byte(`"from_cache": true`),
	}
}

// schedule is a seeded open-loop arrival sequence.
type schedule struct {
	due  []time.Duration // offsets from the phase start
	key  []int
	conv []bool
}

// newSchedule draws n arrivals of a Poisson process at rate per second
// (all due at once when rate is infinite), each with a key drawn by Zipf
// popularity (popularity lists the keys from most to least popular) and
// a selector form drawn by a fair coin.
func newSchedule(rng *rand.Rand, rate float64, n int, popularity []int) schedule {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(popularity)-1))
	s := schedule{due: make([]time.Duration, n), key: make([]int, n), conv: make([]bool, n)}
	t := 0.0
	for i := range s.due {
		t += rng.ExpFloat64() / rate
		s.due[i] = time.Duration(t * float64(time.Second))
		s.key[i] = popularity[zipf.Uint64()]
		s.conv[i] = rng.Intn(2) == 1
	}
	return s
}

// arrivals is the number of requests a rate offers in d, at least one.
func arrivals(rate float64, d time.Duration) int { return max(1, int(rate*d.Seconds())) }

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	latMS    []float64 // completion − due, per request
	lagMS    []float64 // send − max(due, client free), per request
	elapsed  time.Duration
	failures int64
	queueMax int64
}

func (p phaseResult) rps() float64 { return float64(len(p.latMS)) / p.elapsed.Seconds() }

// newClient is one load goroutine's HTTP client: one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// openLoop replays sch against the server from `callers` goroutines,
// each on its own connection. Requests are timed from their due time, so
// a stall also charges the requests queued behind it. A non-nil tr
// records a "request" span around each round trip.
func (r *run) openLoop(s *server, keys []key, sch schedule, tr *obs.Tracer) phaseResult {
	n := len(sch.due)
	lat := make([]float64, n)
	lag := make([]float64, n)
	var next atomic.Int64
	var mu sync.Mutex // guards the merged per-client counters below
	var failures, queueMax int64
	queue := s.reg.Gauge("serve.queue_depth")
	// Start every window from a collected heap, so GC debt left by the
	// previous window does not land on this one.
	runtime.GC()
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var fails, qmax int64
			defer func() {
				mu.Lock()
				failures += fails
				queueMax = max(queueMax, qmax)
				mu.Unlock()
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(sch.due[i])
				free := time.Now()
				time.Sleep(time.Until(due))
				sent := time.Now()
				k := &keys[sch.key[i]]
				form := 0
				if sch.conv[i] {
					form = 1
				}
				span := tr.StartSpan(nil, "request")
				data, err := post(client, s.url, k.bodies[form])
				span.End()
				done := time.Now()
				lat[i] = done.Sub(due).Seconds() * 1e3
				if free.After(due) {
					due = free
				}
				lag[i] = sent.Sub(due).Seconds() * 1e3
				qmax = max(qmax, queue.Value())
				if fault := warmFault(k, data, err); fault != "" {
					fails++
					fmt.Fprintf(r.log, "perfbench: FAIL: %s: %s\n", k.layer.Name(), fault)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	r.attempted += int64(n)
	r.failed += failures
	res := phaseResult{latMS: lat, lagMS: lag, elapsed: elapsed, failures: failures, queueMax: queueMax}
	if n == 0 {
		return res
	}
	fmt.Fprintf(r.log, "perfbench: open loop %5.0f/s offered, %5.0f/s done: latency p50 %.3f p90 %.3f p99 %.3f ms, lag p50 %.3f p99 %.3f ms\n",
		float64(n)/sch.due[n-1].Seconds(), res.rps(), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99),
		quantile(lag, 0.5), quantile(lag, 0.99))
	return res
}

// warmFault checks one warm response: it must repeat the key's checked
// answer byte for byte and come from the cache.
func warmFault(k *key, data []byte, err error) string {
	if err != nil {
		return err.Error()
	}
	for _, w := range k.want {
		if !bytes.Contains(data, w) {
			return fmt.Sprintf("response lacks %s", w)
		}
	}
	return ""
}

// slice is what one stretch of a closed-loop window measured.
type slice struct {
	p50, p90 float64 // latency, ms
	rps      float64 // completions per second
}

// closedLoop sends requests from the first n of clients, one
// goroutine each, every one waiting for its reply before it sends the
// next, until d has passed. Caller c takes the keys of mix at c, c+n,
// c+2n, … (cyclically); each request is timed from its send. The
// window is returned cut into slices of sliceLen by completion time.
func (r *run) closedLoop(s *server, keys []key, mix schedule, clients []*http.Client, n int, d time.Duration) []slice {
	type sample struct{ done, latMS float64 }
	got := make([][]sample, n)
	fails := make([]int64, n)
	// Start every window from a collected heap, so GC debt left by the
	// previous window does not land on this one.
	runtime.GC()
	t0 := time.Now()
	stop := t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; time.Now().Before(stop); i += n {
				k := &keys[mix.key[i%len(mix.key)]]
				form := 0
				if mix.conv[i%len(mix.conv)] {
					form = 1
				}
				sent := time.Now()
				data, err := post(clients[c], s.url, k.bodies[form])
				done := time.Now()
				got[c] = append(got[c], sample{done.Sub(t0).Seconds(), done.Sub(sent).Seconds() * 1e3})
				if fault := warmFault(k, data, err); fault != "" {
					fails[c]++
					fmt.Fprintf(r.log, "perfbench: FAIL: %s: %s\n", k.layer.Name(), fault)
				}
			}
		}()
	}
	wg.Wait()
	lat := make([][]float64, max(1, int(d/sliceLen)))
	for c := range got {
		r.attempted += int64(len(got[c]))
		r.failed += fails[c]
		for _, x := range got[c] {
			// Requests answered after the window closed belong to no slice.
			if i := int(x.done / sliceLen.Seconds()); i < len(lat) {
				lat[i] = append(lat[i], x.latMS)
			}
		}
	}
	slices := make([]slice, len(lat))
	for i, l := range lat {
		slices[i] = slice{p50: median(l), p90: quantile(l, 0.9), rps: float64(len(l)) / sliceLen.Seconds()}
	}
	return slices
}

// warmPhases runs the closed-loop request phases within budget and sets
// the request metrics. After an unmeasured warm-up it alternates
// one-second lo (one caller) and hi (`callers` callers) windows, so a
// change in the host's speed lands on both alike; each metric is the
// median over its slices. A slice a host stall emptied has no latency
// but counts in max_rps with its throughput of 0.
func (r *run) warmPhases(s *server, keys []key, rng *rand.Rand, budget time.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mix := newSchedule(rng, math.Inf(1), mixLen, rng.Perm(len(keys)))
	clients := make([]*http.Client, callers)
	for c := range clients {
		clients[c] = newClient()
		defer clients[c].CloseIdleConnections()
	}
	r.closedLoop(s, keys, mix, clients, callers, warmup)
	var lo, hi []slice
	windows := max(2, int(budget/window)&^1)
	for w := 0; w < windows; w++ {
		if w%2 == 0 {
			lo = append(lo, r.closedLoop(s, keys, mix, clients, 1, window)...)
		} else {
			hi = append(hi, r.closedLoop(s, keys, mix, clients, callers, window)...)
		}
	}
	field := func(ss []slice, f func(slice) float64) float64 {
		var xs []float64
		for _, x := range ss {
			if v := f(x); !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	p50 := func(x slice) float64 { return x.p50 }
	p90 := func(x slice) float64 { return x.p90 }
	rps := func(x slice) float64 { return x.rps }
	r.set("req_p50_ms.lo", field(lo, p50))
	r.set("req_p90_ms.lo", field(lo, p90))
	r.set("req_p50_ms.hi", field(hi, p50))
	r.set("req_p90_ms.hi", field(hi, p90))
	r.set("max_rps", field(hi, rps))
	fmt.Fprintf(r.log, "perfbench: %d+%d slices: lo p50 %.3f p90 %.3f ms, %.0f req/s per slice; hi p50 %.3f p90 %.3f ms, %.0f req/s\n",
		len(lo), len(hi), field(lo, p50), field(lo, p90), field(lo, rps), field(hi, p50), field(hi, p90), field(hi, rps))
}

// serveKeys builds the request keys for the given layers.
func serveKeys(layers []workloads.Layer, crit model.Criterion) []key {
	keys := make([]key, len(layers))
	for i, l := range layers {
		keys[i] = newKey(l, crit)
	}
	return keys
}

// newCache is a fresh in-memory solve cache.
func newCache() *core.SolveCache { return core.NewSolveCache(cache.Options{}) }

// runServeWarm is the serve-warm workload. Setup starts a thistled
// server on loopback and pre-warms its cache with the 23 energy-optimal
// designs (one cold batch request); the timed phase is the closed loops
// of warmPhases over those keys.
func runServeWarm(r *run) error {
	var in *inputs
	var s *server
	var keys []key
	var setups []float64
	var costs []sweepCost
	var rows []row
	for i := 0; i < setupReps(r.trace, 3); i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = r.start
		}
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		var err error
		if in, err = r.newInputs(); err != nil {
			return err
		}
		if s, err = startServer(newCache()); err != nil {
			return err
		}
		keys = serveKeys(in.layers, model.MinEnergy)
		c, err := measure(func() (err error) {
			rows, err = r.prewarm(s, keys)
			return err
		})
		if err != nil {
			return errors.Join(err, s.stop())
		}
		costs = append(costs, c)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	r.setCosts(costs)
	var e, ipc []float64
	for _, x := range rows {
		e = append(e, x.EnergyPerMAC)
		ipc = append(ipc, x.IPC)
	}
	r.setQuality(e, ipc)
	if r.trace {
		return errors.Join(r.traceServe(s, keys, in), s.stop())
	}
	r.warmPhases(s, keys, in.rng, time.Duration(r.seconds*float64(time.Second)))
	return s.stop()
}
