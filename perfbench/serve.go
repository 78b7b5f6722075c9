package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/model"
	"subcouple/internal/serve"
)

const (
	// servedAlias is the alias both replicas serve and the gateway routes.
	servedAlias = "m"
	// servedReplicas is the fleet size behind the gateway.
	servedReplicas = 2
	// swapEvery is the hot-swap period: the alias flips between the
	// low-rank and wavelet versions on every replica.
	swapEvery = 250 * time.Millisecond
	// segment is the unit of offered load. A phase is a series of
	// segments, each drained before the next starts, and its figures are
	// medians over segments: a stall of the machine (another tenant, a GC)
	// spoils one segment instead of building a backlog that spoils the
	// rest of the phase.
	segment = time.Second
	// latencyLimitMS is the ladder's p99 limit.
	latencyLimitMS = 10.0
	// ladderSteps is the number of bisection steps searching max_rps
	// between the high rate and ladderTop times it (a resolution of about
	// 1.4%).
	ladderSteps = 6
	ladderTop   = 2.5
	// requestVectors is how many distinct request vectors a run sends.
	requestVectors = 64
)

// reqRec is one request of the load: nanosecond offsets from the segment
// start of its due time, hand-off by the pacer, send and completion, plus
// its outcome. It is also the traced run's client span.
type reqRec struct {
	Due    int64 `json:"due_ns"`
	Handed int64 `json:"handed_ns"`
	Sent   int64 `json:"sent_ns"`
	Done   int64 `json:"done_ns"`
	Status int   `json:"status"`
	OK     bool  `json:"ok"` // 200 and bitwise equal to one live version
}

// segRun is one segment: a fixed-rate stretch of open-loop load.
type segRun struct {
	Phase string    `json:"phase"`
	Rate  float64   `json:"rate"`
	Start time.Time `json:"start"`
	Recs  []reqRec  `json:"requests"`
}

// latenciesMS returns each request's latency from its due time in ms; a
// failed or mismatched request counts as +Inf, missing every limit.
func (s *segRun) latenciesMS() []float64 {
	out := make([]float64, len(s.Recs))
	for i, r := range s.Recs {
		out[i] = math.Inf(1)
		if r.OK {
			out[i] = float64(r.Done-r.Due) / 1e6
		}
	}
	return out
}

// backlogGrew reports a backlog building up within the segment: the median
// latency of its last fifth exceeds twice that of its first fifth plus 1 ms.
func (s *segRun) backlogGrew() bool {
	lat := s.latenciesMS()
	fifth := len(lat) / 5
	return fifth > 0 && median(lat[len(lat)-fifth:]) > 2*median(lat[:fifth])+1
}

// segQuantile is the median over segments of each segment's q-quantile
// latency in ms.
func segQuantile(segs []*segRun, q float64) float64 {
	var qs []float64
	for _, s := range segs {
		qs = append(qs, quantile(s.latenciesMS(), q))
	}
	return median(qs)
}

// loadGen is the open-loop generator: one pacer hands requests out at their
// due times to one worker per connection, at most nproc connections.
type loadGen struct {
	url     string
	clients []*http.Client
	bodies  [][]byte
	expect  [2][][]byte // responses of the two live versions per vector
	n       int
	next    int // next request vector
}

func newLoadGen(url string, conns int, bodies [][]byte, expect [2][][]byte, n int) *loadGen {
	g := &loadGen{url: url, bodies: bodies, expect: expect, n: n}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		})
	}
	return g
}

// sleepUntil blocks until t: nanosleep(2) until spinMargin before t, then a
// spin on the clock. time.Sleep rounds short waits up to about a
// millisecond on Linux, as large as the service time being measured, and
// a goroutine waking from a blocking syscall may wait for a scheduler slot;
// the spin keeps the pacer on its slot for the last stretch.
func sleepUntil(t time.Time) {
	const spinMargin = 200 * time.Microsecond
	for {
		d := time.Until(t) - spinMargin
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
	}
}

// run offers rate requests/s for dur and returns once every request has
// completed.
func (g *loadGen) run(phase string, rate float64, dur time.Duration) *segRun {
	count := int(rate * dur.Seconds())
	s := &segRun{Phase: phase, Rate: rate, Recs: make([]reqRec, count)}
	first := g.next
	g.next += count
	work := make(chan int, count)
	var wg sync.WaitGroup
	s.Start = time.Now().Add(2 * time.Millisecond)
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			buf := make([]byte, 8*g.n)
			for i := range work {
				g.do(c, s, i, (first+i)%len(g.bodies), buf)
			}
		}(c)
	}
	interval := float64(time.Second) / rate
	for i := 0; i < count; i++ {
		due := s.Start.Add(time.Duration(float64(i) * interval))
		sleepUntil(due)
		s.Recs[i].Due = due.Sub(s.Start).Nanoseconds()
		s.Recs[i].Handed = time.Since(s.Start).Nanoseconds()
		work <- i
	}
	close(work)
	wg.Wait()
	return s
}

// do sends request i (vector v) and records its timings and outcome.
func (g *loadGen) do(c *http.Client, s *segRun, i, v int, buf []byte) {
	r := &s.Recs[i]
	r.Sent = time.Since(s.Start).Nanoseconds()
	resp, err := c.Post(g.url, "application/octet-stream", bytes.NewReader(g.bodies[v]))
	if err == nil {
		r.Status = resp.StatusCode
		_, rerr := io.ReadFull(resp.Body, buf)
		extra, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		r.OK = resp.StatusCode == http.StatusOK && rerr == nil && extra == 0 &&
			(bytes.Equal(buf, g.expect[0][v]) || bytes.Equal(buf, g.expect[1][v]))
	}
	r.Done = time.Since(s.Start).Nanoseconds()
}

// swapRec is one timed POST /admin/swap.
type swapRec struct {
	At      time.Time `json:"at"`
	MS      float64   `json:"ms"`
	DrainMS float64   `json:"drain_ms"`
	Err     string    `json:"error,omitempty"`
}

// swapper flips the alias on every replica between the two versions every
// swapEvery until stopped.
type swapper struct {
	stop chan struct{}
	done chan struct{}
	recs []swapRec
}

func startSwapper(fl *fleet, fps [2]string) *swapper {
	s := &swapper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(swapEvery)
		defer tick.Stop()
		for next := 1; ; next ^= 1 {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			for _, d := range fl.replicas {
				var resp struct {
					DrainSeconds float64 `json:"drain_seconds"`
				}
				t0 := time.Now()
				err := postJSON(d.url("/admin/swap"), map[string]string{"alias": servedAlias, "fingerprint": fps[next]}, nil, &resp)
				rec := swapRec{At: t0, MS: float64(time.Since(t0).Nanoseconds()) / 1e6, DrainMS: resp.DrainSeconds * 1e3}
				if err != nil {
					rec.Err = err.Error()
				}
				s.recs = append(s.recs, rec)
			}
		}
	}()
	return s
}

func (s *swapper) finish() []swapRec {
	close(s.stop)
	<-s.done
	return s.recs
}

// fleetScrape is one scrape of the gateway and of the replicas (summed).
type fleetScrape struct {
	at             time.Time
	gate, replicas scrape
}

func scrapeFleet(fl *fleet) (fleetScrape, error) {
	fs := fleetScrape{at: time.Now()}
	var err error
	if fs.gate, err = takeScrape(fl.gate, false); err != nil {
		return fs, err
	}
	for _, d := range fl.replicas {
		s, err := takeScrape(d, true)
		if err != nil {
			return fs, err
		}
		fs.replicas = fs.replicas.plus(s, 1)
	}
	return fs, nil
}

// tracedPhase gathers a phase's traced segments: their client records, the
// summed scrape deltas across each of them, and their time windows.
type tracedPhase struct {
	segs    []*segRun
	delta   fleetScrape
	windows [][2]time.Time
}

func (t *tracedPhase) add(s *segRun, before, after fleetScrape) {
	t.segs = append(t.segs, s)
	t.delta.gate = t.delta.gate.plus(after.gate, 1).plus(before.gate, -1)
	t.delta.replicas = t.delta.replicas.plus(after.replicas, 1).plus(before.replicas, -1)
	t.windows = append(t.windows, [2]time.Time{before.at, after.at})
}

// runServe is the serving part of a run: set-up (the fleet started on the
// low-rank model, the wavelet one loaded beside it, every /readyz 200),
// then open-loop load through the gateway for budget seconds while the
// alias is hot-swapped between the two versions. It returns the median
// set-up time.
func (b *bench) runServe(w workload, lr, wv *core.Result, budget float64) (float64, error) {
	runDir := filepath.Join(b.root, ".bench_build", "serve", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(runDir)
	modelPath := filepath.Join(runDir, servedAlias+".scm")
	data, err := model.Encode(lr.Model())
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		return 0, err
	}
	wdata, err := model.Encode(wv.Model())
	if err != nil {
		return 0, err
	}

	var (
		fl  *fleet
		fpB string
	)
	defer func() { fl.stop() }()
	setupS, err := timeSetup(func() { fl.stop(); fl = nil }, func() error {
		var err error
		if fl, err = startFleet(b.bin, modelPath, runDir, servedReplicas); err != nil {
			return err
		}
		for _, d := range fl.replicas {
			var resp struct {
				Fingerprint string `json:"fingerprint"`
			}
			if err := postJSON(d.url("/admin/models"), nil, wdata, &resp); err != nil {
				return fmt.Errorf("loading the wavelet version: %w", err)
			}
			fpB = resp.Fingerprint
		}
		return fl.waitReady(30 * time.Second)
	})
	if err != nil {
		return 0, err
	}

	n := lr.N()
	fpA := fmt.Sprintf("%016x", model.FingerprintOf(lr.Model(), 0))
	wantB := fmt.Sprintf("%016x", model.FingerprintOf(wv.Model(), 0))
	b.check(fpB == wantB, "replica loaded the wavelet version as %s, local fingerprint %s", fpB, wantB)
	for _, d := range fl.replicas {
		var models []struct {
			Name        string `json:"name"`
			Fingerprint string `json:"fingerprint"`
		}
		err := getJSON(d.url("/models"), &models)
		ok := err == nil && len(models) == 1 && models[0].Name == servedAlias && models[0].Fingerprint == fpA
		b.check(ok, "%s serves %+v (err %v), want alias %s at %s", d.name, models, err, servedAlias, fpA)
	}
	b.record["served_fingerprint_lowrank"] = fpA
	b.record["served_fingerprint_wavelet"] = wantB
	b.record["replicas"] = servedReplicas

	// Request vectors from the seed, and the bitwise responses of both
	// versions computed locally.
	rng := rand.New(rand.NewSource(b.seed))
	var expect [2][][]byte
	bodies := make([][]byte, requestVectors)
	for v := range bodies {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		bodies[v] = serve.EncodeRawVector(x)
		expect[0] = append(expect[0], serve.EncodeRawVector(lr.Apply(x)))
		expect[1] = append(expect[1], serve.EncodeRawVector(wv.Apply(x)))
	}

	conns := runtime.NumCPU()
	gen := newLoadGen(fl.gate.url("/apply?model="+servedAlias), conns, bodies, expect, n)
	// Warm the connections and the daemons' pools.
	all := []*segRun{gen.run("warmup", w.lowRate, 500*time.Millisecond)}

	// Rounds of one low and one high segment. The untraced run spends all
	// its time on them; the traced run spends half, scraping around every
	// other round (the traced segments), and the other half on the ladder.
	total := time.Duration(budget * float64(time.Second))
	phases := []struct {
		name string
		rate float64
	}{{"low", w.lowRate}, {"high", w.highRate}}
	loadBudget := total
	if b.trace {
		loadBudget = total / 2
	}
	rounds := max(int(loadBudget/(segment*time.Duration(len(phases)))), 2)
	sw := startSwapper(fl, [2]string{fpA, fpB})
	bare := map[string][]*segRun{}
	traced := map[string]*tracedPhase{"low": {}, "high": {}}
	for r := 0; r < rounds; r++ {
		for _, ph := range phases {
			if !b.trace || r%2 == 0 {
				s := gen.run(ph.name, ph.rate, segment)
				bare[ph.name] = append(bare[ph.name], s)
				all = append(all, s)
				continue
			}
			before, err := scrapeFleet(fl)
			if err != nil {
				sw.finish()
				return 0, err
			}
			s := gen.run(ph.name, ph.rate, segment)
			after, err := scrapeFleet(fl)
			if err != nil {
				sw.finish()
				return 0, err
			}
			traced[ph.name].add(s, before, after)
			all = append(all, s)
		}
	}
	rates := map[string]any{"low": w.lowRate, "high": w.highRate}
	if b.trace {
		ladder, maxRPS := runLadder(gen, total/2, w.highRate)
		all = append(all, ladder...)
		rates["ladder"] = ladderRates(ladder)
		b.put("client.max_rps", "req/s", maxRPS)
	}
	swaps := sw.finish()

	b.record["rates"] = rates
	b.record["connections"] = conns
	b.record["segment_ms"] = segment.Milliseconds()
	b.record["swap_every_ms"] = swapEvery.Milliseconds()
	b.record["swaps"] = len(swaps)
	for _, s := range all {
		for _, r := range s.Recs {
			if r.OK {
				b.attempt("")
			} else {
				b.attempt(fmt.Sprintf("%s request due at %.1f ms: status %d, not a bitwise response of either version", s.Phase, float64(r.Due)/1e6, r.Status))
			}
		}
	}
	for _, s := range swaps {
		b.check(s.Err == "", "swap at %s: %s", s.At.Format(time.StampMicro), s.Err)
	}
	b.check(len(swaps) > 0, "no hot swap happened during the run")
	for _, ph := range phases {
		segs := append(append([]*segRun(nil), bare[ph.name]...), traced[ph.name].segs...)
		sent, ok := 0, 0
		for _, s := range segs {
			sent += len(s.Recs)
			ok += okCount(s.Recs)
		}
		rec := map[string]any{
			"segments": len(segs), "sent": sent, "ok": ok, "failed": sent - ok,
			"p50_ms": segQuantile(segs, 0.5), "p99_ms": segQuantile(segs, 0.99),
		}
		if b.trace {
			// Validity counters of the traced segments, zero in a healthy
			// run: gateway failovers and time spent waiting for an engine
			// from the pool (the batcher's window wait already contains it).
			d := traced[ph.name].delta
			rec["failovers"] = d.gate.sum("subgate_failover_total")
			rec["pool_wait_s"] = d.replicas.sum("subserve_pool_wait_seconds_sum")
		}
		b.record["phase_"+ph.name] = rec
	}

	fl.stop()
	fl = nil

	if !b.trace {
		b.put("p50_ms_low", "ms", segQuantile(bare["low"], 0.5))
		b.put("p50_ms_high", "ms", segQuantile(bare["high"], 0.5))
		return setupS, nil
	}
	for _, ph := range phases {
		t := traced[ph.name]
		b.servePerLayer(ph.name, t, swaps)
		b.put("trace.overhead_ms."+ph.name, "ms", segQuantile(t.segs, 0.5)-segQuantile(bare[ph.name], 0.5))
	}
	b.spans = map[string]any{"extraction": b.spans, "serving": map[string]any{"segments": all, "swaps": swaps}}
	return setupS, nil
}

func okCount(recs []reqRec) int {
	n := 0
	for _, r := range recs {
		if r.OK {
			n++
		}
	}
	return n
}

// runLadder searches for max_rps: the offered rate is bisected (on a log
// scale) between the high rate and ladderTop × the high rate, for
// ladderSteps steps of equal length, each run as two segments. A step
// passes if the median segment p99 is within latencyLimitMS and neither
// segment built a backlog; max_rps is the highest rate that passed.
func runLadder(gen *loadGen, budget time.Duration, highRate float64) ([]*segRun, float64) {
	segDur := budget / ladderSteps / 2
	var steps []*segRun
	lo, hi := highRate, highRate*ladderTop
	for i := 0; i < ladderSteps; i++ {
		rate := math.Sqrt(lo * hi)
		name := fmt.Sprintf("ladder-%.0f", rate)
		segs := []*segRun{gen.run(name, rate, segDur), gen.run(name, rate, segDur)}
		steps = append(steps, segs...)
		ok := segQuantile(segs, 0.99) <= latencyLimitMS && !segs[0].backlogGrew() && !segs[1].backlogGrew()
		fmt.Fprintf(os.Stderr, "ladder %.0f req/s: p50 %.2f ms, p99 %.2f ms, pass %v\n", rate, segQuantile(segs, 0.5), segQuantile(segs, 0.99), ok)
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	return steps, lo
}

// ladderRates lists the rate of each ladder step (two segments per step).
func ladderRates(steps []*segRun) []float64 {
	var out []float64
	for i := 0; i < len(steps); i += 2 {
		out = append(out, math.Round(steps[i].Rate))
	}
	return out
}

// servePerLayer derives one phase's per-layer serving metrics from the
// client records of its traced segments and the scrape deltas across them.
func (b *bench) servePerLayer(name string, t *tracedPhase, swaps []swapRec) {
	gate, reps := t.delta.gate, t.delta.replicas
	sfx := "." + name
	const ms = 1e3

	var sent int
	var late, clientMS []float64
	for _, s := range t.segs {
		sent += len(s.Recs)
		for _, r := range s.Recs {
			late = append(late, float64(r.Handed-r.Due)/1e6)
			clientMS = append(clientMS, float64(r.Done-r.Sent)/1e6)
		}
	}
	b.put("client.late_ms"+sfx, "ms", mean(late))
	b.put("client.p50_ms"+sfx, "ms", segQuantile(t.segs, 0.5))
	b.put("client.p99_ms"+sfx, "ms", segQuantile(t.segs, 0.99))
	b.put("client.sent"+sfx, "count", float64(sent))

	request := gate.mean("subgate_http_request_seconds", "endpoint", "apply") * ms
	backend := gate.mean("subgate_backend_request_seconds") * ms
	b.put("gateway.request_ms"+sfx, "ms", request)
	b.put("gateway.backend_ms"+sfx, "ms", backend)
	b.put("gateway.hop_ms"+sfx, "ms", request-backend)
	// What the gateway does not see: the client's own send/receive and
	// the loopback leg to the gateway.
	b.put("client.unattributed_ms"+sfx, "ms", mean(clientMS)-request)

	applies := reps.sum("subserve_http_request_seconds_count", "endpoint", "apply")
	handler := reps.mean("subserve_http_request_seconds", "endpoint", "apply") * ms
	b.put("serve.handler_ms"+sfx, "ms", handler)
	b.put("net.relay_ms"+sfx, "ms", backend-handler)

	// The window wait runs from admission to the flush, after the pool
	// checkout, so it already contains the pool wait.
	window := reps.mean("subserve_batch_window_wait_seconds") * ms
	b.put("registry.window_wait_ms"+sfx, "ms", window)
	b.put("registry.batch_mean"+sfx, "count", reps.mean("subserve_batch_size"))
	b.put("registry.drain_ms"+sfx, "ms", reps.mean("subserve_registry_swap_drain_seconds")*ms)
	var swapMS []float64
	for _, s := range swaps {
		for _, w := range t.windows {
			if !s.At.Before(w[0]) && s.At.Before(w[1]) {
				swapMS = append(swapMS, s.MS)
			}
		}
	}
	swap := 0.0
	if len(swapMS) > 0 {
		swap = mean(swapMS)
	}
	b.put("registry.swap_ms"+sfx, "ms", swap)

	// Every request waits for exactly one engine call (a single apply, or
	// a panel apply when the batcher coalesces), so the mean call duration
	// over both kinds is the per-request kernel time.
	kernel := (reps.sum("subcouple_engine_apply_seconds_sum", "kind", "single") + reps.sum("subcouple_engine_apply_seconds_sum", "kind", "panel")) /
		(reps.sum("subcouple_engine_apply_seconds_count", "kind", "single") + reps.sum("subcouple_engine_apply_seconds_count", "kind", "panel")) * ms
	b.put("model.apply_us"+sfx, "us", kernel*1e3)
	b.put("serve.unattributed_ms"+sfx, "ms", handler-window-kernel)

	alloc := 0.0
	if applies > 0 {
		alloc = reps.totalAlloc / applies / 1024
	}
	b.put("serve.alloc_kb_per_req"+sfx, "KB", alloc)
}
