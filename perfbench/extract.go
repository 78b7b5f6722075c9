package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/dct"
	"subcouple/internal/experiments"
	"subcouple/internal/la"
	"subcouple/internal/lowrank"
	"subcouple/internal/metrics"
	"subcouple/internal/model"
	"subcouple/internal/solver"
)

// methods are the two extraction methods every workload runs, keyed by the
// metric-name prefix.
var methods = []struct {
	key    string
	method core.Method
}{{"lowrank", core.LowRank}, {"wavelet", core.Wavelet}}

// A run builds each part of its set-up at least setupReps times, and more
// (up to maxSetupReps) while that part's set-ups so far took under
// minSetupSeconds in total; each part's figure is its median, and the last
// set-up is the one used.
const (
	setupReps       = 3
	maxSetupReps    = 100
	minSetupSeconds = 2.0
)

// lowrankSeeds is how many low-rank sample seeds a run cycles through (pass
// p uses --seed + 1000·(p mod lowrankSeeds)): the low-rank error and solve
// count depend on the random samples, so medians over several seeds keep
// them steady from run to run. Solve counts, nnz and the served models are
// those of --seed itself.
const lowrankSeeds = 5

// workload is one benchmark workload: a case, how to build its black box
// and reference columns, its output checks, and the rates at which its
// extracted models are served.
type workload struct {
	name string
	c    experiments.Case
	// setup builds the black box and the exact reference columns
	// exact[:, k] = G[:, cols[k]].
	setup func(c experiments.Case) (s solver.Solver, exact *la.Dense, cols []int, err error)
	// seed1Solves are the committed black-box solve counts on seed 1 (nil
	// = not checked).
	seed1Solves map[string]int
	// maxErrRMS is the accuracy bound per method: RMS absolute error over
	// the sampled exact columns, divided by the largest |exact| entry, of
	// the unthresholded Gw. A run exceeding it fails.
	maxErrRMS map[string]float64
	// lowRate and highRate are the serving phases' request rates (req/s),
	// fixed so later runs compare latency at the same offered load. The
	// low rate leaves each replica's batcher one request at a time; the
	// high rate sits well below the saturation measured at the commit that
	// introduced this benchmark, because closer to it a shared host's slow
	// spells push the offered load past capacity and latency diverges.
	lowRate, highRate float64
}

// workloads are the benchmark's workloads, by name.
var workloads = map[string]func() workload{
	"bem-256":     bemWorkload,
	"kernel-1024": kernelWorkload,
}

// sampleCols is the thesis's 10% column sample.
func sampleCols(n int) []int { return metrics.SampleColumns(n, (n+9)/10) }

// bemWorkload is thesis Example 3 (256 contacts on a 64×64 panel grid)
// through the live eigenfunction solver: the black box dominates the
// extraction. Served, its 256-contact models cost little to apply, so the
// serving path is dominated by the router, batcher and gateway.
func bemWorkload() workload {
	return workload{
		name: "bem-256",
		c:    experiments.Example3(experiments.Small),
		setup: func(c experiments.Case) (solver.Solver, *la.Dense, []int, error) {
			s, err := experiments.BemSolver(c)
			if err != nil {
				return nil, nil, nil, err
			}
			cols := sampleCols(c.Layout.N())
			exact, err := solver.ExtractColumns(solver.Parallel(s, 0), cols)
			return s, exact, cols, err
		},
		seed1Solves: map[string]int{"lowrank": 249, "wavelet": 186},
		maxErrRMS:   map[string]float64{"lowrank": 5e-5, "wavelet": 5e-5},
		lowRate:     200,
		highRate:    400, // saturation about 1000 req/s on 2 CPUs
	}
}

// kernelWorkload is the alternating-1024 scaling rung against the dense
// synthetic kernel: the black box is a cheap matvec, so the algorithm
// (lowrank/wavelet/la/sparse/quadtree) dominates the extraction. Served, a
// single 1024-contact apply costs about as much as the batching wait.
func kernelWorkload() workload {
	var c experiments.Case
	for _, sc := range experiments.ScalingLadder(1024) {
		if sc.Case.Name == "alternating-1024" {
			c = sc.Case
		}
	}
	return workload{
		name:      "kernel-1024",
		c:         c,
		setup:     denseSetup,
		maxErrRMS: map[string]float64{"lowrank": 5e-6, "wavelet": 1e-6},
		lowRate:   200,
		highRate:  300, // saturation about 500 req/s on 2 CPUs
	}
}

// denseSetup builds the synthetic-kernel black box for a case; its
// reference columns are columns of G itself.
func denseSetup(c experiments.Case) (solver.Solver, *la.Dense, []int, error) {
	g := experiments.SyntheticG(c.Layout)
	cols := sampleCols(g.Rows)
	exact := la.NewDense(g.Rows, len(cols))
	for k, j := range cols {
		exact.SetCol(k, g.Col(j))
	}
	return solver.NewDense(g), exact, cols, nil
}

// timeSetup runs f setupReps to maxSetupReps times (see setupReps) and
// returns the median wall time in seconds. before, if non-nil, runs
// untimed ahead of each f, to undo the previous set-up.
func timeSetup(before func(), f func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps || (sum(secs) < minSetupSeconds && i < maxSetupReps); i++ {
		if before != nil {
			before()
		}
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs = append(secs, elapsedSince(t0))
	}
	return median(secs), nil
}

// extraction is one measured core.Extract call and what it produced.
type extraction struct {
	solves  int
	gwNNZ   int
	seconds float64
	allocMB float64
	fp      uint64
	errRMS  float64
	maxRel  float64
	frac10  float64
	stats   solverStats // traced extractions only
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// extractOnce runs and times one extraction of c with s as the black box.
// The allocation figure is the runtime/metrics delta around core.Extract
// only: set-up, reference columns, the synthetic G and earlier work in the
// process never count. The checks (fingerprint, accuracy) run afterwards,
// outside the timed region.
//
// With a non-nil wrapper the extraction's black box is the wrapper (around
// s), which records one span per call under an extraction span and returns
// the per-extraction call statistics in stats.
func extractOnce(c experiments.Case, s solver.Solver, wrapper *timedSolver, method core.Method, seed int64, workers int, exact *la.Dense, cols []int) (extraction, *core.Result, error) {
	lopt := lowrank.DefaultOptions()
	lopt.Seed = seed
	opt := core.Options{Method: method, MaxLevel: c.MaxLevel, ThresholdFactor: 6, Workers: workers, LowRank: lopt}
	var stats solverStats
	runtime.GC()
	a0 := allocatedBytes()
	t0 := time.Now()
	if wrapper != nil {
		wrapper.begin("extract/" + method.String())
		s = wrapper
	}
	res, err := core.Extract(s, c.Layout, opt)
	if wrapper != nil {
		stats = wrapper.end()
	}
	sec := elapsedSince(t0)
	a1 := allocatedBytes()
	if err != nil {
		return extraction{}, nil, fmt.Errorf("%s %v: %w", c.Name, method, err)
	}
	e := extraction{solves: res.Solves, gwNNZ: res.Gw.NNZ(), seconds: sec, allocMB: float64(a1-a0) / 1e6, stats: stats}
	e.fp = model.FingerprintOf(res.Model(), 0)
	st := metrics.Compare(exact, func(k int) []float64 { return res.Column(cols[k]) }, nil, 0.1)
	e.errRMS = st.RMSAbs / st.ScaleMax
	e.maxRel, e.frac10 = st.MaxRel, st.FracAbove
	return e, res, nil
}

// runExtract is the extraction part of a run: set-up (the black box and
// the reference columns), then passes of one low-rank and one wavelet
// extraction until budget seconds are up. The traced run alternates bare
// passes with passes through the timing wrapper, so the wrapper's overhead
// is measured in the same run, and ends with the Workers: 1 ablation. It
// returns the median set-up time and the --seed extractions of both
// methods, which the serving part serves.
func (b *bench) runExtract(w workload, budget float64) (setupS float64, served map[string]*core.Result, err error) {
	c := w.c
	var (
		s     solver.Solver
		exact *la.Dense
		cols  []int
	)
	setupS, err = timeSetup(nil, func() error {
		var err error
		s, exact, cols, err = w.setup(c)
		return err
	})
	if err != nil {
		return 0, nil, fmt.Errorf("set-up %s: %w", c.Name, err)
	}
	workers := runtime.NumCPU()
	b.record["case"] = c.Name
	b.record["contacts"] = c.Layout.N()
	b.record["workers"] = workers
	b.record["reference_columns"] = len(cols)

	wrapped := newTimedSolver(s)
	bare := map[string][]extraction{}
	traced := map[string][]extraction{}
	served = map[string]*core.Result{}
	// fps holds the first fingerprint per (method, seed); every later
	// extraction of the same pair must match it bitwise.
	fps := map[fpKey]uint64{}
	checkOne := func(key string, seed int64, e extraction, label string) {
		k := keyOf(key, seed)
		if first, ok := fps[k]; !ok {
			fps[k] = e.fp
		} else {
			b.check(e.fp == first, "%s seed %d %s fingerprint %016x differs from the first extraction's %016x", key, seed, label, e.fp, first)
		}
		fmt.Fprintf(os.Stderr, "%s seed %d %s: %.3fs, %d solves, gw nnz %d, err_rms %.3g, alloc %.0f MB, fp %016x\n",
			key, seed, label, e.seconds, e.solves, e.gwNNZ, e.errRMS, e.allocMB, e.fp)
		b.check(e.errRMS <= w.maxErrRMS[key], "%s %s err_rms %.3g exceeds the accuracy bound %.3g", key, label, e.errRMS, w.maxErrRMS[key])
		if want, ok := w.seed1Solves[key]; ok && seed == 1 {
			b.check(e.solves == want, "%s %s used %d solves on seed 1, committed count is %d", key, label, e.solves, want)
		}
	}
	minPasses := 1
	if b.trace {
		minPasses = 2 // one bare and one traced
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		viaWrapper := b.trace && pass%2 == 1
		round := pass
		if b.trace {
			round = pass / 2 // a bare and a traced pass share each seed
		}
		seed := b.seed + 1000*int64(round%lowrankSeeds)
		for _, m := range methods {
			var wr *timedSolver
			if viaWrapper {
				wr = wrapped
			}
			e, res, err := extractOnce(c, s, wr, m.method, seed, workers, exact, cols)
			if err != nil {
				return 0, nil, err
			}
			if pass == 0 {
				served[m.key] = res
			}
			if viaWrapper {
				traced[m.key] = append(traced[m.key], e)
				checkOne(m.key, seed, e, "traced")
			} else {
				bare[m.key] = append(bare[m.key], e)
				checkOne(m.key, seed, e, "bare")
			}
		}
		if pass+1 >= minPasses && elapsedSince(start) >= budget {
			break
		}
	}

	for _, m := range methods {
		b.record["fingerprint_"+m.key] = fmt.Sprintf("%016x", fps[keyOf(m.key, b.seed)])
		b.record["seconds_"+m.key] = pick(bare[m.key], func(e extraction) float64 { return e.seconds })
	}
	b.record["lowrank_seeds"] = lowrankSeeds
	if !b.trace {
		var allocs []float64
		for i := range bare["lowrank"] {
			allocs = append(allocs, bare["lowrank"][i].allocMB+bare["wavelet"][i].allocMB)
		}
		b.put("alloc_mb", "MB", median(allocs))
		for _, m := range methods {
			es := bare[m.key]
			b.put(m.key+"_s", "s", median(pick(es, func(e extraction) float64 { return e.seconds })))
			b.put(m.key+"_solves", "count", float64(es[0].solves))
			b.put(m.key+"_gw_nnz", "count", float64(es[0].gwNNZ))
			b.put(m.key+"_err_rms", "ratio", median(pick(es, func(e extraction) float64 { return e.errRMS })))
		}
		return setupS, served, nil
	}

	b.spans = map[string]any{"case": c.Name, "seed": b.seed, "spans": wrapped.spans}
	for _, m := range methods {
		k := m.key
		es := traced[k]
		bareS := median(pick(bare[k], func(e extraction) float64 { return e.seconds }))
		wall := median(pick(es, func(e extraction) float64 { return e.seconds }))
		busy := median(pick(es, func(e extraction) float64 { return e.stats.busy }))
		self := wall - busy
		b.put("solver.busy_s."+k, "s", busy)
		b.put("solver.calls."+k, "count", median(pick(es, func(e extraction) float64 { return float64(e.stats.calls) })))
		b.put("solver.batch_mean."+k, "count", median(pick(es, func(e extraction) float64 {
			return float64(e.stats.vectors) / float64(e.stats.calls)
		})))
		b.put(k+".self_s", "s", self)
		// The layer sum against the untraced wall time of the same run:
		// what the wrapper's split leaves unattributed (its own overhead).
		b.put(k+".residual_s", "s", bareS-busy-self)
		b.put("trace.overhead_s."+k, "s", wall-bareS)
		b.put(k+".alloc_mb", "MB", median(pick(bare[k], func(e extraction) float64 { return e.allocMB })))
		b.put(k+".max_rel", "ratio", median(pick(bare[k], func(e extraction) float64 { return e.maxRel })))
		b.record["frac_10pct_"+k] = median(pick(bare[k], func(e extraction) float64 { return e.frac10 }))
		e, _, err := extractOnce(c, s, nil, m.method, b.seed, 1, exact, cols)
		if err != nil {
			return 0, nil, err
		}
		want := fps[keyOf(k, b.seed)]
		b.check(e.fp == want, "%s Workers: 1 fingerprint %016x differs from the Workers: %d one %016x", k, e.fp, workers, want)
		b.put(k+".serial_s", "s", e.seconds)
		b.put(k+".parallel_speedup", "x", e.seconds/bareS)
	}
	return setupS, served, nil
}

// fpKey identifies the extractions that must agree bitwise.
type fpKey struct {
	method string
	seed   int64
}

// keyOf is the fingerprint key of a method run with a sample seed; the
// wavelet method draws no samples, so all its extractions share one key.
func keyOf(method string, seed int64) fpKey {
	if method == "wavelet" {
		seed = 0
	}
	return fpKey{method, seed}
}

// pick maps es through f.
func pick(es []extraction, f func(extraction) float64) []float64 {
	out := make([]float64, len(es))
	for i, e := range es {
		out[i] = f(e)
	}
	return out
}

// kernelTimings times the hot kernels in isolation, identically in every
// workload. The solver kernels run on thesis Example 3's np×np panel
// field: single bem solves of unit contact voltages (wall time and CG
// iterations per solve), the eigenfunction operator (2-D DCT-II, scale,
// 2-D DCT-III) and one 2-D DCT-II with its allocations per call. The apply
// kernels run on the workload's served low-rank model.
func (b *bench) kernelTimings(lr *core.Result) error {
	c := experiments.Example3(experiments.Small)
	bs, err := experiments.BemSolver(c)
	if err != nil {
		return err
	}
	const solves = 8
	v := make([]float64, bs.N())
	bs.ResetStats()
	t0 := time.Now()
	for _, j := range sampleCols(bs.N())[:solves] {
		clear(v)
		v[j] = 1
		if _, err := bs.Solve(v); err != nil {
			return err
		}
	}
	b.put("bem.solve_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6/solves)
	b.put("bem.cg_iters", "count", bs.AvgIterations())

	np := c.NP
	rng := rand.New(rand.NewSource(b.seed))
	tmpl := make([]float64, np*np)
	for i := range tmpl {
		tmpl[i] = rng.Float64() - 0.5
	}
	field := make([]float64, len(tmpl))
	b.put("bem.operator_us", "us", timeCall(func() {
		copy(field, tmpl)
		bs.ApplyPanelOperator(field)
	}))
	b.put("dct.dct2d_us", "us", timeCall(func() {
		copy(field, tmpl)
		dct.DCT2D2(field, np, np)
	}))
	const calls = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		copy(field, tmpl)
		dct.DCT2D2(field, np, np)
	}
	runtime.ReadMemStats(&m1)
	b.put("dct.dct2d_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/calls)
	b.put("dct.dct2d_bytes", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/calls)

	eng := lr.Engine()
	n := lr.N()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.put("model.single_us", "us", timeCall(func() { eng.ApplyInto(y, x) }))
	const k = 16
	xp, yp := make([]float64, n*k), make([]float64, n*k)
	for i := range xp {
		xp[i] = rng.NormFloat64()
	}
	b.put("model.panel16_us", "us", timeCall(func() { eng.ApplyPanelInto(yp, xp, k, 0) }))
	return nil
}

// timeCall returns the median over 7 batches of f's per-call wall time in
// microseconds, each batch running about 30 ms.
func timeCall(f func()) float64 {
	f() // warm caches
	t0 := time.Now()
	f()
	per := time.Since(t0)
	n := int(30*time.Millisecond/(per+1)) + 1
	var us []float64
	for batch := 0; batch < 7; batch++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3/float64(n))
	}
	return median(us)
}
