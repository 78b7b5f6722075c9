// Package obs is the extraction pipeline's zero-dependency observability
// layer: phase-scoped wall timers, monotonic counters, fixed-bucket
// histograms, numerical-health stats and — when built with
// NewTracingRecorder — a bounded buffer of per-event spans (trace.go), all
// behind one *Recorder. Every method is safe on a nil receiver and becomes
// a no-op, so instrumented code paths carry a recorder unconditionally and
// pay near-zero overhead when observability is off (measured, not asserted:
// see BenchmarkRecorderOverhead and BenchmarkSpanOverhead).
// Recording never influences the computation it observes — extraction
// outputs are bitwise identical with a recorder on or off, tracing or not
// (enforced by the core determinism suite).
//
// The recorder is safe for concurrent use: batched solves observe their
// iteration counts from the worker pool. Phase timers may nest and repeat;
// each phase accumulates inclusive wall time and a call count.
//
// The serving daemons do not use a Recorder: their telemetry is the live
// Prometheus registry in metrics.go.
package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// histBuckets are the upper bounds of the fixed histogram buckets: a full
// power-of-two ladder, wide enough for iteration counts and batch sizes
// alike without aliasing anywhere along it. Values above the top bound land
// in an explicit +Inf overflow bucket — never lost. The bucket layout is
// part of the report schema — do not reorder.
var histBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// Recorder collects phases, counters, histograms and numerical-health
// statistics for one run.
type Recorder struct {
	mu     sync.Mutex
	phases map[string]*phaseAcc
	order  []string // phase registration order
	ctrs   map[string]int64
	hists  map[string]*histAcc

	// Numerical-health telemetry (the report-v2 "numerics" section):
	// residual-style value stats, rank histograms, and drop counters.
	resids map[string]*valueAcc
	ranks  map[string]*histAcc
	drops  map[string]int64

	// spans is the span buffer of a tracing recorder (nil otherwise).
	spans *spanBuf
}

type phaseAcc struct {
	calls   int64
	elapsed time.Duration
}

type histAcc struct {
	count    int64
	sum      float64
	min, max float64
	buckets  []int64 // len(histBuckets)+1; last is the +Inf overflow
}

// valueAcc accumulates a residual-style value series: summary statistics
// plus the most recent sample (the "did it degrade by the end" signal).
type valueAcc struct {
	count    int64
	sum      float64
	min, max float64
	last     float64
}

// NewRecorder returns an empty recorder without span tracing (see
// NewTracingRecorder).
func NewRecorder() *Recorder {
	return &Recorder{
		phases: map[string]*phaseAcc{},
		ctrs:   map[string]int64{},
		hists:  map[string]*histAcc{},
		resids: map[string]*valueAcc{},
		ranks:  map[string]*histAcc{},
		drops:  map[string]int64{},
	}
}

// nop is the shared no-op phase closer returned by nil recorders.
func nop() {}

// Phase starts a wall timer for the named phase and returns the function
// that stops it. Typical use:
//
//	defer rec.Phase("lowrank/sweep")()
//
// Phases may nest and repeat; time is inclusive and accumulated per name.
func (r *Recorder) Phase(name string) func() {
	if r == nil {
		return nop
	}
	start := time.Now()
	return func() { r.addPhase(name, time.Since(start)) }
}

func (r *Recorder) addPhase(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.phases[name]
	if p == nil {
		p = &phaseAcc{}
		r.phases[name] = p
		r.order = append(r.order, name)
	}
	p.calls++
	p.elapsed += d
}

// Add increments the named counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ctrs[name] += delta
	r.mu.Unlock()
}

// Observe records one sample into the named histogram.
func (r *Recorder) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	observeInto(r.hists, name, v)
	r.mu.Unlock()
}

// observeInto adds one sample to the named histogram of the given map,
// creating it on first use. Caller holds the recorder mutex.
func observeInto(hists map[string]*histAcc, name string, v float64) {
	h := hists[name]
	if h == nil {
		h = &histAcc{min: math.Inf(1), max: math.Inf(-1), buckets: make([]int64, len(histBuckets)+1)}
		hists[name] = h
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	b := sort.SearchFloat64s(histBuckets, v) // first bucket with bound >= v
	h.buckets[b]++
}

// Residual records one residual-style health sample (e.g. a solve's final
// relative residual) into the run's numerics section.
func (r *Recorder) Residual(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	a := r.resids[name]
	if a == nil {
		a = &valueAcc{min: math.Inf(1), max: math.Inf(-1)}
		r.resids[name] = a
	}
	a.count++
	a.sum += v
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	a.last = v
	r.mu.Unlock()
}

// Rank records one chosen rank (row-basis cut, sweep recombination, ...)
// into the named numerics rank histogram.
func (r *Recorder) Rank(name string, rank int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	observeInto(r.ranks, name, float64(rank))
	r.mu.Unlock()
}

// Drop adds to a named numerics drop counter (truncated spectra, ...).
// Recording zero still registers the key, so "nothing was dropped" is
// visible in the report. A tracing recorder keeps its own
// "obs/spans_dropped" counter (see Numerics).
func (r *Recorder) Drop(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.drops[name] += delta
	r.mu.Unlock()
}

// Snapshot returns an immutable copy of everything recorded so far, with
// phases in registration order and counter/histogram names sorted.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.ctrs)),
		Histograms: make(map[string]HistStat, len(r.hists)),
	}
	for _, name := range r.order {
		p := r.phases[name]
		s.Phases = append(s.Phases, PhaseStat{Name: name, Calls: p.calls, Seconds: p.elapsed.Seconds()})
	}
	for name, v := range r.ctrs {
		s.Counters[name] = v
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.stat()
	}
	return s
}

// stat summarizes one histogram accumulator.
func (h *histAcc) stat() HistStat {
	hs := HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		hs.Mean = h.sum / float64(h.count)
	} else {
		hs.Min, hs.Max = 0, 0
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		le := "+Inf"
		if i < len(histBuckets) {
			le = formatBound(histBuckets[i])
		}
		hs.Buckets = append(hs.Buckets, BucketStat{Le: le, Count: c})
	}
	return hs
}

// Numerics returns an immutable copy of the numerical-health telemetry
// recorded so far: residual stats, rank histograms, and drop counters. A
// tracing recorder adds "obs/spans_dropped", the spans that missed its
// buffer, so a trace that lost spans is labeled as such in the report. The
// result is never nil for a non-nil recorder — an empty section still
// serializes, which is what distinguishes "nothing recorded" from "not a
// v2 report".
func (r *Recorder) Numerics() *Numerics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := &Numerics{
		Residuals: make(map[string]ValueStat, len(r.resids)),
		Ranks:     make(map[string]HistStat, len(r.ranks)),
		Drops:     make(map[string]int64, len(r.drops)),
	}
	for name, a := range r.resids {
		vs := ValueStat{Count: a.count, Sum: a.sum, Min: a.min, Max: a.max, Last: a.last}
		if a.count > 0 {
			vs.Mean = a.sum / float64(a.count)
		} else {
			vs.Min, vs.Max = 0, 0
		}
		n.Residuals[name] = vs
	}
	for name, h := range r.ranks {
		n.Ranks[name] = h.stat()
	}
	for name, v := range r.drops {
		n.Drops[name] = v
	}
	if r.spans != nil {
		n.Drops["obs/spans_dropped"] = r.spans.dropped.Load()
	}
	return n
}

func formatBound(v float64) string {
	// Bounds are small integral powers of two; render without exponents.
	u := int64(v)
	digits := [20]byte{}
	i := len(digits)
	for u > 0 {
		i--
		digits[i] = byte('0' + u%10)
		u /= 10
	}
	if i == len(digits) {
		return "0"
	}
	return string(digits[i:])
}

// RecorderSetter is implemented by solvers (fd, bem), adapters and apply
// engines that can report into a recorder — phases, counters and, on a
// tracing recorder, spans. core.Extract wires its Options.Recorder through
// this interface, so instrumented solvers need no extra plumbing.
type RecorderSetter interface {
	SetRecorder(*Recorder)
}
