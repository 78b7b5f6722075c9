package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing complements the Recorder's aggregates with per-event spans:
// where a phase answers "how much time did X take in total", the span
// buffer answers "when did each unit of work run, on which worker, nested
// under what". Spans form a tree (parent/child links) and carry a track id —
// track 0 is the issuing goroutine ("main"), tracks >= 1 are worker-pool
// slots — so the exported trace (see traceexport.go) shows the pool's actual
// overlap in Perfetto / chrome://tracing.
//
// Tracing is chosen when the recorder is built: NewTracingRecorder owns a
// bounded span buffer, NewRecorder does not, and on a recorder without one
// (or a nil recorder) Begin returns a nil *Span whose methods are no-ops. A
// live span buffer never changes the computation it observes: extraction
// outputs are bitwise identical with tracing on or off (enforced by the
// core determinism suite), and the per-span cost is measured by
// BenchmarkSpanOverhead.

// DefaultSpanCap is the span-buffer capacity used when NewTracingRecorder
// is given a non-positive cap: generous for the repo's examples (a
// 256-contact extraction emits a few thousand spans) while bounding memory
// on very large runs. Overflow is never silent — see SpansDropped and the
// "obs/spans_dropped" numerics drop counter.
const DefaultSpanCap = 1 << 16

// spanRec is one finished span in the bounded buffer.
type spanRec struct {
	id     int64
	parent int64 // 0 = root
	track  int
	name   string
	start  time.Time
	dur    time.Duration
	args   map[string]any
}

// spanBuf is a tracing recorder's bounded buffer of finished spans. It has
// its own lock so span commits never contend with phase and counter
// updates.
type spanBuf struct {
	start    time.Time
	capacity int

	nextID  atomic.Int64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

// NewTracingRecorder returns an empty recorder that also buffers spans, at
// most capacity finished ones (capacity <= 0 selects DefaultSpanCap). Spans
// finished after the buffer is full are counted in SpansDropped and in the
// "obs/spans_dropped" numerics drop counter instead of silently vanishing.
func NewTracingRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	r := NewRecorder()
	r.spans = &spanBuf{start: time.Now(), capacity: capacity}
	return r
}

// Tracing reports whether the recorder buffers spans.
func (r *Recorder) Tracing() bool { return r != nil && r.spans != nil }

// Span is one in-flight unit of work. A nil Span is a no-op: all methods
// are safe to call and Child returns nil, so instrumented code threads
// spans unconditionally.
type Span struct {
	buf    *spanBuf
	id     int64
	parent int64
	track  int
	name   string
	start  time.Time
	args   map[string]any
}

// Begin starts a root span on track 0 (the issuing goroutine's track).
func (r *Recorder) Begin(name string) *Span { return r.BeginOn(0, name) }

// BeginOn starts a root span on an explicit track. Worker-pool code uses
// track = worker index + 1 so each pool slot renders as its own row.
func (r *Recorder) BeginOn(track int, name string) *Span {
	if !r.Tracing() {
		return nil
	}
	return &Span{buf: r.spans, id: r.spans.nextID.Add(1), track: track, name: name, start: time.Now()}
}

// Child starts a child span on the same track as sp.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.ChildOn(sp.track, name)
}

// ChildOn starts a child span on an explicit track (e.g. a per-worker solve
// under a main-track batch span).
func (sp *Span) ChildOn(track int, name string) *Span {
	if sp == nil {
		return nil
	}
	b := sp.buf
	return &Span{buf: b, id: b.nextID.Add(1), parent: sp.id, track: track, name: name, start: time.Now()}
}

// Arg attaches a key/value argument to the span (rendered in the trace
// viewer's detail pane). It returns sp for chaining. Must be called before
// End, by the goroutine that owns the span.
func (sp *Span) Arg(key string, v any) *Span {
	if sp == nil {
		return nil
	}
	if sp.args == nil {
		sp.args = make(map[string]any, 4)
	}
	sp.args[key] = v
	return sp
}

// End finishes the span and commits it to the recorder's span buffer. If
// the buffer is full the span is counted as dropped instead — no silent
// truncation.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	rec := spanRec{
		id:     sp.id,
		parent: sp.parent,
		track:  sp.track,
		name:   sp.name,
		start:  sp.start,
		dur:    time.Since(sp.start),
		args:   sp.args,
	}
	b := sp.buf
	b.mu.Lock()
	if len(b.spans) < b.capacity {
		b.spans = append(b.spans, rec)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	b.dropped.Add(1)
}

// SpansDropped returns how many finished spans did not fit in the buffer.
func (r *Recorder) SpansDropped() int64 {
	if !r.Tracing() {
		return 0
	}
	return r.spans.dropped.Load()
}

// SpanCount returns the number of spans committed to the buffer so far.
func (r *Recorder) SpanCount() int {
	if !r.Tracing() {
		return 0
	}
	b := r.spans
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.spans)
}

// Tracks returns the sorted distinct track ids of the committed spans.
func (r *Recorder) Tracks() []int {
	if !r.Tracing() {
		return nil
	}
	return tracksOf(r.spanSnapshot())
}

// tracksOf returns the sorted distinct track ids of spans.
func tracksOf(spans []spanRec) []int {
	seen := map[int]bool{}
	for i := range spans {
		seen[spans[i].track] = true
	}
	out := make([]int, 0, len(seen))
	for tr := range seen {
		out = append(out, tr)
	}
	for i := 1; i < len(out); i++ { // insertion sort: track sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// spanSnapshot copies the committed spans (for export and tests).
func (r *Recorder) spanSnapshot() []spanRec {
	if !r.Tracing() {
		return nil
	}
	b := r.spans
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]spanRec, len(b.spans))
	copy(out, b.spans)
	return out
}
