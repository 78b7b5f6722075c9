package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"subcouple/internal/model"
	"subcouple/internal/obs"
)

// ErrClosed is returned by Batcher.Apply after Close: the daemon is
// draining and accepts no new work.
var ErrClosed = errors.New("serve: batcher closed")

// ErrApplyPanic marks errors recovered from a panic inside the serving hot
// path (batcher flush backstop). The HTTP layer maps it to 500 — a server
// fault — where ordinary apply errors are caller problems (400) or
// retryable drains (503).
var ErrApplyPanic = errors.New("serve: apply panic")

// DefaultMaxBatch bounds how many requests one flush may coalesce when the
// Batcher is configured with maxBatch <= 0.
const DefaultMaxBatch = 32

// Batcher coalesces concurrent Apply requests on one model into single
// multi-RHS panel applies, gated by engine availability rather than by a
// timer. The collector goroutine takes the oldest queued request, checks an
// engine out of the pool, then drains whatever else is already queued —
// without blocking — up to maxBatch requests of the same operator kind, and
// flushes that batch on the engine it holds. An idle daemon therefore
// flushes every request at once; requests that arrive while every engine is
// busy pile up in the queue and form the next panel, which is several times
// cheaper per column than single applies. Flushes run concurrently up to
// the pool size.
//
// Coalescing is invisible in the response bytes: the panel kernels compute
// each column with exactly the single-RHS arithmetic (and are bitwise
// deterministic for any worker count), so a batched response is identical
// to the unbatched one.
type Batcher struct {
	pool     *Pool
	maxBatch int
	workers  int

	reqs    chan *applyReq
	idle    chan struct{} // closed when the collector exits
	flights sync.WaitGroup

	// depth counts admitted-but-not-yet-completed requests (queued plus
	// in-flight in a flush). It is the queue-depth signal behind the
	// shedding /readyz and is maintained with or without metrics.
	depth atomic.Int64

	// Live metrics handles (nil without SetMetrics; all nil-safe).
	mDepth   *obs.Gauge
	mBatch   *obs.Histogram
	mWait    *obs.Histogram
	mFlushes *obs.Counter

	mu     sync.RWMutex // guards closed and the send into reqs
	closed bool
}

// applyReq is one enqueued apply: x in, dst out, done fired on completion.
// enq stamps admission so the flush can observe how long the request
// queued for an engine.
type applyReq struct {
	x, dst      []float64
	thresholded bool
	enq         time.Time
	done        chan error
}

// NewBatcher starts the collector for pool with the given batch bound
// (<= 0 selects DefaultMaxBatch) and engine worker count. The admission
// queue holds 2·maxBatch requests — room for one full panel being drained
// onto a free engine while the next fills; beyond that, admission blocks,
// bounded by each request's context.
func NewBatcher(pool *Pool, maxBatch, workers int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	b := &Batcher{
		pool:     pool,
		maxBatch: maxBatch,
		workers:  workers,
		reqs:     make(chan *applyReq, 2*maxBatch),
		idle:     make(chan struct{}),
	}
	go b.collect()
	return b
}

// SetMetrics attaches live metrics handles labeled with the registered
// model name. Call before serving starts; a nil registry leaves everything
// a no-op.
func (b *Batcher) SetMetrics(ms *obs.Metrics, name string) {
	b.mDepth = ms.Gauge(MetricQueueDepth, "applies admitted but not yet completed (queued + in-flight flushes)", "model", name)
	b.mBatch = ms.HistogramBuckets(MetricBatchSize, "requests coalesced into one flush", BatchSizeBuckets, "model", name)
	b.mWait = ms.Histogram(MetricWindowWaitSeconds, "admission to engine checkout per request (queue wait)", "model", name)
	b.mFlushes = ms.Counter(MetricBatchFlushes, "batches flushed through the engine pool", "model", name)
}

// QueueDepth returns the number of admitted-but-incomplete applies.
func (b *Batcher) QueueDepth() int { return int(b.depth.Load()) }

// Apply computes dst = G·x (Gwt·-based when thresholded) through a coalesced
// batch, blocking until the batch completes. ctx bounds only admission (the
// wait for space in the 2·maxBatch queue); once admitted a request always
// runs — graceful shutdown drains it. Dimensions are validated here so a
// mis-sized request can never poison a whole batch.
func (b *Batcher) Apply(ctx context.Context, dst, x []float64, thresholded bool) error {
	n := b.pool.Model().N
	if len(x) != n {
		return fmt.Errorf("serve: apply x has length %d, want %d", len(x), n)
	}
	if len(dst) != n {
		return fmt.Errorf("serve: apply dst has length %d, want %d", len(dst), n)
	}
	if thresholded && b.pool.Model().Gwt == nil {
		return fmt.Errorf("serve: model %q has no thresholded representation", b.pool.Model().Method)
	}
	req := &applyReq{x: x, dst: dst, thresholded: thresholded, enq: time.Now(), done: make(chan error, 1)}

	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	select {
	case b.reqs <- req:
		// Admitted: the request now counts toward queue depth until its
		// flush completes — shutdown drains admitted work, so depth also
		// covers the drain window.
		b.mDepth.Set(b.depth.Add(1))
		b.mu.RUnlock()
	case <-ctx.Done():
		b.mu.RUnlock()
		return ctx.Err()
	}
	return <-req.done
}

// Close stops admission and drains: it waits for the collector to exit and
// for every in-flight batch to complete. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	if !already {
		close(b.reqs)
	}
	b.mu.Unlock()
	<-b.idle
	b.flights.Wait()
}

// collect is the batching loop: one batch per engine checkout, flushed on
// its own goroutine so the next batch forms while this one runs. A request
// of the other operator kind met while draining becomes the head of the
// next batch.
func (b *Batcher) collect() {
	defer close(b.idle)
	var head *applyReq
	for {
		if head == nil {
			r, ok := <-b.reqs
			if !ok {
				return
			}
			head = r
		}
		// context.Background never expires, so Get cannot fail; the
		// request contexts bounded admission only.
		eng, _ := b.pool.Get(context.Background())
		var batch []*applyReq
		batch, head = b.drain(head)
		b.flights.Add(1)
		go b.flush(eng, batch)
	}
}

// drain starts a batch with first and appends whatever is already queued,
// without blocking, until the batch is full, the queue is empty or closed,
// or a request of the other kind turns up — thresholded applies use a
// different operator (Gwt), so a batch holds one kind only. It returns that
// request, if any, as the next batch's head.
func (b *Batcher) drain(first *applyReq) (batch []*applyReq, next *applyReq) {
	batch = make([]*applyReq, 1, b.maxBatch)
	batch[0] = first
	for len(batch) < b.maxBatch {
		select {
		case r, ok := <-b.reqs:
			if !ok {
				return batch, nil
			}
			if r.thresholded != first.thresholded {
				return batch, r
			}
			batch = append(batch, r)
		default:
			return batch, nil
		}
	}
	return batch, nil
}

// panelPool recycles the column-major pack/unpack buffers used by flush:
// steady-state batching reuses the same two panels per flight instead of
// allocating 2·n·k floats per batch.
var panelPool = sync.Pool{New: func() any { return new([]float64) }}

// getPanel checks a panel of at least size entries out of panelPool.
func getPanel(size int) *[]float64 {
	p := panelPool.Get().(*[]float64)
	if cap(*p) < size {
		*p = make([]float64, size)
	}
	*p = (*p)[:size]
	return p
}

// flush runs one batch on eng, which the collector checked out for it, and
// completes every request in it. A multi-request batch is packed into one
// column-major panel and handed straight to the engine's panel kernels —
// one sweep over the model structure computes every column; a lone request
// goes through the single-RHS path (the panel kernels reduce to it anyway
// at k == 1). Panics (engine misuse, impossible dimensions — all
// pre-validated, so this is a backstop) are converted to errors instead of
// killing the daemon, and the deferred Put returns the engine to the pool
// on every path.
func (b *Batcher) flush(eng *model.Engine, batch []*applyReq) {
	defer b.flights.Done()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v", ErrApplyPanic, r)
			}
		}()
		defer b.pool.Put(eng)
		b.mFlushes.Inc()
		b.mBatch.Observe(float64(len(batch)))
		now := time.Now()
		for _, r := range batch {
			b.mWait.Observe(now.Sub(r.enq).Seconds())
		}
		if len(batch) == 1 {
			r := batch[0]
			if r.thresholded {
				eng.ApplyThresholdedInto(r.dst, r.x)
			} else {
				eng.ApplyInto(r.dst, r.x)
			}
			return nil
		}
		n := b.pool.Model().N
		k := len(batch)
		xp, yp := getPanel(n*k), getPanel(n*k)
		defer panelPool.Put(xp)
		defer panelPool.Put(yp)
		for i, r := range batch {
			copy((*xp)[i*n:(i+1)*n], r.x)
		}
		if batch[0].thresholded {
			eng.ApplyPanelThresholdedInto(*yp, *xp, k, b.workers)
		} else {
			eng.ApplyPanelInto(*yp, *xp, k, b.workers)
		}
		for i, r := range batch {
			copy(r.dst, (*yp)[i*n:(i+1)*n])
		}
		return nil
	}()
	b.mDepth.Set(b.depth.Add(-int64(len(batch))))
	for _, r := range batch {
		r.done <- err
	}
}
