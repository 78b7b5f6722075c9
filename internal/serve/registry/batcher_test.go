package registry_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve/registry"
)

// holdEngines checks every engine out of p, so whatever the batcher admits
// next piles up in its queue. The returned func puts them back.
func holdEngines(t *testing.T, p *registry.Pool) (release func()) {
	t.Helper()
	held := make([]*model.Engine, p.Size())
	for i := range held {
		e, err := p.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held[i] = e
	}
	return func() {
		for _, e := range held {
			p.Put(e)
		}
	}
}

// waitDepth blocks until b has admitted n requests.
func waitDepth(t *testing.T, b *registry.Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.QueueDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", b.QueueDepth(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// newMeteredBatcher builds a pool of size engines and a batcher over it
// that records into a private metrics registry.
func newMeteredBatcher(m *model.Model, size, maxBatch int) (*registry.Batcher, *registry.Pool, *obs.Metrics) {
	ms := obs.NewMetrics()
	p := registry.NewPool(m, size)
	b := registry.NewBatcher(p, maxBatch, 2)
	b.SetMetrics(ms, "m")
	return b, p, ms
}

// flushSizes snapshots the batch-size histogram: Count is the number of
// flushes, Sum the requests they carried, Counts the per-size buckets
// (registry.BatchSizeBuckets: 1, 2, 4, …).
func flushSizes(ms *obs.Metrics) obs.HistogramSnapshot {
	return ms.HistogramBuckets(registry.MetricBatchSize, "", registry.BatchSizeBuckets, "model", "m").Snapshot()
}

// applyAsync starts one Apply of probe shift and returns its result slot and
// error channel.
func applyAsync(b *registry.Batcher, m *model.Model, shift int, thresholded bool) ([]float64, <-chan error) {
	y := make([]float64, m.N)
	errc := make(chan error, 1)
	go func() { errc <- b.Apply(context.Background(), y, probeVec(m.N, shift), thresholded) }()
	return y, errc
}

// TestBatcherIdleFlushesAtOnce: on a free pool nothing waits for company —
// sequential applies each flush as a batch of one.
func TestBatcherIdleFlushesAtOnce(t *testing.T) {
	const applies = 5
	m := testModel(t, core.LowRank)
	b, _, ms := newMeteredBatcher(m, 2, 8)
	defer b.Close()

	y := make([]float64, m.N)
	for i := 0; i < applies; i++ {
		if err := b.Apply(context.Background(), y, probeVec(m.N, i), false); err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(y, direct(m, probeVec(m.N, i), false)) {
			t.Fatalf("apply %d differs from Engine.ApplyInto", i)
		}
	}
	if s := flushSizes(ms); s.Count != applies || s.Sum != applies || s.Counts[0] != applies {
		t.Fatalf("%d flushes carried %.0f requests (size-1 flushes %d), want %d batches of one",
			s.Count, s.Sum, s.Counts[0], applies)
	}
}

// TestBacklogFlushesFullPanels: 2·maxBatch+1 requests queued behind held
// engines flush as exactly three panels (maxBatch, maxBatch, 1), and every
// result is bitwise equal to Engine.ApplyInto.
func TestBacklogFlushesFullPanels(t *testing.T) {
	const maxBatch = 4
	const clients = 2*maxBatch + 1
	m := testModel(t, core.LowRank)
	b, p, ms := newMeteredBatcher(m, 2, maxBatch)
	defer b.Close()

	release := holdEngines(t, p)
	ys := make([][]float64, clients)
	errs := make([]<-chan error, clients)
	for c := range ys {
		ys[c], errs[c] = applyAsync(b, m, c, false)
	}
	waitDepth(t, b, clients)
	release()

	for c := range ys {
		if err := <-errs[c]; err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		if !bitwiseEqual(ys[c], direct(m, probeVec(m.N, c), false)) {
			t.Fatalf("client %d differs from Engine.ApplyInto", c)
		}
	}
	s := flushSizes(ms)
	if s.Count != 3 || s.Sum != clients || s.Counts[0] != 1 || s.Counts[2] != 2 {
		t.Fatalf("backlog of %d flushed as %d batches (buckets %v), want two panels of %d and one single",
			clients, s.Count, s.Counts, maxBatch)
	}
}

// TestMixedBacklogOnePanelPerKind: a backlog queued as k unthresholded then
// k thresholded requests flushes as one panel per kind — the first request
// of the other kind heads the next batch instead of flushing on its own.
func TestMixedBacklogOnePanelPerKind(t *testing.T) {
	const k = 4
	m := testModel(t, core.LowRank)
	b, p, ms := newMeteredBatcher(m, 1, 2*k)
	defer b.Close()

	release := holdEngines(t, p)
	ys := make([][]float64, 2*k)
	errs := make([]<-chan error, 2*k)
	for c := range ys {
		// One admission at a time fixes the queue order.
		ys[c], errs[c] = applyAsync(b, m, c, c >= k)
		waitDepth(t, b, c+1)
	}
	release()

	for c := range ys {
		if err := <-errs[c]; err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		if !bitwiseEqual(ys[c], direct(m, probeVec(m.N, c), c >= k)) {
			t.Fatalf("client %d (thresholded=%v) differs from the single-RHS reference", c, c >= k)
		}
	}
	s := flushSizes(ms)
	if s.Count != 2 || s.Sum != 2*k || s.Counts[0] != 0 || s.Counts[2] != 2 {
		t.Fatalf("mixed backlog flushed as %d batches (buckets %v), want one panel of %d per kind",
			s.Count, s.Counts, k)
	}
}

// TestCloseDrainsBacklog: Close with a backlog queued behind held engines
// waits for the engines, then completes every admitted request; later
// applies are refused with ErrClosed.
func TestCloseDrainsBacklog(t *testing.T) {
	const maxBatch = 4
	const clients = 2*maxBatch + 1
	m := testModel(t, core.LowRank)
	b, p, _ := newMeteredBatcher(m, 2, maxBatch)

	release := holdEngines(t, p)
	ys := make([][]float64, clients)
	errs := make([]<-chan error, clients)
	for c := range ys {
		ys[c], errs[c] = applyAsync(b, m, c, c%2 == 1)
	}
	waitDepth(t, b, clients)

	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while admitted requests were still queued")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after the engines came back")
	}

	for c := range ys {
		if err := <-errs[c]; err != nil {
			t.Fatalf("drained client %d: %v", c, err)
		}
		if !bitwiseEqual(ys[c], direct(m, probeVec(m.N, c), c%2 == 1)) {
			t.Fatalf("drained client %d differs from the single-RHS reference", c)
		}
	}
	if d := b.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after the drain, want 0", d)
	}
	if p.InUse() != 0 {
		t.Fatalf("%d engines still checked out after the drain", p.InUse())
	}
	err := b.Apply(context.Background(), make([]float64, m.N), probeVec(m.N, 0), false)
	if !errors.Is(err, registry.ErrClosed) {
		t.Fatalf("apply after Close: %v, want ErrClosed", err)
	}
}
