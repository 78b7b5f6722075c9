package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/serve/registry"
)

// privateModel returns a deep copy of the cached test model, safe to corrupt
// in place without poisoning other tests.
func privateModel(t *testing.T, method core.Method) *model.Model {
	t.Helper()
	data, err := model.Encode(testModel(t, method))
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFlushPanicRecovery pins the batcher's panic backstop: a request that
// makes the engine panic mid-flush (simulated here by corrupting the shared
// model's structure) must come back as an error — not kill the daemon, not
// strand the checked-out engine. With a one-engine pool, the follow-up apply
// both proves the engine returned to the pool and that it still computes
// bitwise-correct results.
func TestFlushPanicRecovery(t *testing.T) {
	m := privateModel(t, core.LowRank)
	p := registry.NewPool(m, 1)
	b := registry.NewBatcher(p, 4, 1)
	defer b.Close()

	saved := m.Gw.ColIdx[0]
	m.Gw.ColIdx[0] = -1 // poison: the next apply indexes out of range

	// Hold the only engine while the two requests below queue, so they
	// fuse into one flush and exercise the panel path, not just k == 1.
	ctx := context.Background()
	eng, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Apply(ctx, make([]float64, m.N), probeVec(m.N, i), false)
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); b.QueueDepth() < len(errs) && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	p.Put(eng)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "apply panic") {
			t.Fatalf("poisoned request %d: err = %v, want an apply-panic error", i, err)
		}
	}

	m.Gw.ColIdx[0] = saved
	y := make([]float64, m.N)
	if err := b.Apply(ctx, y, probeVec(m.N, 3), false); err != nil {
		t.Fatalf("apply after recovered panic: %v (engine leaked from the pool?)", err)
	}
	bitwiseEqual(t, "apply after recovered panic", y, direct(m, probeVec(m.N, 3), false))
}

// TestColumnAndFingerprintPanicRecovery pins the handler-side hardening: a
// panic inside /column or /fingerprint answers 500 and returns the engine to
// the pool. The pool has one engine, so the successful requests after the
// restore are only possible if neither panic leaked it.
func TestColumnAndFingerprintPanicRecovery(t *testing.T) {
	m := testModel(t, core.LowRank)
	s, ts, name := newTestServer(t, m, serve.Options{PoolSize: 1, Timeout: 10 * time.Second})

	// newTestServer serves a private decode of the artifact; corrupt that.
	served := s.Model(name)
	saved := served.Gw.ColIdx[0]
	served.Gw.ColIdx[0] = -1

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if status, body := get("/column?model=" + name + "&j=3"); status != http.StatusInternalServerError ||
		!strings.Contains(body, "panic") {
		t.Fatalf("/column on corrupted model: %d %q, want 500 naming the panic", status, body)
	}
	if status, body := get("/fingerprint?model=" + name); status != http.StatusInternalServerError ||
		!strings.Contains(body, "panic") {
		t.Fatalf("/fingerprint on corrupted model: %d %q, want 500 naming the panic", status, body)
	}

	served.Gw.ColIdx[0] = saved
	status, body := get("/column?model=" + name + "&j=3")
	if status != http.StatusOK {
		t.Fatalf("/column after restore: %d %q (engine leaked from the pool?)", status, body)
	}
	var ar struct {
		Y []float64 `json:"y"`
	}
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, served.N)
	model.NewEngine(served).ColumnInto(want, 3)
	bitwiseEqual(t, "column after recovered panic", ar.Y, want)
	if status, _ := get("/fingerprint?model=" + name); status != http.StatusOK {
		t.Fatalf("/fingerprint after restore: %d", status)
	}
}

// TestThresholdedCoalescing pins that thresholded batches now flush through
// the panel kernels bitwise-identically: concurrent Gwt requests queued
// behind a busy engine fuse (the batch-size histogram proves it) and every
// response equals the single-RHS reference.
func TestThresholdedCoalescing(t *testing.T) {
	const clients = 6
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s := serve.New(serve.Options{
		PoolSize: 1, MaxBatch: clients, Workers: 2, Metrics: ms,
	})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var wg sync.WaitGroup
	results := make([][]float64, clients)
	release := queueBehindEngines(t, s, "m", clients, func() {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c] = postJSON(t, ts, "m", probeVec(m.N, c), true)
			}(c)
		}
	})
	release()
	wg.Wait()
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("thresholded client %d", c), results[c], direct(m, probeVec(m.N, c), true))
	}
	if flushes, cols := batchSizes(ms, "m"); cols != clients || flushes >= clients {
		t.Fatalf("thresholded requests never coalesced (%d flushes carried %.0f requests)", flushes, cols)
	}
}

// TestColumnTelemetryOverHTTP pins the serving-path column telemetry end to
// end: one /column request lands in the engine's column kernel histogram
// and in the column endpoint's 2xx count and latency.
func TestColumnTelemetryOverHTTP(t *testing.T) {
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s, ts, name := newTestServer(t, m, serve.Options{PoolSize: 1, Metrics: ms})

	resp, err := http.Get(ts.URL + "/column?model=" + name + "&j=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/column: %d", resp.StatusCode)
	}
	if got := ms.Histogram(model.MetricApplySeconds, "", "kind", "column").Count(); got != 1 {
		t.Fatalf("column kernel samples = %d, want 1", got)
	}
	col := s.ServingStats().Endpoints["column"]
	if col.Requests["2xx"] != 1 || col.LatencyCount != 1 {
		t.Fatalf("column endpoint telemetry = %+v, want one 2xx request", col)
	}
}

// TestApplyNonFiniteResult is the regression test for a JSON /apply that
// answered 200 with an empty body: an x whose apply overflows to ±Inf made
// the JSON encoder fail after the 200 was already committed. The JSON codec
// now answers 400 naming the first non-finite index and the raw codec,
// while the raw codec passes the IEEE result through bit for bit.
func TestApplyNonFiniteResult(t *testing.T) {
	m := testModel(t, core.LowRank)
	_, ts, name := newTestServer(t, m, serve.Options{PoolSize: 1})
	x := make([]float64, m.N)
	for i := range x {
		x[i] = 1.7e308
	}

	body, _ := json.Marshal(map[string]any{"model": name, "x": x})
	resp, err := http.Post(ts.URL+"/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "y[") ||
		!strings.Contains(string(msg), "raw codec") {
		t.Fatalf("overflowing JSON /apply: status %d, body %q; want 400 naming y[i] and the raw codec",
			resp.StatusCode, msg)
	}

	// The raw codec is a bit-exact pass-through, NaN input included.
	x[1] = math.NaN()
	resp, err = http.Post(ts.URL+"/apply?model="+name, "application/octet-stream",
		bytes.NewReader(serve.EncodeRawVector(x)))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := serve.EncodeRawVector(direct(m, x, false)); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("non-finite raw /apply: status %d, %d bytes; want 200 with the engine's %d bytes bit for bit",
			resp.StatusCode, len(got), len(want))
	}

	// WriteJSON never commits a status it cannot back with a body.
	rec := httptest.NewRecorder()
	serve.WriteJSON(rec, map[string]float64{"y": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encode") {
		t.Fatalf("WriteJSON(+Inf): status %d, body %q; want 500 with the encoder error", rec.Code, rec.Body.String())
	}
}
