package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/serve/registry"
	"subcouple/internal/solver"
)

// testModel extracts the 256-contact alternating example once per method
// (with a thresholded Gwt, so both operators are exercised) against the
// synthetic dense solver.
func testModel(t testing.TB, method core.Method) *model.Model {
	t.Helper()
	if m := extracted[method]; m != nil {
		return m
	}
	raw := geom.AlternatingGrid(64, 64, 16, 16, 1, 3)
	layout, maxLevel := core.Prepare(raw, 4)
	g := experiments.SyntheticG(layout)
	res, err := core.Extract(solver.NewDense(g), layout, core.Options{
		Method: method, MaxLevel: maxLevel, ThresholdFactor: 6,
	})
	if err != nil {
		t.Fatalf("%v: %v", method, err)
	}
	extracted[method] = res.Model()
	return res.Model()
}

var extracted = map[core.Method]*model.Model{}

// saveArtifact writes m to a temp .scm file and returns its path.
func saveArtifact(t *testing.T, m *model.Model, name string) string {
	t.Helper()
	data, err := model.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func probeVec(n, shift int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*31+shift*7)%17) - 8
	}
	return x
}

// direct computes the reference y on a fresh, private engine.
func direct(m *model.Model, x []float64, thresholded bool) []float64 {
	y := make([]float64, m.N)
	e := model.NewEngine(m)
	if thresholded {
		e.ApplyThresholdedInto(y, x)
	} else {
		e.ApplyInto(y, x)
	}
	return y
}

func bitwiseEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v vs %v (not bitwise identical)", what, i, got[i], want[i])
		}
	}
}

// postJSON fires one JSON /apply and returns the decoded y.
func postJSON(t *testing.T, ts *httptest.Server, name string, x []float64, thresholded bool) []float64 {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"model": name, "x": x, "thresholded": thresholded})
	resp, err := http.Post(ts.URL+"/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/apply: %d: %s", resp.StatusCode, out)
	}
	var ar struct {
		Model string    `json:"model"`
		N     int       `json:"n"`
		Y     []float64 `json:"y"`
	}
	if err := json.Unmarshal(out, &ar); err != nil {
		t.Fatalf("/apply response: %v", err)
	}
	return ar.Y
}

// postRaw fires one raw float64-LE /apply and returns the decoded y.
func postRaw(t *testing.T, ts *httptest.Server, name string, x []float64, thresholded bool) []float64 {
	t.Helper()
	body := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(body[8*i:], math.Float64bits(v))
	}
	url := ts.URL + "/apply?model=" + name
	if thresholded {
		url += "&thresholded=1"
	}
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw /apply: %d: %s", resp.StatusCode, out)
	}
	if len(out) != 8*len(x) {
		t.Fatalf("raw /apply: %d response bytes, want %d", len(out), 8*len(x))
	}
	y := make([]float64, len(x))
	for i := range y {
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(out[8*i:]))
	}
	return y
}

// newTestServer loads m from an encoded artifact into a fresh Server and
// returns both plus the httptest frontend.
func newTestServer(t *testing.T, m *model.Model, opt serve.Options) (*serve.Server, *httptest.Server, string) {
	t.Helper()
	s := serve.New(opt)
	name, err := s.LoadFile(saveArtifact(t, m, "m.scm"))
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts, name
}

// TestEndToEndApply is the core serving guarantee: load artifact, serve
// /apply over HTTP with both codecs and both operators, and require every
// response bitwise-equal to a direct Engine.ApplyInto on the same model —
// for both sparsification methods.
func TestEndToEndApply(t *testing.T) {
	for _, method := range []core.Method{core.LowRank, core.Wavelet} {
		t.Run(method.String(), func(t *testing.T) {
			m := testModel(t, method)
			_, ts, name := newTestServer(t, m, serve.Options{PoolSize: 2})

			for shift := 0; shift < 4; shift++ {
				x := probeVec(m.N, shift)
				for _, thresholded := range []bool{false, true} {
					want := direct(m, x, thresholded)
					bitwiseEqual(t, "json", postJSON(t, ts, name, x, thresholded), want)
					bitwiseEqual(t, "raw", postRaw(t, ts, name, x, thresholded), want)
				}
			}
		})
	}
}

// TestColumnEndpoint checks /column against the direct engine column, JSON
// and raw, plain and thresholded.
func TestColumnEndpoint(t *testing.T) {
	m := testModel(t, core.LowRank)
	_, ts, name := newTestServer(t, m, serve.Options{PoolSize: 1})

	eng := model.NewEngine(m)
	want := make([]float64, m.N)
	for _, j := range []int{0, 7, m.N - 1} {
		eng.ColumnInto(want, j)
		resp, err := http.Get(fmt.Sprintf("%s/column?model=%s&j=%d", ts.URL, name, j))
		if err != nil {
			t.Fatal(err)
		}
		var ar struct {
			Y []float64 `json:"y"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		bitwiseEqual(t, fmt.Sprintf("column %d", j), ar.Y, want)

		eng.ColumnThresholdedInto(want, j)
		resp, err = http.Get(fmt.Sprintf("%s/column?model=%s&j=%d&thresholded=1&format=raw", ts.URL, name, j))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("raw column: %d: %s", resp.StatusCode, out)
		}
		got := make([]float64, m.N)
		for i := range got {
			got[i] = math.Float64frombits(binary.LittleEndian.Uint64(out[8*i:]))
		}
		bitwiseEqual(t, fmt.Sprintf("raw thresholded column %d", j), got, want)
	}
}

// queueBehindEngines checks every engine of model name's pool out, runs
// send (which starts the clients), and waits until the server has admitted
// n applies. Those applies stay queued behind the held engines — the
// backlog the batcher coalesces — until release puts the engines back.
// release is idempotent, so a test may also defer it.
func queueBehindEngines(t *testing.T, s *serve.Server, name string, n int, send func()) (release func()) {
	t.Helper()
	pool := s.Registry().Snapshot().Lookup(name).Pool()
	held := make([]*model.Engine, pool.Size())
	for i := range held {
		e, err := pool.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		held[i] = e
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			for _, e := range held {
				pool.Put(e)
			}
		})
	}
	send()
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() < n {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("queue depth %d never reached %d", s.QueueDepth(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return release
}

// batchSizes reads model name's live batch-size histogram: how many flushes
// ran and how many requests they carried in total. Every flush carries at
// least one request, so cols > flushes exactly when some flush coalesced.
func batchSizes(ms *obs.Metrics, name string) (flushes int64, cols float64) {
	snap := ms.HistogramBuckets(registry.MetricBatchSize, "", registry.BatchSizeBuckets, "model", name).Snapshot()
	return snap.Count, snap.Sum
}

// TestCoalescedBatchEqualsUnbatched pins the micro-batching contract: with
// concurrent requests queued behind busy engines so they fuse into one
// flush, every response still matches the single-RHS reference bitwise,
// and the metrics show the coalescing actually happened (fewer flushes
// than requests, not K batches of one).
func TestCoalescedBatchEqualsUnbatched(t *testing.T) {
	const clients = 8
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s := serve.New(serve.Options{
		PoolSize: 2, MaxBatch: clients, Workers: 2, Metrics: ms,
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
				results[c] = postJSON(t, ts, "m", probeVec(m.N, c), false)
			}(c)
		}
	})
	release()
	wg.Wait()
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("client %d", c), results[c], direct(m, probeVec(m.N, c), false))
	}

	flushes, cols := batchSizes(ms, "m")
	if cols != clients || flushes >= clients {
		t.Fatalf("%d flushes carried %.0f requests; coalescing never happened", flushes, cols)
	}
	if got := s.ServingStats().Endpoints["apply"].Requests["2xx"]; got != clients {
		t.Fatalf("counted %d apply requests, want %d", got, clients)
	}
}

// TestPoolStressRace hammers one model from 12 concurrent clients through a
// 2-engine pool with a small batch bound, mixing codecs and operators; every
// response must be bitwise-correct. Run with -race this is the pool/batcher
// data-race gate required by the issue (≥ 8 concurrent clients).
func TestPoolStressRace(t *testing.T) {
	const clients, iters = 12, 10
	m := testModel(t, core.LowRank)
	_, ts, name := newTestServer(t, m, serve.Options{
		PoolSize: 2, MaxBatch: 4, Workers: 2,
		Timeout: 30 * time.Second,
	})

	want := make([][][]float64, 2)
	for th := 0; th < 2; th++ {
		want[th] = make([][]float64, clients)
		for c := 0; c < clients; c++ {
			want[th][c] = direct(m, probeVec(m.N, c), th == 1)
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				x := probeVec(m.N, c)
				thresholded := (c+i)%3 == 0
				var got []float64
				if i%2 == 0 {
					got = postJSON(t, ts, name, x, thresholded)
				} else {
					got = postRaw(t, ts, name, x, thresholded)
				}
				th := 0
				if thresholded {
					th = 1
				}
				bitwiseEqual(t, fmt.Sprintf("client %d iter %d", c, i), got, want[th][c])
			}
		}(c)
	}
	wg.Wait()
}

// TestGracefulShutdownDrains proves the drain contract: requests admitted
// before Close complete successfully (Close waits for the queued backlog to
// flush rather than dropping it), and requests after Close are refused with
// 503.
func TestGracefulShutdownDrains(t *testing.T) {
	const clients = 6
	m := testModel(t, core.LowRank)
	s := serve.New(serve.Options{PoolSize: 2, MaxBatch: 64})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	results := make([][]float64, clients)
	// Every request is admitted and queued behind the held engines (the
	// request counter moves earlier, before admission); the drain begins
	// while they are still queued, and only then do the engines come back.
	release := queueBehindEngines(t, s, "m", clients, func() {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c] = postJSON(t, ts, "m", probeVec(m.N, c), false)
			}(c)
		}
	})
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	release()

	wg.Wait() // every admitted request must have completed with a 200
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after all requests completed")
	}
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("drained client %d", c), results[c], direct(m, probeVec(m.N, c), false))
	}

	// After the drain: not ready, applies refused as retryable.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close: %d, want 503", resp.StatusCode)
	}
	body, _ := json.Marshal(map[string]any{"x": probeVec(m.N, 0)})
	resp, err = http.Post(ts.URL+"/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/apply after Close: %d, want 503", resp.StatusCode)
	}
}

// TestFingerprintEndpoints requires /models, /fingerprint and a direct
// engine to agree on the probe-apply hash — the CI cross-check against
// `subx -load` rests on this.
func TestFingerprintEndpoints(t *testing.T) {
	m := testModel(t, core.Wavelet)
	s, ts, name := newTestServer(t, m, serve.Options{PoolSize: 2, Workers: 3})

	want := fmt.Sprintf("%016x", model.NewEngine(m).Fingerprint(1))
	if fp, ok := s.Fingerprint(name); !ok || fmt.Sprintf("%016x", fp) != want {
		t.Fatalf("registry fingerprint %016x, want %s", fp, want)
	}

	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0]["fingerprint"] != want {
		t.Fatalf("/models fingerprint %v, want %s", infos[0]["fingerprint"], want)
	}
	if infos[0]["name"] != name || int(infos[0]["contacts"].(float64)) != m.N {
		t.Fatalf("/models metadata wrong: %v", infos[0])
	}

	resp, err = http.Get(ts.URL + "/fingerprint?model=" + name)
	if err != nil {
		t.Fatal(err)
	}
	var fr map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fr["fingerprint"] != want {
		t.Fatalf("/fingerprint %s, want %s", fr["fingerprint"], want)
	}
}

// TestRequestValidation pins the strict-dimension and routing errors: every
// bad request is rejected up front with a status and message naming the
// problem, and never reaches an engine.
func TestRequestValidation(t *testing.T) {
	m := testModel(t, core.LowRank)
	_, ts, name := newTestServer(t, m, serve.Options{PoolSize: 1})

	do := func(method, url, contentType string, body []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	jsonBody := func(v any) []byte {
		b, _ := json.Marshal(v)
		return b
	}

	short := probeVec(m.N-1, 0)
	cases := []struct {
		name        string
		method, url string
		contentType string
		body        []byte
		wantStatus  int
		wantSubstr  string
	}{
		{"short x", "POST", "/apply", "application/json",
			jsonBody(map[string]any{"model": name, "x": short}), 400, fmt.Sprintf("length %d, want %d", m.N-1, m.N)},
		{"empty x", "POST", "/apply", "application/json",
			jsonBody(map[string]any{"model": name, "x": []float64{}}), 400, "length 0"},
		{"unknown model", "POST", "/apply", "application/json",
			jsonBody(map[string]any{"model": "nope", "x": probeVec(m.N, 0)}), 404, "unknown model"},
		{"unknown field", "POST", "/apply", "application/json",
			jsonBody(map[string]any{"model": name, "x": probeVec(m.N, 0), "zz": 1}), 400, "bad JSON"},
		{"raw short body", "POST", "/apply?model=" + name, "application/octet-stream",
			make([]byte, 8*m.N-8), 400, fmt.Sprintf("want exactly %d", 8*m.N)},
		{"raw long body", "POST", "/apply?model=" + name, "application/octet-stream",
			make([]byte, 8*m.N+8), 400, "bytes"},
		{"apply GET", "GET", "/apply", "", nil, 405, "POST"},
		{"column POST", "POST", "/column", "", nil, 405, "GET"},
		{"column bad j", "GET", "/column?model=" + name + "&j=zz", "", nil, 400, "not an integer"},
		{"column j out of range", "GET", fmt.Sprintf("/column?model=%s&j=%d", name, m.N), "", nil, 400, "out of range"},
		{"column negative j", "GET", "/column?model=" + name + "&j=-1", "", nil, 400, "out of range"},
		{"column unknown model", "GET", "/column?model=zz&j=0", "", nil, 404, "unknown model"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(tc.method, tc.url, tc.contentType, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", status, tc.wantStatus, body)
			}
			if !strings.Contains(body, tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", body, tc.wantSubstr)
			}
		})
	}

	// Health endpoints.
	if status, _ := do("GET", "/healthz", "", nil); status != 200 {
		t.Fatalf("/healthz: %d", status)
	}
	if status, _ := do("GET", "/readyz", "", nil); status != 200 {
		t.Fatalf("/readyz: %d", status)
	}
}

// TestPoolCheckout covers the pool primitive: capacity enforcement, ctx
// cancellation while exhausted, and the double-Put guard.
func TestPoolCheckout(t *testing.T) {
	m := testModel(t, core.LowRank)
	p := registry.NewPool(m, 2)
	if p.Size() != 2 {
		t.Fatalf("pool size %d, want 2", p.Size())
	}
	ctx := context.Background()
	a, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := p.Get(short); err == nil {
		t.Fatal("Get on an exhausted pool returned without waiting for a Put")
	}
	p.Put(a)
	c, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(b)
	p.Put(c)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("extra Put did not panic")
			}
		}()
		p.Put(a)
	}()
}

// TestBatcherRejectsBadDimensions: the batcher's own guard (defense in depth
// behind the HTTP validation) returns errors, never panics, and never
// poisons a batch.
func TestBatcherRejectsBadDimensions(t *testing.T) {
	m := testModel(t, core.LowRank)
	p := registry.NewPool(m, 1)
	b := registry.NewBatcher(p, 4, 1)
	defer b.Close()

	ctx := context.Background()
	if err := b.Apply(ctx, make([]float64, m.N), make([]float64, m.N-1), false); err == nil {
		t.Fatal("short x accepted")
	}
	if err := b.Apply(ctx, make([]float64, 1), make([]float64, m.N), false); err == nil {
		t.Fatal("short dst accepted")
	}
	// A good request still works after the rejections.
	y := make([]float64, m.N)
	if err := b.Apply(ctx, y, probeVec(m.N, 1), false); err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "after rejects", y, direct(m, probeVec(m.N, 1), false))
}
