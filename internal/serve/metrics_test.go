package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/serve/registry"
)

// scrape GETs /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// getReadyz GETs /readyz and decodes the JSON body.
func getReadyz(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("/readyz body is not JSON: %v", err)
	}
	return resp.StatusCode, body
}

// TestMetricsDoNotChangeOutputs extends the observability-neutrality
// invariant to the serve path: the same request stream against a metrics-on
// and a metrics-off server must produce bitwise-identical responses.
func TestMetricsDoNotChangeOutputs(t *testing.T) {
	const clients = 6
	m := testModel(t, core.LowRank)
	run := func(ms *obs.Metrics) [][]float64 {
		s := serve.New(serve.Options{
			PoolSize: 2, MaxBatch: 4, Workers: 2, Metrics: ms,
		})
		if err := s.AddModel("m", m); err != nil {
			t.Fatal(err)
		}
		s.SetReady(true)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()
		results := make([][]float64, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if c%2 == 0 {
					results[c] = postJSON(t, ts, "m", probeVec(m.N, c), false)
				} else {
					results[c] = postRaw(t, ts, "m", probeVec(m.N, c), c%3 == 0)
				}
			}(c)
		}
		wg.Wait()
		return results
	}

	on := run(obs.NewMetrics())
	off := run(nil)
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("metrics-on vs off client %d", c), on[c], off[c])
		bitwiseEqual(t, fmt.Sprintf("metrics-on vs direct client %d", c),
			on[c], direct(m, probeVec(m.N, c), c%2 == 1 && c%3 == 0))
	}
}

// TestStatusClassCounters pins the per-status-class request counters: a 2xx
// apply, a 400 dimension error and a recovered-panic 500 land in three
// different per-endpoint series, both on the scrape and in the serving
// block (and the panic answers 500, not 400).
func TestStatusClassCounters(t *testing.T) {
	m := privateModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s := serve.New(serve.Options{PoolSize: 1, Metrics: ms, Timeout: 10 * time.Second})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	post := func(x []float64) (int, string) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"model": "m", "x": x})
		resp, err := http.Post(ts.URL+"/apply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	if status, body := post(probeVec(m.N, 0)); status != http.StatusOK {
		t.Fatalf("good apply: %d %s", status, body)
	}
	if status, body := post(probeVec(m.N-1, 0)); status != http.StatusBadRequest {
		t.Fatalf("short apply: %d %s, want 400", status, body)
	}
	// Poison the served model so the flush panics; the backstop must map
	// the recovered panic to a 500 — a server fault — not a 400.
	saved := m.Gw.ColIdx[0]
	m.Gw.ColIdx[0] = -1
	status, body := post(probeVec(m.N, 1))
	m.Gw.ColIdx[0] = saved
	if status != http.StatusInternalServerError || !strings.Contains(body, "apply panic") {
		t.Fatalf("poisoned apply: %d %q, want 500 naming the panic", status, body)
	}

	out := scrape(t, ts)
	for _, class := range []string{"2xx", "4xx", "5xx"} {
		if want := serve.MetricHTTPRequests + `{code="` + class + `",endpoint="apply"} 1`; !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	stats := s.ServingStats()
	if stats == nil {
		t.Fatal("ServingStats nil with a registry attached")
	}
	apply := stats.Endpoints["apply"]
	for class, want := range map[string]int64{"2xx": 1, "4xx": 1, "5xx": 1} {
		if apply.Requests[class] != want {
			t.Errorf("registry apply/%s = %d, want %d", class, apply.Requests[class], want)
		}
	}
	if apply.LatencyCount != 3 {
		t.Errorf("apply latency count %d, want 3", apply.LatencyCount)
	}
}

// TestMetricsExposition drives real traffic through every instrumented layer
// and requires the scrape to carry the key families: per-endpoint request
// counters and latency histograms, batcher queue depth / batch size /
// window wait, pool gauges, and engine kernel durations by kind.
func TestMetricsExposition(t *testing.T) {
	const clients = 4
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
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			postJSON(t, ts, "m", probeVec(m.N, c), false)
		}(c)
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/column?model=m&j=0")
	if err != nil {
		t.Fatal(err)
	}
	// Read to EOF: a body larger than the server's write buffer streams
	// before the handler returns, and the endpoint's counters are recorded
	// only after it has returned, just before the final chunk goes out.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	out := scrape(t, ts)
	for _, want := range []string{
		"# TYPE " + serve.MetricHTTPRequests + " counter",
		serve.MetricHTTPRequests + `{code="2xx",endpoint="apply"} ` + fmt.Sprint(clients),
		serve.MetricHTTPRequests + `{code="2xx",endpoint="column"} 1`,
		"# TYPE " + serve.MetricLatencySeconds + " histogram",
		serve.MetricLatencySeconds + `_count{endpoint="apply"} ` + fmt.Sprint(clients),
		registry.MetricQueueDepth + `{model="m"} 0`,
		registry.MetricBatchSize + `_count{model="m"}`,
		registry.MetricWindowWaitSeconds + `_count{model="m"}`,
		registry.MetricBatchFlushes + `{model="m"}`,
		registry.MetricPoolInUse + `{model="m"} 0`,
		"# TYPE " + registry.MetricPoolWaitSeconds + " histogram",
		registry.MetricPoolTimeouts + `{model="m"} 0`,
		`subcouple_engine_apply_seconds_count{kind="column"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", out)
	}
	// The engine served the batch through either the single or the panel
	// kernels depending on how requests coalesced; one of the two kinds
	// must have samples.
	if !strings.Contains(out, `{kind="single"}`) && !strings.Contains(out, `{kind="panel"}`) {
		t.Error("scrape has no engine apply-duration series for the serving path")
	}
	// The scrape itself is instrumented like any endpoint.
	if !strings.Contains(scrape(t, ts), serve.MetricHTTPRequests+`{code="2xx",endpoint="metrics"}`) {
		t.Error("scrape of /metrics is not counted under its own endpoint")
	}
}

// TestReadyzShedAndRecover pins the queue-depth-aware readiness contract:
// with -shedthreshold semantics enabled, /readyz flips to 503 (with a JSON
// body naming the reason and depth) while admitted-but-unflushed applies
// exceed the threshold, and recovers to 200 once the batch flushes — without
// any request ever failing.
func TestReadyzShedAndRecover(t *testing.T) {
	const clients = 3
	m := testModel(t, core.LowRank)
	s := serve.New(serve.Options{
		// MaxBatch > clients keeps the queued requests in one batch.
		PoolSize: 1, MaxBatch: 8,
		Metrics: obs.NewMetrics(), ShedThreshold: 1,
	})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if status, body := getReadyz(t, ts); status != http.StatusOK || body["ready"] != true {
		t.Fatalf("idle /readyz: %d %v, want 200 ready", status, body)
	}

	var wg sync.WaitGroup
	results := make([][]float64, clients)
	// Every request is admitted and queued behind the held engine, so the
	// depth (3) exceeds the threshold (1) and readiness must shed.
	release := queueBehindEngines(t, s, "m", clients, func() {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c] = postJSON(t, ts, "m", probeVec(m.N, c), false)
			}(c)
		}
	})
	defer release()
	if s.QueueDepth() < clients {
		t.Fatalf("queue depth %d never reached %d", s.QueueDepth(), clients)
	}
	status, body := getReadyz(t, ts)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated /readyz: %d %v, want 503", status, body)
	}
	if body["ready"] != false || !strings.Contains(fmt.Sprint(body["reason"]), "shedding") {
		t.Fatalf("saturated /readyz body %v, want ready=false with a shedding reason", body)
	}
	if depth, ok := body["queueDepth"].(float64); !ok || depth < float64(clients) {
		t.Fatalf("saturated /readyz queueDepth %v, want >= %d", body["queueDepth"], clients)
	}

	// Shedding never refuses work: every admitted request completes
	// correctly once the engine is back, after which readiness recovers on
	// its own.
	release()
	wg.Wait()
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("shed client %d", c), results[c], direct(m, probeVec(m.N, c), false))
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if st, _ := getReadyz(t, ts); st == http.StatusOK {
			break
		}
		time.Sleep(time.Millisecond)
	}
	status, body = getReadyz(t, ts)
	if status != http.StatusOK || body["ready"] != true {
		t.Fatalf("drained /readyz: %d %v, want recovery to 200", status, body)
	}
}

// TestMetricsDuringDrain extends the graceful-drain contract to telemetry:
// admitted-but-unflushed requests are visible in the queue-depth gauge,
// /metrics stays scrapeable while the drain runs, and the final counts
// survive into a ValidateRunReport-clean serving block after the drain.
func TestMetricsDuringDrain(t *testing.T) {
	const clients = 4
	m := testModel(t, core.LowRank)
	ms := obs.NewMetrics()
	s := serve.New(serve.Options{
		PoolSize: 2, MaxBatch: 64, Metrics: ms,
	})
	if err := s.AddModel("m", m); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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
	defer release()
	// Admitted but unflushed: the gauge must already count them.
	if !strings.Contains(scrape(t, ts), registry.MetricQueueDepth+`{model="m"} `+fmt.Sprint(clients)) {
		t.Fatalf("queue-depth gauge does not count admitted-but-unflushed requests")
	}

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	// The drain is running (Close waits for the queued backlog, which
	// flushes once the engines come back); /metrics must keep answering
	// the whole time.
	for i := 0; i < 3; i++ {
		scrape(t, ts)
	}
	release()
drain:
	for {
		select {
		case <-done:
			break drain
		default:
			scrape(t, ts)
		}
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		bitwiseEqual(t, fmt.Sprintf("drained client %d", c), results[c], direct(m, probeVec(m.N, c), false))
	}

	// After the drain: gauges back to zero, every admitted apply counted,
	// and the serving block passes the report validator inside a full
	// subserve-shaped report.
	out := scrape(t, ts)
	if !strings.Contains(out, registry.MetricQueueDepth+`{model="m"} 0`) {
		t.Error("queue depth not back to 0 after the drain")
	}
	if !strings.Contains(out, serve.MetricHTTPRequests+`{code="2xx",endpoint="apply"} `+fmt.Sprint(clients)) {
		t.Error("drained applies missing from the request counter")
	}
	stats := s.ServingStats()
	if stats.QueueDepth != 0 || stats.PoolInUse != 0 {
		t.Errorf("post-drain gauges: depth %d, in use %d, want 0/0", stats.QueueDepth, stats.PoolInUse)
	}
	if got := stats.Endpoints["apply"].Requests["2xx"]; got != clients {
		t.Errorf("serving block apply/2xx = %d, want %d", got, clients)
	}
	rep := obs.NewServingReport("subserve", map[string]any{})
	rep.Serving = stats
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateRunReport(data, false); err != nil {
		t.Fatalf("post-drain serving report invalid: %v", err)
	}
}
