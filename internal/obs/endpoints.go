package obs

import (
	"net/http"
	"sync"
	"time"
)

// statusClasses spells the status-class label values, indexed by
// classIndex.
var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// classIndex maps an HTTP status to its statusClasses slot, clamping
// anything exotic into 2xx/5xx.
func classIndex(status int) int {
	i := status/100 - 2
	if i < 0 {
		i = 0
	}
	if i > 3 {
		i = 3
	}
	return i
}

// endpointMetrics is one endpoint's pre-resolved handles: a latency
// histogram plus one counter per status class.
type endpointMetrics struct {
	latency *Histogram
	classes [4]*Counter // index = classIndex(status)
}

// EndpointTelemetry is the per-endpoint HTTP telemetry both serving daemons
// put in front of their handlers: a request counter per endpoint and status
// class ({endpoint, code}) and a latency histogram per endpoint
// ({endpoint}), under metric family names the daemon chooses. A nil
// *Metrics leaves every handle nil, so instrumented handlers run the same
// code with telemetry off.
type EndpointTelemetry struct {
	ms                *Metrics
	requests, latency string // metric family names
	helpPrefix        string

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

// NewEndpointTelemetry returns the endpoint telemetry for ms (which may be
// nil) with the given request-counter and latency-histogram family names.
// helpPrefix is prepended to both families' help text ("gateway ", say).
func NewEndpointTelemetry(ms *Metrics, requests, latency, helpPrefix string) *EndpointTelemetry {
	return &EndpointTelemetry{ms: ms, requests: requests, latency: latency, helpPrefix: helpPrefix,
		endpoints: map[string]*endpointMetrics{}}
}

// endpoint returns (registering on first use) the handles for name, so
// wrapping the same endpoint twice reuses its series.
func (t *EndpointTelemetry) endpoint(name string) *endpointMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	if em, ok := t.endpoints[name]; ok {
		return em
	}
	em := &endpointMetrics{}
	if t.ms != nil {
		em.latency = t.ms.Histogram(t.latency, t.helpPrefix+"request latency by endpoint, handler entry to last byte", "endpoint", name)
		for i, class := range statusClasses {
			em.classes[i] = t.ms.Counter(t.requests, t.helpPrefix+"requests by endpoint and status class", "endpoint", name, "code", class)
		}
	}
	t.endpoints[name] = em
	return em
}

// statusWriter captures the status code a handler wrote (200 when the
// handler never calls WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Instrument wraps h with endpoint name's telemetry: its latency, handler
// entry to return, and one count in its status class — so a 400 dimension
// error and a recovered-panic 500 land in different series. The handles
// are resolved here, once, keeping the per-request path free of lookups
// and allocation beyond the statusWriter.
func (t *EndpointTelemetry) Instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := t.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		el := time.Since(start)
		// Class before latency: a concurrent Stats snapshot then never sees
		// more latency samples than counted requests (the invariant
		// ValidateRunReport checks).
		em.classes[classIndex(sw.status)].Inc()
		em.latency.Observe(el.Seconds())
	}
}

// Stats snapshots every instrumented endpoint for a run report: request
// counts by status class (only classes seen) and latency count, mean and
// p50/p95/p99. Nil without a metrics registry.
func (t *EndpointTelemetry) Stats() map[string]ServingEndpointStat {
	if t.ms == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]ServingEndpointStat, len(t.endpoints))
	for name, em := range t.endpoints {
		snap := em.latency.Snapshot()
		ep := ServingEndpointStat{
			Requests:          map[string]int64{},
			LatencyCount:      snap.Count,
			LatencyP50Seconds: snap.Quantile(0.50),
			LatencyP95Seconds: snap.Quantile(0.95),
			LatencyP99Seconds: snap.Quantile(0.99),
		}
		if snap.Count > 0 {
			ep.LatencyMeanSeconds = snap.Sum / float64(snap.Count)
		}
		for i, class := range statusClasses {
			if v := em.classes[i].Value(); v > 0 {
				ep.Requests[class] = v
			}
		}
		out[name] = ep
	}
	return out
}
