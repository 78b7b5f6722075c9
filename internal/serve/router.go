package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"subcouple/internal/serve/registry"
)

// Prometheus metric family names for the HTTP layer, exposed by GET
// /metrics. Exported so the CI scrape check, cmd/benchreport and tests
// grep/read the same spellings the server registers. (The pool, batcher and
// registry families live in internal/serve/registry.)
const (
	// Per-endpoint HTTP telemetry, labeled {endpoint, code} / {endpoint}.
	MetricHTTPRequests   = "subserve_http_requests_total"
	MetricLatencySeconds = "subserve_http_request_seconds"
)

// Handler returns the routed HTTP handler. /metrics is routed only when a
// metrics registry is configured; it stays scrapeable through the drain so
// the last requests of a shutting-down daemon are still observable. The
// /admin lifecycle surface is routed only with Options.Admin, and every
// admin handler additionally refuses non-loopback peers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.endpoints.Instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/readyz", s.endpoints.Instrument("readyz", s.handleReadyz))
	mux.HandleFunc("/models", s.endpoints.Instrument("models", s.handleModels))
	mux.HandleFunc("/apply", s.endpoints.Instrument("apply", s.handleApply))
	mux.HandleFunc("/column", s.endpoints.Instrument("column", s.handleColumn))
	mux.HandleFunc("/fingerprint", s.endpoints.Instrument("fingerprint", s.handleFingerprint))
	if s.opt.Metrics != nil {
		mux.HandleFunc("/metrics", s.endpoints.Instrument("metrics", s.handleMetrics))
	}
	if s.opt.Admin {
		mux.HandleFunc("POST /admin/models", s.adminOnly("admin_load", s.handleAdminLoad))
		mux.HandleFunc("POST /admin/swap", s.adminOnly("admin_swap", s.handleAdminSwap))
		mux.HandleFunc("DELETE /admin/models/{fp}", s.adminOnly("admin_unload", s.handleAdminUnload))
	}
	return mux
}

// reqCtx applies the per-request timeout.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opt.Timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.opt.Timeout)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}

// readyzResponse is the JSON /readyz body. QueueDepth and PoolInUse are
// reported on both 200 and 503 so a gateway can watch saturation approach
// the shed threshold, not just cross it.
type readyzResponse struct {
	Ready      bool   `json:"ready"`
	QueueDepth int    `json:"queueDepth"`
	PoolInUse  int    `json:"poolInUse"`
	Reason     string `json:"reason,omitempty"`
}

// handleReadyz reports readiness with live saturation: 503 while unready or
// draining as before, and — when Options.ShedThreshold > 0 — also while the
// total batcher queue depth exceeds the threshold. Shedding is advisory
// back-pressure for load balancers; admitted applies always complete, so
// readiness recovers as soon as the queue drains.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	resp := readyzResponse{
		Ready:      true,
		QueueDepth: snap.QueueDepth(),
		PoolInUse:  snap.PoolInUse(),
	}
	switch {
	case !s.ready.Load():
		resp.Ready, resp.Reason = false, "not ready"
	case s.draining.Load():
		resp.Ready, resp.Reason = false, "draining"
	case s.opt.ShedThreshold > 0 && resp.QueueDepth > s.opt.ShedThreshold:
		resp.Ready, resp.Reason = false,
			fmt.Sprintf("shedding: queue depth %d > threshold %d", resp.QueueDepth, s.opt.ShedThreshold)
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	WriteJSONStatus(w, status, resp)
}

// handleMetrics serves the live registry in Prometheus text exposition
// format. It is deliberately not gated on draining: the scrape must work
// until the listener closes so a terminating daemon's final counts are
// collectable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.opt.Metrics.WritePrometheus(w)
}

// modelInfo is one /models row.
type modelInfo struct {
	Name        string `json:"name"`
	Method      string `json:"method"`
	Contacts    int    `json:"contacts"`
	Solves      int    `json:"solves"`
	GwNNZ       int    `json:"gw_nnz"`
	GwtNNZ      int    `json:"gwt_nnz,omitempty"`
	Thresholded bool   `json:"thresholded"`
	PoolSize    int    `json:"pool_size"`
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	names := snap.Names()
	infos := make([]modelInfo, 0, len(names))
	for _, name := range names {
		act := snap.Lookup(name)
		m := act.Model()
		info := modelInfo{
			Name:        name,
			Method:      m.Method,
			Contacts:    m.N,
			Solves:      m.Solves,
			GwNNZ:       m.Gw.NNZ(),
			Thresholded: m.Gwt != nil,
			PoolSize:    act.Pool().Size(),
			Fingerprint: fmt.Sprintf("%016x", act.Fingerprint()),
		}
		if m.Gwt != nil {
			info.GwtNNZ = m.Gwt.NNZ()
		}
		infos = append(infos, info)
	}
	WriteJSON(w, infos)
}

// lookup resolves the model named in the request (query param or JSON
// field) against one registry snapshot. With exactly one alias loaded the
// name may be omitted.
func (s *Server) lookup(w http.ResponseWriter, snap *registry.Snapshot, name string) *registry.Active {
	if name == "" {
		if names := snap.Names(); len(names) == 1 {
			return snap.Lookup(names[0])
		}
		http.Error(w, fmt.Sprintf("model name required (loaded: %s)", strings.Join(snap.Names(), ", ")),
			http.StatusBadRequest)
		return nil
	}
	act := snap.Lookup(name)
	if act == nil {
		http.Error(w, fmt.Sprintf("unknown model %q (loaded: %s)", name, strings.Join(snap.Names(), ", ")),
			http.StatusNotFound)
		return nil
	}
	return act
}

// applyRequest is the JSON /apply body.
type applyRequest struct {
	Model       string    `json:"model,omitempty"`
	X           []float64 `json:"x"`
	Thresholded bool      `json:"thresholded,omitempty"`
}

// applyResponse is the JSON /apply and /column reply. encoding/json prints
// float64s in the shortest form that parses back to the identical bits, so
// a JSON response round-trips bitwise just like the raw codec.
type applyResponse struct {
	Model string    `json:"model"`
	N     int       `json:"n"`
	Y     []float64 `json:"y"`
}

// handleApply computes y = G·x. Two codecs share the endpoint, selected by
// Content-Type:
//
//   - application/json (default): body {"model":..., "x":[...], "thresholded":bool},
//     reply {"model":..., "n":..., "y":[...]}.
//   - application/octet-stream: body is exactly 8·N bytes of little-endian
//     float64; model and thresholded come from ?model= and ?thresholded=1;
//     the reply is 8·N bytes in the same encoding.
//
// x must have exactly the model's contact count; anything else is a 400
// naming both lengths, checked before the request can reach an engine.
//
// Non-finite values: the raw codec is a bit-exact pass-through — NaN and ±Inf
// entries of x are applied like any other float64 and the IEEE result, NaN
// and ±Inf included, comes back bit for bit. JSON cannot spell NaN or ±Inf,
// so when y has a non-finite entry (an overflowing x, say) the JSON codec
// answers 400 naming the first such index and pointing at the raw codec.
//
// The apply itself runs against the activation resolved from the current
// registry snapshot. If a hot swap displaces that activation between
// resolve and admit, the drained batcher answers ErrClosed — the handler
// then re-resolves a fresh snapshot and retries, so a request in flight
// across a swap is served (bitwise) by exactly one of the two versions,
// never refused and never blended.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	raw := strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream")

	var (
		name        string
		x           []float64
		thresholded bool
	)
	if raw {
		// The raw codec needs the model's contact count to size the body
		// read; the alias resolved here only scopes that read — the apply
		// below re-resolves against a fresh snapshot.
		act := s.lookup(w, s.reg.Snapshot(), r.URL.Query().Get("model"))
		if act == nil {
			return
		}
		name = act.Alias()
		thresholded = queryBool(r, "thresholded")
		var ok bool
		x, ok = readRawVector(w, r, act.Model().N)
		if !ok {
			return
		}
	} else {
		var req applyRequest
		if !ReadJSON(w, r, &req) {
			return
		}
		name = req.Model
		thresholded = req.Thresholded
		x = req.X
	}

	ctx, cancel := s.reqCtx(r)
	defer cancel()
	var (
		y     []float64
		alias string
		n     int
	)
	for {
		act := s.lookup(w, s.reg.Snapshot(), name)
		if act == nil {
			return
		}
		m := act.Model()
		if len(x) != m.N {
			http.Error(w, fmt.Sprintf("apply x has length %d, want %d (model %s)", len(x), m.N, act.Alias()),
				http.StatusBadRequest)
			return
		}
		if thresholded && m.Gwt == nil {
			http.Error(w, fmt.Sprintf("model %s has no thresholded representation", act.Alias()),
				http.StatusBadRequest)
			return
		}
		if len(y) != m.N {
			y = make([]float64, m.N)
		}
		err := act.Apply(ctx, y, x, thresholded)
		if err == nil {
			alias, n = act.Alias(), m.N
			break
		}
		if errors.Is(err, registry.ErrClosed) && !s.draining.Load() {
			// The activation was displaced by a hot swap after we resolved
			// it: the swap already published the replacement, so re-resolve
			// and retry against the new activation.
			continue
		}
		s.applyError(w, err)
		return
	}
	if raw {
		writeRawVector(w, y)
		return
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			http.Error(w, fmt.Sprintf("apply result y[%d] is %v, which JSON cannot represent (model %s); "+
				"use the raw codec (Content-Type: application/octet-stream) for non-finite results", i, v, alias),
				http.StatusBadRequest)
			return
		}
	}
	WriteJSON(w, applyResponse{Model: alias, N: n, Y: y})
}

// handleColumn serves one operator column: GET /column?model=&j=&thresholded=1
// (&format=raw for the binary codec). A column apply is small, so it goes
// straight through the pool rather than the batcher. A displaced
// activation's pool stays usable (only its batcher drains), so no retry
// loop is needed here.
func (s *Server) handleColumn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	act := s.lookup(w, s.reg.Snapshot(), r.URL.Query().Get("model"))
	if act == nil {
		return
	}
	m := act.Model()
	j, err := strconv.Atoi(r.URL.Query().Get("j"))
	if err != nil {
		http.Error(w, fmt.Sprintf("column index j=%q is not an integer", r.URL.Query().Get("j")),
			http.StatusBadRequest)
		return
	}
	if j < 0 || j >= m.N {
		http.Error(w, fmt.Sprintf("column %d out of range [0,%d) (model %s)", j, m.N, act.Alias()),
			http.StatusBadRequest)
		return
	}
	thresholded := queryBool(r, "thresholded")
	if thresholded && m.Gwt == nil {
		http.Error(w, fmt.Sprintf("model %s has no thresholded representation", act.Alias()),
			http.StatusBadRequest)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}

	ctx, cancel := s.reqCtx(r)
	defer cancel()
	pool := act.Pool()
	eng, err := pool.Get(ctx)
	if err != nil {
		s.applyError(w, err)
		return
	}
	y := make([]float64, m.N)
	// The deferred Put keeps a panicking engine from leaking out of the
	// pool (a leak would shrink the concurrency limit for the rest of the
	// daemon's life); the recover turns the panic into a 500 instead of a
	// dropped connection.
	if err := func() (err error) {
		defer pool.Put(eng)
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("column panic: %v", r)
			}
		}()
		if thresholded {
			eng.ColumnThresholdedInto(y, j)
		} else {
			eng.ColumnInto(y, j)
		}
		return nil
	}(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if r.URL.Query().Get("format") == "raw" {
		writeRawVector(w, y)
		return
	}
	WriteJSON(w, applyResponse{Model: act.Alias(), N: m.N, Y: y})
}

// handleFingerprint recomputes the deterministic probe-apply hash through a
// live pool engine, so the value reflects the serving path as it is right
// now (and must equal both the load-time /models value and what
// `subx -load` prints for the same artifact).
func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	act := s.lookup(w, s.reg.Snapshot(), r.URL.Query().Get("model"))
	if act == nil {
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	pool := act.Pool()
	eng, err := pool.Get(ctx)
	if err != nil {
		s.applyError(w, err)
		return
	}
	var fp uint64
	if err := func() (err error) {
		defer pool.Put(eng)
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("fingerprint panic: %v", r)
			}
		}()
		fp = eng.Fingerprint(s.opt.Workers)
		return nil
	}(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, map[string]string{"model": act.Alias(), "fingerprint": fmt.Sprintf("%016x", fp)})
}
