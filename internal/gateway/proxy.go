package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"subcouple/internal/serve"
)

// Handler routes the gateway's surface: proxied /apply and /column, the
// aggregated /models, /healthz, fleet-level /readyz, and /metrics when a
// registry is configured.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", g.endpoints.Instrument("healthz", g.handleHealthz))
	mux.HandleFunc("/readyz", g.endpoints.Instrument("readyz", g.handleReadyz))
	mux.HandleFunc("/models", g.endpoints.Instrument("models", g.handleModels))
	mux.HandleFunc("/apply", g.endpoints.Instrument("apply", g.handleApply))
	mux.HandleFunc("/column", g.endpoints.Instrument("column", g.handleColumn))
	if g.opt.Metrics != nil {
		mux.HandleFunc("/metrics", g.endpoints.Instrument("metrics", func(w http.ResponseWriter, r *http.Request) {
			g.opt.Metrics.WritePrometheus(w)
		}))
	}
	return mux
}

// handleHealthz is liveness only: the process is up and serving HTTP.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz aggregates fleet readiness: 200 only when the gateway is not
// draining and every configured alias has at least one ready replica —
// anything less and a load balancer should prefer another gateway.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type aliasReady struct {
		Ready    int `json:"ready"`
		Replicas int `json:"replicas"`
	}
	body := struct {
		Ready    bool                  `json:"ready"`
		Draining bool                  `json:"draining,omitempty"`
		Reason   string                `json:"reason,omitempty"`
		Aliases  map[string]aliasReady `json:"aliases"`
	}{Ready: true, Aliases: map[string]aliasReady{}}

	table := g.table.Load()
	for _, alias := range g.names {
		ar := aliasReady{Replicas: len(g.all[alias])}
		for _, rep := range table.ready[alias] {
			if rep.ready.Load() {
				ar.Ready++
			}
		}
		body.Aliases[alias] = ar
		if ar.Ready == 0 && body.Reason == "" {
			body.Ready = false
			body.Reason = "no ready replica for " + alias
		}
	}
	if g.draining.Load() {
		body.Ready = false
		body.Draining = true
		body.Reason = "draining"
	}
	status := http.StatusOK
	if !body.Ready {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSONStatus(w, status, body)
}

// handleModels serves the aggregated fleet view from the prober's cache.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, g.modelsRows())
}

// handleApply proxies an apply in either codec. The request body is read in
// full up front — that is what makes failover safe: the gateway can replay
// the identical bytes against another replica, and an apply is a pure
// matrix-vector product, so replaying one is side-effect free. The alias
// comes from ?model= (both codecs), from the JSON body's "model" field, or
// defaults when exactly one alias is configured.
func (g *Gateway) handleApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if g.draining.Load() {
		http.Error(w, "gateway draining", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.opt.maxBodyBytes()))
	if err != nil {
		http.Error(w, fmt.Sprintf("request body: %v", err), http.StatusBadRequest)
		return
	}
	alias := r.URL.Query().Get("model")
	if alias == "" && !strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		// JSON codec: peek at the body's "model" field for routing, but
		// forward the original bytes untouched. Lenient decode on purpose —
		// if the body is malformed the backend's strict parser owns the 400,
		// so gateway and daemon agree on every error message.
		var peek struct {
			Model string `json:"model"`
		}
		_ = json.Unmarshal(body, &peek)
		alias = peek.Model
	}
	g.proxy(w, r, alias, http.MethodPost, "/apply", r.URL.RawQuery, body, r.Header.Get("Content-Type"))
}

// handleColumn proxies the sparsification-check endpoint (GET, both codecs
// selected by ?format=). Columns are pure reads too, so the same
// buffer-and-failover contract applies.
func (g *Gateway) handleColumn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	g.proxy(w, r, r.URL.Query().Get("model"), http.MethodGet, "/column", r.URL.RawQuery, nil, "")
}

// resolveAlias maps the request's model name to a replica set. An empty
// name resolves only when exactly one alias is configured (the same
// single-model convenience subserve offers).
func (g *Gateway) resolveAlias(alias string) (string, []*replica, bool) {
	if alias == "" {
		if len(g.names) == 1 {
			alias = g.names[0]
		} else {
			return "", nil, false
		}
	}
	reps, ok := g.table.Load().ready[alias]
	if !ok {
		return alias, nil, false
	}
	return alias, reps, true
}

// pick chooses the next replica to try: power-of-two-choices on in-flight
// count among the ready, not-yet-tried candidates. Replicas marked down
// since the snapshot was published (a connect error on another request's
// path) are re-checked here, so a dead backend stops receiving picks
// immediately rather than after the next probe sweep.
func pick(reps []*replica, tried map[*replica]bool) *replica {
	cand := make([]*replica, 0, len(reps))
	for _, r := range reps {
		if !tried[r] && r.ready.Load() {
			cand = append(cand, r)
		}
	}
	switch len(cand) {
	case 0:
		return nil
	case 1:
		return cand[0]
	}
	i := rand.IntN(len(cand))
	j := rand.IntN(len(cand) - 1)
	if j >= i {
		j++
	}
	a, b := cand[i], cand[j]
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// errBodyTooLarge marks an upstream response that exceeded MaxBodyBytes —
// a non-retryable gateway refusal, not a backend failure.
var errBodyTooLarge = errors.New("upstream response exceeds gateway body limit")

// proxy is the failover core shared by /apply and /column. It walks ready
// replicas (power-of-two-choices order) and relays the FIRST fully-received
// upstream response that is not a 503. Failover triggers on a connect
// error, a mid-body transport error, or a 503 (the replica is shedding or
// draining); because every upstream response is buffered completely before
// a byte is relayed, a retry can never follow a partial client write — the
// "never on a partial body" contract holds structurally. Non-503 error
// statuses (400s, 404s) are the caller's problem and relay as-is without
// burning the remaining replicas.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, alias, method, path, rawQuery string, body []byte, contentType string) {
	alias, reps, ok := g.resolveAlias(alias)
	if !ok {
		if alias == "" {
			http.Error(w, fmt.Sprintf("model name required (aliases: %s)", strings.Join(g.names, ", ")),
				http.StatusBadRequest)
			return
		}
		http.Error(w, fmt.Sprintf("unknown model %q (aliases: %s)", alias, strings.Join(g.names, ", ")),
			http.StatusNotFound)
		return
	}

	ctx := r.Context()
	if g.opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.opt.Timeout)
		defer cancel()
	}

	url := path
	if rawQuery != "" {
		url += "?" + rawQuery
	}

	tried := make(map[*replica]bool, len(reps))
	var lastErr error
	for {
		rep := pick(reps, tried)
		if rep == nil {
			break
		}
		tried[rep] = true
		status, ct, respBody, err := g.forward(ctx, rep, method, url, contentType, body)
		if err != nil {
			if errors.Is(err, errBodyTooLarge) {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			lastErr = fmt.Errorf("%s: %w", rep.addr, err)
			if ctx.Err() != nil {
				// The client's deadline (or the gateway's) expired — the
				// backend may be fine; do not condemn it or keep retrying.
				http.Error(w, lastErr.Error(), http.StatusGatewayTimeout)
				return
			}
			// Transport failure: take the replica out of rotation now;
			// the prober will restore it when /readyz answers again.
			rep.ready.Store(false)
			rep.mReady.Set(0)
			rep.failovers.Add(1)
			rep.mFailover.Inc()
			continue
		}
		if status == http.StatusServiceUnavailable && len(tried) < len(reps) {
			// Shedding or draining: another replica may have headroom.
			lastErr = fmt.Errorf("%s: upstream 503", rep.addr)
			rep.failovers.Add(1)
			rep.mFailover.Inc()
			continue
		}
		// A complete response worth relaying — success, caller error, or a
		// 503 with nowhere left to fail over to.
		if ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(respBody)))
		if status != http.StatusOK {
			w.WriteHeader(status)
		}
		w.Write(respBody)
		return
	}
	if lastErr != nil {
		http.Error(w, fmt.Sprintf("all replicas for %q failed: %v", alias, lastErr), http.StatusBadGateway)
		return
	}
	http.Error(w, fmt.Sprintf("no ready replica for %q", alias), http.StatusServiceUnavailable)
}

// forward sends one attempt to one replica and buffers the entire response.
// Transport errors — before or after headers — return err; the caller
// decides whether they are retryable. The in-flight gauge brackets the full
// exchange so power-of-two-choices sees queued bytes, not just dispatched
// requests.
func (g *Gateway) forward(ctx context.Context, rep *replica, method, url, contentType string, body []byte) (status int, ct string, respBody []byte, err error) {
	var br io.Reader
	if body != nil {
		br = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.base+url, br)
	if err != nil {
		return 0, "", nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if body != nil {
		req.ContentLength = int64(len(body))
	}

	rep.inflight.Add(1)
	start := time.Now()
	defer func() {
		rep.inflight.Add(-1)
		if err == nil {
			rep.requests.Add(1)
			rep.mRequests.Inc()
			rep.mLatency.Observe(time.Since(start).Seconds())
		}
	}()

	resp, doErr := g.client.Do(req)
	if doErr != nil {
		return 0, "", nil, doErr
	}
	defer resp.Body.Close()
	limit := g.opt.maxBodyBytes()
	respBody, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		// The backend died mid-body. Nothing has been relayed to the
		// client yet, so this is as retryable as a connect error.
		return 0, "", nil, err
	}
	if int64(len(respBody)) > limit {
		return 0, "", nil, errBodyTooLarge
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), respBody, nil
}
