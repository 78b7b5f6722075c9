// Package gateway is the fleet front door: one HTTP process that shards
// /apply traffic across N subserve replicas by model alias. The paper's
// economics make this the natural production shape — extraction is the
// expensive, offline step, while a served apply is microseconds — so
// capacity comes from many cheap replicas of the same artifact behind one
// address, not from one big daemon.
//
// The gateway owns no model state at all. Its routing table is a
// copy-on-write snapshot behind one atomic pointer (the same idiom as
// internal/serve/registry): the request path does a single atomic load plus
// a map lookup, while a background prober refreshes the snapshot from each
// replica's shed-aware /readyz (unready on 503 or connection failure, with
// per-replica exponential backoff) and /models (fingerprint aggregation).
// Requests pick among ready replicas with power-of-two-choices on in-flight
// count and fail over to the next ready replica on connect error or 503 —
// but never after response bytes have reached the client, which the proxy
// guarantees structurally by buffering each upstream response in full before
// relaying a byte.
//
// The one fleet-level hazard the single-daemon registry cannot see is
// version skew: every replica's swap is atomic, but nothing synchronizes
// swaps ACROSS replicas, so a rolling artifact push briefly serves two
// fingerprints under one alias. The gateway's /models aggregates the
// per-replica fingerprints and flags disagreement, making the blend
// observable (and alertable via the subgate_fingerprint_disagreement gauge)
// even though the gateway cannot prevent it.
package gateway

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subcouple/internal/obs"
)

// Prometheus metric family names exposed on the gateway's /metrics.
// Exported so CI scrape checks, cmd/benchreport and the e2e suite grep the
// same spellings the gateway registers.
const (
	// Front-door HTTP telemetry, labeled {endpoint, code} / {endpoint} —
	// the gateway-side mirror of subserve's request families.
	MetricHTTPRequests   = "subgate_http_requests_total"
	MetricLatencySeconds = "subgate_http_request_seconds"
	// Per-backend routing telemetry, labeled {alias, backend}.
	MetricBackendReady          = "subgate_backend_ready"
	MetricBackendRequests       = "subgate_backend_requests_total"
	MetricBackendLatencySeconds = "subgate_backend_request_seconds"
	MetricFailovers             = "subgate_failover_total"
	// Per-alias fleet-consistency telemetry.
	MetricFingerprintDisagreement = "subgate_fingerprint_disagreement"
)

// Backend names one replica of one alias's fleet: requests for Alias may be
// routed to the subserve daemon listening at Addr (host:port).
type Backend struct {
	Alias string
	Addr  string
}

// ParseBackend parses the -backend flag form "alias=host:port".
func ParseBackend(s string) (Backend, error) {
	alias, addr, ok := strings.Cut(s, "=")
	if !ok || alias == "" || addr == "" {
		return Backend{}, fmt.Errorf("gateway: backend %q: want alias=host:port", s)
	}
	if err := checkAddr(addr); err != nil {
		return Backend{}, fmt.Errorf("gateway: backend %q: %v", s, err)
	}
	return Backend{Alias: alias, Addr: addr}, nil
}

// checkAddr requires a dialable host:port (SplitHostPort alone accepts ":").
func checkAddr(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return err
	}
	if host == "" || port == "" {
		return fmt.Errorf("address %q: empty host or port", addr)
	}
	return nil
}

// ParseBackendsFile reads a fleet map: one "alias=host:port" per line, with
// blank lines and #-comments ignored — the -backends file format.
func ParseBackendsFile(path string) ([]Backend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	defer f.Close()
	var out []Backend
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		b, err := ParseBackend(s)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gateway: %s: %w", path, err)
	}
	return out, nil
}

// Options configures a Gateway. The zero value is usable: 1s probes, 2s
// probe timeout, 30s backoff cap, no per-request timeout, no telemetry.
type Options struct {
	// ProbeInterval is the health-probe period for ready replicas (<= 0
	// selects 1s). Failing replicas back off exponentially from this base.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each /readyz + /models probe pair (<= 0 selects 2s).
	ProbeTimeout time.Duration
	// ProbeBackoffMax caps the exponential probe backoff for a persistently
	// failing replica (<= 0 selects 30s), so a recovered replica is never
	// more than this far from rejoining the ready set.
	ProbeBackoffMax time.Duration
	// Timeout bounds one proxied request end to end, failover attempts
	// included (0 = none).
	Timeout time.Duration
	// MaxBodyBytes bounds a proxied request or response body (<= 0 selects
	// 64 MiB, matching the daemon's own JSON cap).
	MaxBodyBytes int64
	// Client overrides the HTTP client used for proxying and probing
	// (timeouts are applied per request via context; the client itself
	// should not set one). Nil selects a dedicated pooled client.
	Client *http.Client
	// Metrics receives gateway telemetry; it may be nil, and /metrics is
	// only routed when it is set.
	Metrics *obs.Metrics
}

func (o *Options) probeInterval() time.Duration {
	if o.ProbeInterval <= 0 {
		return time.Second
	}
	return o.ProbeInterval
}

func (o *Options) probeTimeout() time.Duration {
	if o.ProbeTimeout <= 0 {
		return 2 * time.Second
	}
	return o.ProbeTimeout
}

func (o *Options) probeBackoffMax() time.Duration {
	if o.ProbeBackoffMax <= 0 {
		return 30 * time.Second
	}
	return o.ProbeBackoffMax
}

func (o *Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes <= 0 {
		return 64 << 20
	}
	return o.MaxBodyBytes
}

// replica is one backend's runtime state. Readiness and in-flight count are
// atomics read on the request path; the prober-only fields (fails,
// nextProbe) are touched exclusively from the prober's sweep, which
// serializes probes through a WaitGroup.
type replica struct {
	alias string
	addr  string
	base  string // "http://" + addr

	ready    atomic.Bool
	inflight atomic.Int64

	// Last fingerprint learned from the replica's /models (valid only when
	// fpValid; a replica that has never answered /models has no opinion in
	// the disagreement check).
	fp       atomic.Uint64
	fpValid  atomic.Bool
	contacts atomic.Int64

	// Prober-local backoff state.
	fails     int
	nextProbe time.Time

	// Lifetime totals, kept with or without a metrics registry so Stats
	// always answers.
	requests  atomic.Int64
	failovers atomic.Int64

	// Live metrics handles (nil without Options.Metrics; all nil-safe).
	mReady    *obs.Gauge
	mRequests *obs.Counter
	mLatency  *obs.Histogram
	mFailover *obs.Counter
}

// routeTable is the copy-on-write routing snapshot: the ready replicas per
// alias as of the last prober publish. The request path reads it with one
// atomic pointer load; per-request readiness updates (a connect error
// marking a replica down mid-table) are carried by the replicas' own atomic
// ready bits, which pickers re-check, so the table never goes stale in the
// dangerous direction.
type routeTable struct {
	ready map[string][]*replica
}

// Gateway fronts a fleet of subserve replicas. Construct with New, route
// with Handler, start health probing with Start, and drain with Close.
type Gateway struct {
	opt    Options
	client *http.Client

	// Static fleet configuration (aliases and their replicas never change
	// after New; only readiness does).
	all      map[string][]*replica
	names    []string // sorted aliases
	replicas []*replica

	table    atomic.Pointer[routeTable]
	draining atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup

	// endpoints is the front door's per-endpoint telemetry, the same
	// implementation subserve uses under the subgate_http_* families.
	endpoints *obs.EndpointTelemetry
	mDisagree map[string]*obs.Gauge
}

// New builds a gateway over the given fleet map. At least one backend is
// required; duplicate (alias, addr) pairs are configuration errors. All
// replicas start unready — run ProbeOnce (or Start and wait a probe
// interval) before expecting /readyz to pass.
func New(backends []Backend, opt Options) (*Gateway, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	g := &Gateway{
		opt:       opt,
		client:    opt.Client,
		all:       map[string][]*replica{},
		stop:      make(chan struct{}),
		endpoints: obs.NewEndpointTelemetry(opt.Metrics, MetricHTTPRequests, MetricLatencySeconds, "gateway "),
		mDisagree: map[string]*obs.Gauge{},
	}
	if g.client == nil {
		g.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	seen := map[Backend]bool{}
	for _, b := range backends {
		if b.Alias == "" || b.Addr == "" {
			return nil, fmt.Errorf("gateway: backend %+v: empty alias or addr", b)
		}
		if err := checkAddr(b.Addr); err != nil {
			return nil, fmt.Errorf("gateway: backend %s=%s: %v", b.Alias, b.Addr, err)
		}
		if seen[b] {
			return nil, fmt.Errorf("gateway: duplicate backend %s=%s", b.Alias, b.Addr)
		}
		seen[b] = true
		r := &replica{alias: b.Alias, addr: b.Addr, base: "http://" + b.Addr}
		if ms := opt.Metrics; ms != nil {
			r.mReady = ms.Gauge(MetricBackendReady, "1 while the replica's /readyz answers 200, else 0", "alias", b.Alias, "backend", b.Addr)
			r.mRequests = ms.Counter(MetricBackendRequests, "requests proxied to the replica (completed responses, any status)", "alias", b.Alias, "backend", b.Addr)
			r.mLatency = ms.Histogram(MetricBackendLatencySeconds, "proxied request latency against the replica", "alias", b.Alias, "backend", b.Addr)
			r.mFailover = ms.Counter(MetricFailovers, "requests failed over away from the replica after a connect error or 503", "alias", b.Alias, "backend", b.Addr)
		}
		g.all[b.Alias] = append(g.all[b.Alias], r)
		g.replicas = append(g.replicas, r)
	}
	for alias := range g.all {
		g.names = append(g.names, alias)
		if ms := opt.Metrics; ms != nil {
			g.mDisagree[alias] = ms.Gauge(MetricFingerprintDisagreement, "1 while ready replicas of the alias report different fingerprints (fleet serving blended versions)", "alias", alias)
		}
	}
	sort.Strings(g.names)
	g.publish()
	return g, nil
}

// Aliases returns the configured alias names, sorted.
func (g *Gateway) Aliases() []string { return g.names }

// Start launches the background prober. Call at most once; Close stops it.
func (g *Gateway) Start() {
	g.probeWG.Add(1)
	go func() {
		defer g.probeWG.Done()
		tick := time.NewTicker(g.opt.probeInterval())
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case now := <-tick.C:
				g.sweep(now)
			}
		}
	}()
}

// Close begins the drain: the prober stops, /readyz starts failing, and new
// applies are refused with 503 (in-flight proxied requests are the HTTP
// server's to finish — http.Server.Shutdown waits them out). Safe to call
// more than once.
func (g *Gateway) Close() {
	g.draining.Store(true)
	g.stopOnce.Do(func() { close(g.stop) })
	g.probeWG.Wait()
}

// publish rebuilds and atomically installs the routing snapshot from the
// replicas' current readiness, and refreshes the per-alias disagreement
// gauges. Called by the prober after a sweep and once at construction.
func (g *Gateway) publish() {
	ready := make(map[string][]*replica, len(g.all))
	for alias, reps := range g.all {
		rs := make([]*replica, 0, len(reps))
		for _, r := range reps {
			if r.ready.Load() {
				rs = append(rs, r)
			}
		}
		ready[alias] = rs
	}
	g.table.Store(&routeTable{ready: ready})
	for alias, reps := range g.all {
		if _, _, agree := fleetFingerprint(reps); agree {
			g.mDisagree[alias].Set(0)
		} else {
			g.mDisagree[alias].Set(1)
		}
	}
}

// fleetFingerprint reduces a replica set's last-known fingerprints: fp is
// the common value when every replica that has reported one agrees (known
// true only when at least one has). agree is false only on a genuine
// disagreement — two replicas asserting different fingerprints — not on
// ignorance.
func fleetFingerprint(reps []*replica) (fp uint64, known, agree bool) {
	agree = true
	for _, r := range reps {
		if !r.fpValid.Load() {
			continue
		}
		v := r.fp.Load()
		if !known {
			fp, known = v, true
			continue
		}
		if v != fp {
			agree = false
		}
	}
	if !agree {
		return 0, false, false
	}
	return fp, known, true
}

// Stats snapshots the gateway for the run report's "gateway" block:
// per-backend readiness and lifetime request/failover totals plus the
// front-door endpoint latency quantiles (nil Endpoints without a metrics
// registry — the totals are always kept).
func (g *Gateway) Stats() *obs.GatewayStats {
	st := &obs.GatewayStats{}
	for _, alias := range g.names {
		for _, r := range g.all[alias] {
			st.Backends = append(st.Backends, obs.GatewayBackendStat{
				Alias:     r.alias,
				Addr:      r.addr,
				Ready:     r.ready.Load(),
				Requests:  r.requests.Load(),
				Failovers: r.failovers.Load(),
			})
		}
	}
	st.Endpoints = g.endpoints.Stats()
	return st
}

// drainBody releases an upstream connection for reuse.
func drainBody(r io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(r, 1<<20))
	r.Close()
}
