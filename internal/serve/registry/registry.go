// Package registry is the model-lifecycle layer under internal/serve: a
// content-addressed store of decoded .scm models keyed by their exact apply
// fingerprint, with named aliases pointing at versions. It owns the serving
// machinery the HTTP layer used to build inline — the engine Pool and the
// micro-batching Batcher live here, constructed per alias activation — so
// the request path never touches lifecycle state:
//
//   - Version: one immutable content entry (decoded model + fingerprint).
//     Loading the same bytes twice yields the same version; the fingerprint
//     is the natural key because extraction already computes it and `subx
//     -load`, /models and CI all cross-check the same value.
//   - Active: one alias's live serving machinery (Pool + Batcher) over a
//     version. Activations are immutable after construction; a swap builds
//     a fresh one rather than mutating the old.
//   - Snapshot: an immutable copy-on-write view of aliases and versions.
//     The request path reads it with ONE atomic pointer load and resolves
//     aliases with a plain map lookup — no lock, no allocation — while
//     Load/Swap/Unload mutate under a mutex and publish a new snapshot.
//
// Swap(alias, fp) builds the new engine pool first, flips the alias with
// one atomic snapshot publish, and only then drains the displaced
// activation: its batcher refuses new admissions and Close blocks until
// every already-admitted apply has completed (the admit-then-complete drain
// semantics the daemon's SIGTERM path uses). A request that raced the flip
// and hit the closed batcher sees ErrClosed and re-resolves the alias from
// a fresh snapshot. Unload refuses to drop a version while any alias still
// points at it.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subcouple/internal/model"
	"subcouple/internal/obs"
)

// Prometheus metric family names for the pool, batcher and registry
// lifecycle telemetry. Exported so the CI scrape check and tests grep the
// same spellings the code registers.
const (
	// Batcher telemetry, labeled {model}.
	MetricQueueDepth        = "subserve_batch_queue_depth"
	MetricBatchSize         = "subserve_batch_size"
	MetricWindowWaitSeconds = "subserve_batch_window_wait_seconds"
	MetricBatchFlushes      = "subserve_batch_flushes_total"
	// Pool telemetry, labeled {model}.
	MetricPoolInUse       = "subserve_pool_in_use"
	MetricPoolWaitSeconds = "subserve_pool_wait_seconds"
	MetricPoolTimeouts    = "subserve_pool_timeouts_total"
	// Registry lifecycle telemetry.
	MetricRegistryLoads         = "subserve_registry_loads_total"
	MetricRegistrySwaps         = "subserve_registry_swaps_total"
	MetricRegistryUnloads       = "subserve_registry_unloads_total"
	MetricRegistryUnloadRefused = "subserve_registry_unload_refused_total"
	MetricRegistryDrainSeconds  = "subserve_registry_swap_drain_seconds"
	MetricRegistryVersions      = "subserve_registry_versions"
	MetricRegistryAliases       = "subserve_registry_aliases"
)

// BatchSizeBuckets is the coalesced-batch-size histogram ladder: batches are
// small integers bounded by MaxBatch, so powers of two resolve them exactly
// where the latency ladder would lump everything into its first bucket.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Sentinel errors for lifecycle misuse. Handlers map them to HTTP statuses;
// tests pin them with errors.Is.
var (
	// ErrRegistryClosed is returned by every mutating operation after Close:
	// the daemon is shutting down and the registry accepts no new state.
	ErrRegistryClosed = errors.New("registry: closed")
	// ErrUnknownVersion names a fingerprint with no loaded version.
	ErrUnknownVersion = errors.New("registry: unknown version")
	// ErrUnknownAlias names an alias no snapshot entry matches.
	ErrUnknownAlias = errors.New("registry: unknown alias")
	// ErrVersionAliased refuses an Unload while an alias still points at the
	// version — swap the alias away first.
	ErrVersionAliased = errors.New("registry: version still aliased")
)

// Options configures the serving machinery the registry builds per alias
// activation. The zero value is usable (NumCPU engines, DefaultMaxBatch, no
// telemetry).
type Options struct {
	// PoolSize is the number of engines (the concurrency limit) per
	// activation; <= 0 selects runtime.NumCPU().
	PoolSize int
	// MaxBatch bounds the columns fused into one flush (<= 0 selects
	// DefaultMaxBatch).
	MaxBatch int
	// Workers is the engine worker count for batched applies (0 = all CPUs);
	// responses are bitwise identical for any value.
	Workers int
	// Metrics receives lifecycle + serving telemetry; it may be nil.
	Metrics *obs.Metrics
}

// Version is one immutable content entry: a decoded, validated model plus
// the exact apply fingerprint that content-addresses it.
type Version struct {
	m  *model.Model
	fp uint64
}

// Model returns the decoded model.
func (v *Version) Model() *model.Model { return v.m }

// Fingerprint returns the content address (the exact apply fingerprint).
func (v *Version) Fingerprint() uint64 { return v.fp }

// Active is one alias's live serving machinery over a version: an engine
// pool plus a micro-batcher, built when the alias was pointed at the
// version and immutable afterwards. A swap displaces the whole activation.
type Active struct {
	ver     *Version
	alias   string
	pool    *Pool
	batcher *Batcher
}

// Alias returns the alias this activation serves.
func (a *Active) Alias() string { return a.alias }

// Model returns the served model.
func (a *Active) Model() *model.Model { return a.ver.m }

// Fingerprint returns the served version's content address.
func (a *Active) Fingerprint() uint64 { return a.ver.fp }

// Pool returns the activation's engine pool (for column/fingerprint style
// single-engine work; batched applies go through Apply).
func (a *Active) Pool() *Pool { return a.pool }

// Apply runs one coalesced apply through the activation's batcher. After a
// swap displaced this activation the batcher is draining and Apply returns
// ErrClosed — re-resolve the alias from a fresh Snapshot and retry.
func (a *Active) Apply(ctx context.Context, dst, x []float64, thresholded bool) error {
	return a.batcher.Apply(ctx, dst, x, thresholded)
}

// QueueDepth returns the activation's admitted-but-incomplete applies.
func (a *Active) QueueDepth() int { return a.batcher.QueueDepth() }

// Snapshot is an immutable registry view. The request path loads one with a
// single atomic pointer read and never takes a lock; mutations build a new
// Snapshot and publish it, so a handler holding an old one simply sees the
// pre-mutation world (and, on apply, an ErrClosed nudge to re-resolve).
type Snapshot struct {
	aliases  map[string]*Active
	names    []string // sorted alias names
	versions map[uint64]*Version
	fps      []uint64 // sorted fingerprints
}

// emptySnapshot is the published view of a fresh registry.
var emptySnapshot = &Snapshot{
	aliases:  map[string]*Active{},
	versions: map[uint64]*Version{},
}

// Lookup resolves an alias to its live activation, nil when unknown. It is
// the request path's only registry touch: a map read on an immutable view.
func (s *Snapshot) Lookup(alias string) *Active { return s.aliases[alias] }

// Names returns the sorted alias names. The slice is shared with the
// snapshot — read-only for callers.
func (s *Snapshot) Names() []string { return s.names }

// Version resolves a fingerprint to its loaded version, nil when unknown.
func (s *Snapshot) Version(fp uint64) *Version { return s.versions[fp] }

// Fingerprints returns the sorted content addresses of every loaded
// version. The slice is shared with the snapshot — read-only for callers.
func (s *Snapshot) Fingerprints() []uint64 { return s.fps }

// QueueDepth sums admitted-but-incomplete applies across all activations —
// the signal behind queue-depth-aware readiness.
func (s *Snapshot) QueueDepth() int {
	depth := 0
	for _, name := range s.names {
		depth += s.aliases[name].QueueDepth()
	}
	return depth
}

// PoolInUse sums checked-out engines across all activations.
func (s *Snapshot) PoolInUse() int {
	n := 0
	for _, name := range s.names {
		n += s.aliases[name].pool.InUse()
	}
	return n
}

// Stats is a point-in-time summary of the registry's lifecycle counters for
// the run report's serving block.
type Stats struct {
	Versions         int     `json:"versions"`
	Aliases          int     `json:"aliases"`
	Loads            int64   `json:"loads"`
	Swaps            int64   `json:"swaps"`
	Unloads          int64   `json:"unloads"`
	UnloadRefused    int64   `json:"unload_refused"`
	DrainCount       int64   `json:"drain_count"`
	DrainMeanSeconds float64 `json:"drain_mean_seconds"`
}

// Registry is the content-addressed model store. Mutations (Load, Swap,
// Unload, Close) serialize on an internal mutex and publish copy-on-write
// snapshots; reads are lock-free through Snapshot.
type Registry struct {
	opt Options

	mu     sync.Mutex
	closed bool
	snap   atomic.Pointer[Snapshot]

	// Lifecycle counters, maintained with or without a metrics registry so
	// Stats always answers.
	loads, swaps, unloads, unloadRefused atomic.Int64
	drainCount                           atomic.Int64
	drainNanos                           atomic.Int64

	// Live metrics handles (nil without Options.Metrics; all nil-safe).
	mLoads, mSwaps, mUnloads, mRefused *obs.Counter
	mDrain                             *obs.Histogram
	mVersions, mAliases                *obs.Gauge
}

// New returns an empty registry.
func New(opt Options) *Registry {
	r := &Registry{opt: opt}
	r.snap.Store(emptySnapshot)
	if ms := opt.Metrics; ms != nil {
		r.mLoads = ms.Counter(MetricRegistryLoads, "model versions loaded into the content-addressed store")
		r.mSwaps = ms.Counter(MetricRegistrySwaps, "alias flips (hot swaps), including initial binds")
		r.mUnloads = ms.Counter(MetricRegistryUnloads, "versions removed from the store")
		r.mRefused = ms.Counter(MetricRegistryUnloadRefused, "unloads refused because an alias still pointed at the version")
		r.mDrain = ms.Histogram(MetricRegistryDrainSeconds, "time to drain a displaced activation's in-flight applies after a swap")
		r.mVersions = ms.Gauge(MetricRegistryVersions, "loaded model versions")
		r.mAliases = ms.Gauge(MetricRegistryAliases, "live alias activations")
	}
	return r
}

// Snapshot returns the current immutable view: one atomic load, zero
// allocations — safe to call on every request.
func (r *Registry) Snapshot() *Snapshot { return r.snap.Load() }

// Stats snapshots the lifecycle counters.
func (r *Registry) Stats() Stats {
	snap := r.Snapshot()
	st := Stats{
		Versions:      len(snap.versions),
		Aliases:       len(snap.aliases),
		Loads:         r.loads.Load(),
		Swaps:         r.swaps.Load(),
		Unloads:       r.unloads.Load(),
		UnloadRefused: r.unloadRefused.Load(),
		DrainCount:    r.drainCount.Load(),
	}
	if st.DrainCount > 0 {
		st.DrainMeanSeconds = time.Duration(r.drainNanos.Load()).Seconds() / float64(st.DrainCount)
	}
	return st
}

// publishLocked installs a new snapshot built from the given maps (called
// with r.mu held; the maps must not be mutated afterwards).
func (r *Registry) publishLocked(aliases map[string]*Active, versions map[uint64]*Version) {
	names := make([]string, 0, len(aliases))
	for name := range aliases {
		names = append(names, name)
	}
	sort.Strings(names)
	fps := make([]uint64, 0, len(versions))
	for fp := range versions {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	r.snap.Store(&Snapshot{aliases: aliases, names: names, versions: versions, fps: fps})
	r.mVersions.Set(int64(len(versions)))
	r.mAliases.Set(int64(len(aliases)))
}

// copyAliases / copyVersions build the mutable side of a copy-on-write step.
func copyAliases(src map[string]*Active) map[string]*Active {
	dst := make(map[string]*Active, len(src)+1)
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

func copyVersions(src map[uint64]*Version) map[uint64]*Version {
	dst := make(map[uint64]*Version, len(src)+1)
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Load registers a decoded model in the content store, keyed by its exact
// apply fingerprint, and returns the key. Loading content that is already
// present is the identity (created reports false): the store is
// content-addressed, so "the same model" and "the same fingerprint" are one
// predicate. Load does not build serving machinery — Swap does, when an
// alias is pointed at the version.
func (r *Registry) Load(m *model.Model) (fp uint64, created bool, err error) {
	// The fingerprint is a few probe applies on a throwaway exact engine —
	// deterministic for any worker count — computed outside the mutex so a
	// slow hash never blocks the request path's writers.
	fp = model.FingerprintOf(m, r.opt.Workers)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, false, ErrRegistryClosed
	}
	snap := r.Snapshot()
	if snap.versions[fp] != nil {
		return fp, false, nil
	}
	versions := copyVersions(snap.versions)
	versions[fp] = &Version{m: m, fp: fp}
	r.publishLocked(snap.aliases, versions)
	r.loads.Add(1)
	r.mLoads.Inc()
	return fp, true, nil
}

// LoadBytes decodes one .scm artifact body and loads it.
func (r *Registry) LoadBytes(data []byte) (fp uint64, created bool, err error) {
	m, err := model.Decode(data)
	if err != nil {
		return 0, false, fmt.Errorf("registry: %w", err)
	}
	return r.Load(m)
}

// SwapResult reports what a Swap displaced.
type SwapResult struct {
	// Fingerprint is the version the alias now serves.
	Fingerprint uint64
	// Previous is the displaced version's fingerprint; HadPrevious is false
	// for an initial bind.
	Previous    uint64
	HadPrevious bool
	// Drain is how long the displaced activation took to finish its
	// admitted in-flight applies (zero for an initial bind).
	Drain time.Duration
}

// Swap points alias at the version fp. The new activation's engine pool and
// batcher are built BEFORE the flip; the flip itself is one atomic snapshot
// publish; and only after the flip does Swap drain the displaced
// activation — its batcher stops admitting and Swap blocks until every
// already-admitted apply has completed, so no in-flight request is ever
// dropped. Swapping an alias to the version it already serves still builds
// a fresh activation and drains the old one (that is what a hot reload of
// identical content looks like). An unknown fp is ErrUnknownVersion.
func (r *Registry) Swap(alias string, fp uint64) (SwapResult, error) {
	if alias == "" {
		return SwapResult{}, fmt.Errorf("registry: empty alias")
	}
	// Build the serving machinery optimistically outside the mutex: pool
	// construction allocates engines, which must never stall concurrent
	// swaps of other aliases or the mutating path generally.
	ver := r.Snapshot().versions[fp]
	if ver == nil {
		return SwapResult{}, fmt.Errorf("%w: %016x", ErrUnknownVersion, fp)
	}
	act := r.newActive(alias, ver)

	r.mu.Lock()
	snap := r.Snapshot()
	if r.closed || snap.versions[fp] != ver {
		// Closed, or the version was unloaded between the optimistic build
		// and the lock: discard the fresh machinery (nothing was admitted).
		r.mu.Unlock()
		act.batcher.Close()
		if r.closed {
			return SwapResult{}, ErrRegistryClosed
		}
		return SwapResult{}, fmt.Errorf("%w: %016x", ErrUnknownVersion, fp)
	}
	old := snap.aliases[alias]
	aliases := copyAliases(snap.aliases)
	aliases[alias] = act
	r.publishLocked(aliases, snap.versions)
	r.mu.Unlock()

	res := SwapResult{Fingerprint: fp}
	r.swaps.Add(1)
	r.mSwaps.Inc()
	if old != nil {
		// Drain the displaced activation outside the mutex: requests that
		// resolved the old snapshot and were admitted complete here; later
		// arrivals get ErrClosed and re-resolve to the new activation.
		res.Previous, res.HadPrevious = old.ver.fp, true
		start := time.Now()
		old.batcher.Close()
		res.Drain = time.Since(start)
		r.drainCount.Add(1)
		r.drainNanos.Add(res.Drain.Nanoseconds())
		r.mDrain.Observe(res.Drain.Seconds())
	}
	return res, nil
}

// newActive builds one alias activation: pool, batcher, telemetry labels.
func (r *Registry) newActive(alias string, ver *Version) *Active {
	pool := NewPool(ver.m, r.opt.PoolSize)
	act := &Active{
		ver:     ver,
		alias:   alias,
		pool:    pool,
		batcher: NewBatcher(pool, r.opt.MaxBatch, r.opt.Workers),
	}
	if r.opt.Metrics != nil {
		// Successive activations of the same alias resolve to the same
		// metric series, so hot swaps keep gauge/counter continuity.
		act.pool.SetMetrics(r.opt.Metrics, alias)
		act.batcher.SetMetrics(r.opt.Metrics, alias)
	}
	return act
}

// Unload removes a version from the content store. It refuses with
// ErrVersionAliased while any alias still points at the version — swap the
// alias away first — so a served model can never vanish underfoot.
func (r *Registry) Unload(fp uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRegistryClosed
	}
	snap := r.Snapshot()
	if snap.versions[fp] == nil {
		return fmt.Errorf("%w: %016x", ErrUnknownVersion, fp)
	}
	for _, name := range snap.names {
		if snap.aliases[name].ver.fp == fp {
			r.unloadRefused.Add(1)
			r.mRefused.Inc()
			return fmt.Errorf("%w: %016x is alias %q", ErrVersionAliased, fp, name)
		}
	}
	versions := copyVersions(snap.versions)
	delete(versions, fp)
	r.publishLocked(snap.aliases, versions)
	r.unloads.Add(1)
	r.mUnloads.Inc()
	return nil
}

// Close drains every activation and marks the registry closed: all later
// mutations return ErrRegistryClosed, admitted in-flight applies complete
// first (the same admit-then-complete semantics as a swap drain), and the
// final snapshot stays readable so /models and /metrics answer through the
// shutdown. Safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	snap := r.Snapshot()
	r.mu.Unlock()
	for _, name := range snap.names {
		snap.aliases[name].batcher.Close()
	}
}
