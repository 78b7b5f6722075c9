package registry_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/model"
	"subcouple/internal/serve/registry"
	"subcouple/internal/solver"
)

// testModel extracts the 64-contact alternating example once per method, so
// the two methods give two distinct models (distinct fingerprints) over the
// same contact count — exactly what a hot swap flips between.
func testModel(t testing.TB, method core.Method) *model.Model {
	t.Helper()
	if m := extracted[method]; m != nil {
		return m
	}
	raw := geom.AlternatingGrid(32, 32, 8, 8, 1, 3)
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

func probeVec(n, shift int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*31+shift*7)%17) - 8
	}
	return x
}

// direct computes the single-RHS reference y on a fresh, private engine.
func direct(m *model.Model, x []float64, thresholded bool) []float64 {
	y := make([]float64, m.N)
	if thresholded {
		model.NewEngine(m).ApplyThresholdedInto(y, x)
	} else {
		model.NewEngine(m).ApplyInto(y, x)
	}
	return y
}

func bitwiseEqual(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestLifecycle walks the whole load → swap → reswap → unload → close story
// and pins every sentinel on the way.
func TestLifecycle(t *testing.T) {
	m1, m2 := testModel(t, core.LowRank), testModel(t, core.Wavelet)
	reg := registry.New(registry.Options{PoolSize: 2})

	fp1, created, err := reg.Load(m1)
	if err != nil || !created {
		t.Fatalf("first load: created=%v err=%v", created, err)
	}
	if _, created, _ := reg.Load(m1); created {
		t.Fatal("reloading identical content must be idempotent (created=false)")
	}
	fp2, _, err := reg.Load(m2)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatalf("distinct models share fingerprint %016x", fp1)
	}
	if got := reg.Snapshot().Fingerprints(); len(got) != 2 {
		t.Fatalf("want 2 versions, got %v", got)
	}

	// Initial bind: no previous, no drain.
	res, err := reg.Swap("m", fp1)
	if err != nil {
		t.Fatal(err)
	}
	if res.HadPrevious {
		t.Fatalf("initial bind reported previous %016x", res.Previous)
	}

	// The activation serves the right bytes.
	x := probeVec(m1.N, 1)
	y := make([]float64, m1.N)
	act := reg.Snapshot().Lookup("m")
	if act == nil || act.Fingerprint() != fp1 {
		t.Fatalf("alias resolves to %v", act)
	}
	if err := act.Apply(context.Background(), y, x, false); err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(y, direct(m1, x, false)) {
		t.Fatal("served apply differs from direct engine")
	}

	// Unload refuses while aliased.
	if err := reg.Unload(fp1); !errors.Is(err, registry.ErrVersionAliased) {
		t.Fatalf("unload of aliased version: %v, want ErrVersionAliased", err)
	}
	if st := reg.Stats(); st.UnloadRefused != 1 {
		t.Fatalf("unload_refused = %d, want 1", st.UnloadRefused)
	}

	// Swap away, then the unload goes through.
	res, err = reg.Swap("m", fp2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HadPrevious || res.Previous != fp1 {
		t.Fatalf("swap reported previous %016x (had=%v), want %016x", res.Previous, res.HadPrevious, fp1)
	}
	if err := reg.Unload(fp1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Unload(fp1); !errors.Is(err, registry.ErrUnknownVersion) {
		t.Fatalf("double unload: %v, want ErrUnknownVersion", err)
	}
	if _, err := reg.Swap("m2", fp1); !errors.Is(err, registry.ErrUnknownVersion) {
		t.Fatalf("swap to unloaded version: %v, want ErrUnknownVersion", err)
	}

	st := reg.Stats()
	if st.Loads != 2 || st.Swaps != 2 || st.Unloads != 1 || st.Versions != 1 || st.Aliases != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.DrainCount != 1 {
		t.Fatalf("drain count %d, want 1 (one displacement)", st.DrainCount)
	}

	// Close: mutations refuse, the snapshot stays readable.
	reg.Close()
	reg.Close() // idempotent
	if _, _, err := reg.Load(m1); !errors.Is(err, registry.ErrRegistryClosed) {
		t.Fatalf("load after close: %v", err)
	}
	if _, err := reg.Swap("m", fp2); !errors.Is(err, registry.ErrRegistryClosed) {
		t.Fatalf("swap after close: %v", err)
	}
	if err := reg.Unload(fp2); !errors.Is(err, registry.ErrRegistryClosed) {
		t.Fatalf("unload after close: %v", err)
	}
	if reg.Snapshot().Lookup("m") == nil {
		t.Fatal("snapshot must stay readable after close")
	}
	if err := reg.Snapshot().Lookup("m").Apply(context.Background(), y, x, false); !errors.Is(err, registry.ErrClosed) {
		t.Fatalf("apply after close: %v, want ErrClosed", err)
	}
}

// TestSnapshotReadIsAllocationFree pins the acceptance criterion for the
// request path: resolving a model through the registry is one atomic load
// plus a map lookup — zero allocations.
func TestSnapshotReadIsAllocationFree(t *testing.T) {
	reg := registry.New(registry.Options{PoolSize: 1})
	fp, _, err := reg.Load(testModel(t, core.LowRank))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("m", fp); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var act *registry.Active
	allocs := testing.AllocsPerRun(1000, func() {
		act = reg.Snapshot().Lookup("m")
	})
	if act == nil {
		t.Fatal("lookup failed")
	}
	if allocs != 0 {
		t.Fatalf("snapshot read allocates %v per op, want 0", allocs)
	}
}

// TestConcurrentSwapNeverBlends is the tentpole race test: client
// goroutines apply against one alias while swaps flip it between two
// fingerprints. Every response must be bitwise equal to one of the two
// models' direct-engine outputs — a swap may pick which version serves a
// request, but never mix them — and no request may be dropped.
func TestConcurrentSwapNeverBlends(t *testing.T) {
	m1, m2 := testModel(t, core.LowRank), testModel(t, core.Wavelet)
	reg := registry.New(registry.Options{PoolSize: 2})
	fp1, _, err := reg.Load(m1)
	if err != nil {
		t.Fatal(err)
	}
	fp2, _, err := reg.Load(m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("m", fp1); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 40
	const swaps = 20

	// Precompute the only two acceptable answers per probe.
	want1 := make([][]float64, clients)
	want2 := make([][]float64, clients)
	for c := 0; c < clients; c++ {
		x := probeVec(m1.N, c)
		want1[c], want2[c] = direct(m1, x, false), direct(m2, x, false)
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := probeVec(m1.N, c)
			y := make([]float64, m1.N)
			for i := 0; i < perClient; i++ {
				// The serving loop every handler runs: resolve, apply,
				// re-resolve on swap displacement.
				for {
					act := reg.Snapshot().Lookup("m")
					if act == nil {
						errCh <- fmt.Errorf("alias vanished")
						return
					}
					err := act.Apply(context.Background(), y, x, false)
					if err == nil {
						break
					}
					if !errors.Is(err, registry.ErrClosed) {
						errCh <- fmt.Errorf("client %d apply %d: %v", c, i, err)
						return
					}
				}
				if !bitwiseEqual(y, want1[c]) && !bitwiseEqual(y, want2[c]) {
					failures.Add(1)
				}
			}
		}(c)
	}

	fps := [2]uint64{fp1, fp2}
	for i := 0; i < swaps; i++ {
		if _, err := reg.Swap("m", fps[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d responses matched neither model's direct output (blended or torn apply)", n)
	}

	st := reg.Stats()
	if st.Swaps != int64(swaps)+1 {
		t.Fatalf("swaps = %d, want %d", st.Swaps, swaps+1)
	}
	reg.Close()
}
