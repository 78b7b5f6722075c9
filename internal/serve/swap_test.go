package serve_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/serve"
)

// TestHotSwapBitwiseOverHTTP is the tentpole end-to-end guarantee: with
// client goroutines continuously firing /apply (both codecs), the alias is
// hot-swapped back and forth between two models. Every HTTP response must
// be bitwise identical to one of the two models' direct-engine outputs —
// before, during, and after the flips — and no request may fail: a request
// displaced mid-swap is retried by the handler against the new activation,
// never refused and never blended.
func TestHotSwapBitwiseOverHTTP(t *testing.T) {
	mA := testModel(t, core.LowRank)
	mB := testModel(t, core.Wavelet)
	s, ts, name := newTestServer(t, mA, serve.Options{PoolSize: 2})

	reg := s.Registry()
	fpB, _, err := reg.Load(mB)
	if err != nil {
		t.Fatal(err)
	}
	fpA, ok := s.Fingerprint(name)
	if !ok || fpA == fpB {
		t.Fatalf("fingerprints: %016x vs %016x (ok=%v)", fpA, fpB, ok)
	}

	const clients = 6
	const perClient = 30
	const swaps = 12

	var wg sync.WaitGroup
	var blended atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := probeVec(mA.N, c)
			wantA, wantB := direct(mA, x, false), direct(mB, x, false)
			for i := 0; i < perClient; i++ {
				var y []float64
				if i%2 == 0 {
					y = postJSON(t, ts, name, x, false)
				} else {
					y = postRaw(t, ts, name, x, false)
				}
				okA, okB := true, true
				for j := range y {
					if y[j] != wantA[j] {
						okA = false
					}
					if y[j] != wantB[j] {
						okB = false
					}
					if !okA && !okB {
						break
					}
				}
				if !okA && !okB {
					blended.Add(1)
				}
			}
		}(c)
	}

	// Flip the alias while the clients hammer it; end on model B.
	fps := [2]uint64{fpA, fpB}
	for i := 0; i < swaps; i++ {
		if _, err := reg.Swap(name, fps[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
	}
	// Land on model B regardless of swap-count parity.
	if _, err := reg.Swap(name, fpB); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := blended.Load(); n > 0 {
		t.Fatalf("%d responses matched neither model (blended or torn apply across swap)", n)
	}

	// After the last swap the alias serves exactly model B, bitwise.
	x := probeVec(mA.N, 99)
	bitwiseEqual(t, "post-swap", postJSON(t, ts, name, x, false), direct(mB, x, false))
	if fp, _ := s.Fingerprint(name); fp != fpB {
		t.Fatalf("alias serves %016x, want %016x", fp, fpB)
	}
}

// TestCloseRacesAddModel is the satellite regression: Server.Close
// concurrent with AddModel/LoadFile must be safe (-race clean) and any
// mutation that loses the race fails with ErrServerClosed instead of
// mutating a closed server.
func TestCloseRacesAddModel(t *testing.T) {
	m := testModel(t, core.LowRank)
	const rounds = 20
	for round := 0; round < rounds; round++ {
		s := serve.New(serve.Options{PoolSize: 1})
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = s.AddModel(fmt.Sprintf("m%d", i), m)
			}(i)
		}
		s.Close()
		wg.Wait()
		for i, err := range errs {
			if err != nil && !errors.Is(err, serve.ErrServerClosed) {
				t.Fatalf("round %d: AddModel m%d: %v (want nil or ErrServerClosed)", round, i, err)
			}
		}
	}

	// Post-Close mutations always refuse.
	s := serve.New(serve.Options{PoolSize: 1})
	s.Close()
	if err := s.AddModel("late", m); !errors.Is(err, serve.ErrServerClosed) {
		t.Fatalf("AddModel after Close: %v, want ErrServerClosed", err)
	}
	if _, err := s.LoadFile(saveArtifact(t, m, "late.scm")); !errors.Is(err, serve.ErrServerClosed) {
		t.Fatalf("LoadFile after Close: %v, want ErrServerClosed", err)
	}
}
