package core_test

import (
	"runtime"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/lowrank"
	"subcouple/internal/model"
)

// TestExample3FingerprintsPinned pins the bitwise apply fingerprints of the
// seed-1 Example 3 extractions (256 contacts, live eigenfunction solver) for
// both methods. Any change to the solve hot path (transform plans, masks,
// workspaces) must leave every floating-point operation and its order as it
// was, so these values may only change with a deliberate algorithm change.
// amd64 only: Go may fuse multiply-adds on other architectures.
func TestExample3FingerprintsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are pinned for amd64 (no fused multiply-add)")
	}
	if testing.Short() {
		t.Skip("full Example 3 extraction")
	}
	c := experiments.Example3(experiments.Small)
	s, err := experiments.BemSolver(c)
	if err != nil {
		t.Fatal(err)
	}
	lopt := lowrank.DefaultOptions()
	lopt.Seed = 1
	for _, tc := range []struct {
		method core.Method
		solves int
		want   uint64
	}{
		{core.LowRank, 249, 0x492cfe3346dfa078},
		{core.Wavelet, 186, 0x5941c79118b9695d},
	} {
		res, err := core.Extract(s, c.Layout, core.Options{
			Method: tc.method, MaxLevel: c.MaxLevel, ThresholdFactor: 6, LowRank: lopt,
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.method, err)
		}
		if res.Solves != tc.solves {
			t.Errorf("%v: %d solves, want %d", tc.method, res.Solves, tc.solves)
		}
		if got := model.FingerprintOf(res.Model(), 0); got != tc.want {
			t.Errorf("%v: fingerprint %016x, want %016x", tc.method, got, tc.want)
		}
	}
}
