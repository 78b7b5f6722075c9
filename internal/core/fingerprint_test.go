package core_test

import (
	"runtime"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/lowrank"
	"subcouple/internal/model"
	"subcouple/internal/solver"
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

// TestKernel1024FingerprintsPinned pins the seed-1 alternating-1024
// extraction against the dense synthetic kernel (the scaling ladder's
// 1024-contact alternating rung) for both methods, serial and on every
// CPU. The black box is a cheap matvec here, so this is the rung where Gw
// assembly, thresholding and the low-rank row products dominate; their
// rewrites must keep every floating-point operation and its order, so the
// solve counts, the Gw nonzeros and the fingerprints may only change with
// a deliberate algorithm change. amd64 only, like the Example 3 pins.
func TestKernel1024FingerprintsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are pinned for amd64 (no fused multiply-add)")
	}
	if testing.Short() {
		t.Skip("full alternating-1024 extraction")
	}
	var c experiments.Case
	for _, sc := range experiments.ScalingLadder(1024) {
		if sc.Case.Name == "alternating-1024" {
			c = sc.Case
		}
	}
	if c.Layout == nil {
		t.Fatal("alternating-1024 missing from the scaling ladder")
	}
	s := solver.NewDense(experiments.SyntheticG(c.Layout))
	lopt := lowrank.DefaultOptions()
	lopt.Seed = 1
	for _, workers := range []int{1, runtime.NumCPU()} {
		for _, tc := range []struct {
			method core.Method
			solves int
			nnz    int
			want   uint64
		}{
			{core.LowRank, 449, 289688, 0xf6253b971d13fbea},
			{core.Wavelet, 348, 412192, 0x3e3ead9b917082e3},
		} {
			res, err := core.Extract(s, c.Layout, core.Options{
				Method: tc.method, MaxLevel: c.MaxLevel, ThresholdFactor: 6,
				Workers: workers, LowRank: lopt,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", tc.method, workers, err)
			}
			if res.Solves != tc.solves {
				t.Errorf("%v workers=%d: %d solves, want %d", tc.method, workers, res.Solves, tc.solves)
			}
			if got := res.Gw.NNZ(); got != tc.nnz {
				t.Errorf("%v workers=%d: Gw nnz %d, want %d", tc.method, workers, got, tc.nnz)
			}
			if got := model.FingerprintOf(res.Model(), 0); got != tc.want {
				t.Errorf("%v workers=%d: fingerprint %016x, want %016x", tc.method, workers, got, tc.want)
			}
		}
	}
}
