package bem

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"subcouple/internal/dct"
)

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestMaskedOperatorBitwise: the contact-masked A_cc and preconditioner
// applications equal the full-surface pipeline (every row and column
// transformed, the preconditioner scale recomputed per call) bit for bit.
func TestMaskedOperatorBitwise(t *testing.T) {
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	count := func(b []bool) (k int) {
		for _, v := range b {
			if v {
				k++
			}
		}
		return k
	}
	if r, c := count(s.fwdMask.Rows), count(s.invMask.Cols); r == s.np || c == s.np {
		t.Fatalf("layout occupies %d rows and %d columns of %d: masks skip nothing", r, c, s.np)
	}
	s.UseFastSolverPrecond(true)
	rng := rand.New(rand.NewSource(40))
	m := s.NumPanels()
	x := make([]float64, m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	full := func(scale func(i int) float64) []float64 {
		field := make([]float64, s.np*s.np)
		for i, p := range s.panels {
			field[p] = x[i]
		}
		dct.DCT2D2(field, s.np, s.np)
		for i := range field {
			field[i] *= scale(i)
		}
		dct.DCT2D3(field, s.np, s.np)
		y := make([]float64, m)
		for i, p := range s.panels {
			y[i] = field[p]
		}
		return y
	}
	field := make([]float64, s.np*s.np)
	got := make([]float64, m)
	s.applyAcc(x, got, field)
	sameBits(t, "A_cc", got, full(func(i int) float64 { return s.lam[i] }))

	s.applyPrecond(x, got, field)
	sameBits(t, "precond", got, full(func(i int) float64 {
		var il float64
		if s.lam[i] > 0 {
			il = 1 / s.lam[i]
		}
		return il * math.Pow(2/float64(s.np), 4)
	}))
}

// TestSolveSteadyStateAllocs: once a workspace exists, a solve allocates
// only the current vector it returns, with or without the preconditioner.
func TestSolveSteadyStateAllocs(t *testing.T) {
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, s.N())
	v[0] = 1
	for _, precond := range []bool{false, true} {
		s.UseFastSolverPrecond(precond)
		if _, err := s.Solve(v); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.Solve(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("precond=%v: %v allocs per Solve, want at most 1 (the result)", precond, allocs)
		}
	}
}

// TestConcurrentSolvesBitwise: a batch on GOMAXPROCS workers (sharing the
// workspace free list and the transform plans; run under -race) returns
// exactly the sequential solves.
func TestConcurrentSolvesBitwise(t *testing.T) {
	prof, layout := smallSetup(t)
	s, err := New(prof, layout, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	vs := make([][]float64, 2*n)
	want := make([][]float64, len(vs))
	rng := rand.New(rand.NewSource(41))
	for i := range vs {
		vs[i] = make([]float64, n)
		for j := range vs[i] {
			vs[i][j] = rng.NormFloat64()
		}
		if want[i], err = s.Solve(vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Workers = runtime.GOMAXPROCS(0) + 1
	got, err := s.SolveBatch(vs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		sameBits(t, "batched solve", got[i], want[i])
	}
}
