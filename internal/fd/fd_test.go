package fd

import (
	"math"
	"testing"

	"subcouple/internal/bem"
	"subcouple/internal/geom"
	"subcouple/internal/metrics"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

// columnsOf adapts the row-major extractG result to a metrics.ColumnFunc.
func columnsOf(g [][]float64) metrics.ColumnFunc {
	return func(j int) []float64 {
		c := make([]float64, len(g))
		for i := range g {
			c[i] = g[i][j]
		}
		return c
	}
}

func smallSetup() (*substrate.Profile, *geom.Layout) {
	prof := substrate.Uniform(16, 8, 1, true)
	layout := geom.RegularGrid(16, 16, 4, 4, 2)
	return prof, layout
}

func mustNew(t *testing.T, prof *substrate.Profile, layout *geom.Layout, opt Options) *Solver {
	t.Helper()
	s, err := New(prof, layout, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func extractG(t *testing.T, s solver.Solver) [][]float64 {
	t.Helper()
	n := s.N()
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
	}
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col, err := s.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		e[j] = 0
		for i := 0; i < n; i++ {
			g[i][j] = col[i]
		}
	}
	return g
}

func TestNewValidations(t *testing.T) {
	prof, layout := smallSetup()
	if _, err := New(prof, layout, Options{H: 3}); err == nil {
		t.Fatalf("expected non-multiple spacing error")
	}
	if _, err := New(prof, layout, Options{H: 0}); err == nil {
		t.Fatalf("expected zero spacing error")
	}
	if _, err := New(prof, layout, Options{H: 8}); err == nil {
		t.Fatalf("expected uncovered-contact error at coarse h")
	}
}

func TestSymmetryBothPlacements(t *testing.T) {
	prof, layout := smallSetup()
	for _, pl := range []Placement{Outside, Inside} {
		s := mustNew(t, prof, layout, Options{H: 1, Placement: pl, Precond: PrecondIC0})
		g := extractG(t, s)
		if err := metrics.CheckConductance(len(g), columnsOf(g), false, 1e-5); err != nil {
			t.Fatalf("placement %d: %v", pl, err)
		}
	}
}

func TestFloatingBackplaneRowSumsZero(t *testing.T) {
	// Thesis §2.4: with no backplane contact, Σ_i G_ij = 0 for all j.
	prof := substrate.Uniform(16, 8, 1, false)
	layout := geom.RegularGrid(16, 16, 4, 4, 2)
	s := mustNew(t, prof, layout, Options{H: 1, Placement: Inside, Precond: PrecondIC0, Tol: 1e-10})
	g := extractG(t, s)
	if err := metrics.CheckConductance(len(g), columnsOf(g), true, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestGroundedStrictDominance(t *testing.T) {
	prof, layout := smallSetup()
	s := mustNew(t, prof, layout, Options{H: 1, Placement: Inside, Precond: PrecondIC0})
	g := extractG(t, s)
	if err := metrics.CheckStrictDominance(len(g), columnsOf(g)); err != nil {
		t.Fatal(err)
	}
}

func TestPreconditionersAgree(t *testing.T) {
	prof, layout := smallSetup()
	e := make([]float64, layout.N())
	e[5] = 1
	var ref []float64
	for _, p := range []Precond{PrecondNone, PrecondIC0, PrecondFastPoisson} {
		s := mustNew(t, prof, layout, Options{
			H: 1, Placement: Inside, Precond: p, TopBlend: 0.5, Tol: 1e-10,
		})
		out, err := s.Solve(e)
		if err != nil {
			t.Fatalf("precond %d: %v", p, err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range out {
			if math.Abs(out[i]-ref[i]) > 1e-5*math.Abs(ref[5]) {
				t.Fatalf("precond %d deviates at %d: %g vs %g", p, i, out[i], ref[i])
			}
		}
	}
}

func TestFastPoissonBeatsPlainCG(t *testing.T) {
	prof := substrate.TwoLayer(16, 8, 1, false)
	layout := geom.RegularGrid(16, 16, 4, 4, 2)
	e := make([]float64, layout.N())
	e[0] = 1
	iters := map[Precond]float64{}
	for _, p := range []Precond{PrecondNone, PrecondIC0, PrecondFastPoisson} {
		s := mustNew(t, prof, layout, Options{H: 1, Placement: Outside, Precond: p, AreaWeighted: true, Tol: 1e-9})
		if _, err := s.Solve(e); err != nil {
			t.Fatalf("precond %d: %v", p, err)
		}
		iters[p] = s.AvgIterations()
	}
	if iters[PrecondFastPoisson] >= iters[PrecondNone] {
		t.Fatalf("fast-Poisson (%g iters) not better than none (%g)", iters[PrecondFastPoisson], iters[PrecondNone])
	}
	if iters[PrecondFastPoisson] >= iters[PrecondIC0] {
		t.Fatalf("fast-Poisson (%g iters) not better than IC0 (%g)", iters[PrecondFastPoisson], iters[PrecondIC0])
	}
}

func TestTopBlendOrdering(t *testing.T) {
	// Table 2.1 shape: area-weighted <= Neumann < Dirichlet iterations.
	prof := substrate.Uniform(32, 8, 1, true)
	layout := geom.RegularGrid(32, 32, 8, 8, 2)
	run := func(blend float64, area bool) float64 {
		s := mustNew(t, prof, layout, Options{
			H: 1, Placement: Outside, Precond: PrecondFastPoisson,
			TopBlend: blend, AreaWeighted: area, Tol: 1e-9,
		})
		e := make([]float64, layout.N())
		e[0] = 1
		if _, err := s.Solve(e); err != nil {
			t.Fatal(err)
		}
		return s.AvgIterations()
	}
	dirichlet := run(1, false)
	neumann := run(0, false)
	weighted := run(0, true)
	if weighted > neumann || neumann >= dirichlet {
		t.Fatalf("iteration ordering violated: dirichlet=%g neumann=%g weighted=%g", dirichlet, neumann, weighted)
	}
}

func TestAgreesWithEigenfunctionSolver(t *testing.T) {
	// The two independent solvers must produce comparable conductance
	// matrices: same sign structure and diagonal within discretization
	// error.
	prof, layout := smallSetup()
	fdS := mustNew(t, prof, layout, Options{H: 0.25, Placement: Inside, Precond: PrecondFastPoisson, AreaWeighted: true, Tol: 1e-9})
	bemS, err := bem.New(prof, layout, 32)
	if err != nil {
		t.Fatal(err)
	}
	gf := extractG(t, fdS)
	gb := extractG(t, bemS)
	scale := gb[0][0]
	for i := range gf {
		for j := range gf {
			if i == j {
				continue
			}
			if math.Abs(gf[i][j]-gb[i][j]) > 0.05*scale {
				t.Fatalf("solvers disagree at (%d,%d): fd %g vs bem %g", i, j, gf[i][j], gb[i][j])
			}
		}
		// Diagonals carry the largest (first-order in h) discretization
		// error; they must agree within ~25%.
		if r := gf[i][i] / gb[i][i]; r < 0.8 || r > 1.3 {
			t.Fatalf("diagonal %d mismatch: fd %g vs bem %g", i, gf[i][i], gb[i][i])
		}
	}
}

func TestLayerBoundaryConductances(t *testing.T) {
	prof := &substrate.Profile{A: 8, B: 8, Grounded: true, Layers: []substrate.Layer{
		{Thickness: 2, Sigma: 1}, {Thickness: 2, Sigma: 4},
	}}
	layout := geom.RegularGrid(8, 8, 2, 2, 2)
	s := mustNew(t, prof, layout, Options{H: 1, Placement: Inside, Precond: PrecondIC0})
	// gz crossing the boundary at depth 2 (between cells 1 and 2):
	// h / (½/1 + ½/4) = 1/0.625 = 1.6.
	if math.Abs(s.gz[1]-1.6) > 1e-12 {
		t.Fatalf("boundary gz = %g want 1.6", s.gz[1])
	}
	// Within a layer: σh.
	if s.gz[0] != 1 || s.gz[2] != 4 {
		t.Fatalf("interior gz wrong: %v", s.gz)
	}
	if s.gxy[0] != 1 || s.gxy[3] != 4 {
		t.Fatalf("gxy wrong: %v", s.gxy)
	}
}

func TestUniformResistanceSanity(t *testing.T) {
	// One large contact covering the whole top of a uniform grounded block:
	// the conductance must approach σ·A·B/depth (a resistor of length
	// depth and cross-section A×B).
	prof := substrate.Uniform(8, 4, 2, true)
	layout := &geom.Layout{A: 8, B: 8}
	layout.Contacts = append(layout.Contacts, geom.Contact{Rect: geom.Rect{X0: 0, Y0: 0, X1: 8, Y1: 8}})
	want := 2.0 * 8 * 8 / 4
	var prevErr float64 = math.Inf(1)
	for _, h := range []float64{1, 0.5, 0.25} {
		s := mustNew(t, prof, layout, Options{H: h, Placement: Outside, Precond: PrecondFastPoisson, TopBlend: 1, Tol: 1e-10})
		out, err := s.Solve([]float64{1})
		if err != nil {
			t.Fatal(err)
		}
		// The Outside placement puts a full-length resistor between the
		// Dirichlet node and the top node, so the exact discrete answer is
		// want·nz/(nz+½) — the systematic error the thesis notes for its
		// first placement choice.
		nz := 4 / h
		exact := want * nz / (nz + 0.5)
		if math.Abs(out[0]-exact)/exact > 1e-6 {
			t.Fatalf("h=%g: block conductance %g want %g", h, out[0], exact)
		}
		e := math.Abs(out[0] - want)
		if e >= prevErr {
			t.Fatalf("h=%g: discretization error %g did not shrink (prev %g)", h, e, prevErr)
		}
		prevErr = e
	}
}

func TestIterationStatsAndValidation(t *testing.T) {
	prof, layout := smallSetup()
	s := mustNew(t, prof, layout, Options{H: 1, Placement: Inside, Precond: PrecondFastPoisson, AreaWeighted: true})
	if _, err := s.Solve([]float64{1}); err == nil {
		t.Fatalf("expected length error")
	}
	e := make([]float64, layout.N())
	e[0] = 1
	if _, err := s.Solve(e); err != nil {
		t.Fatal(err)
	}
	if s.AvgIterations() <= 0 {
		t.Fatalf("iterations not tracked")
	}
	s.ResetStats()
	if s.AvgIterations() != 0 {
		t.Fatalf("ResetStats failed")
	}
}

func TestMultigridPreconditioner(t *testing.T) {
	prof := &substrate.Profile{A: 32, B: 32, Grounded: false, Layers: []substrate.Layer{
		{Thickness: 4, Sigma: 1}, {Thickness: 12, Sigma: 100},
	}}
	layout := geom.RegularGrid(32, 32, 4, 4, 2)
	e := make([]float64, layout.N())
	e[0] = 1
	// Same answer as plain CG.
	ref := mustNew(t, prof, layout, Options{H: 1, Placement: Outside, Precond: PrecondNone, Tol: 1e-10})
	want, err := ref.Solve(e)
	if err != nil {
		t.Fatal(err)
	}
	mg := mustNew(t, prof, layout, Options{H: 1, Placement: Outside, Precond: PrecondMultigrid, Tol: 1e-10})
	got, err := mg.Solve(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-5*math.Abs(want[0]) {
			t.Fatalf("multigrid answer deviates at %d: %g vs %g", i, got[i], want[i])
		}
	}
	// And far fewer iterations.
	if mg.AvgIterations() >= ref.AvgIterations()/4 {
		t.Fatalf("multigrid %g iters vs plain %g: not enough speedup", mg.AvgIterations(), ref.AvgIterations())
	}
	if mg.NumMGLevels() < 2 {
		t.Fatalf("hierarchy depth %d", mg.NumMGLevels())
	}
}

func TestMultigridRequiresOutside(t *testing.T) {
	prof, layout := smallSetup()
	if _, err := New(prof, layout, Options{H: 1, Placement: Inside, Precond: PrecondMultigrid}); err == nil {
		t.Fatalf("expected placement error")
	}
}

func TestMultigridCompetitiveWithFastPoisson(t *testing.T) {
	// Not necessarily better, but the same order of iterations on the
	// Table 2.1 style problem.
	prof := &substrate.Profile{A: 32, B: 32, Grounded: false, Layers: []substrate.Layer{
		{Thickness: 4, Sigma: 1}, {Thickness: 12, Sigma: 100},
	}}
	layout := geom.RegularGrid(32, 32, 4, 4, 2)
	e := make([]float64, layout.N())
	e[3] = 1
	run := func(p Precond) float64 {
		s := mustNew(t, prof, layout, Options{H: 1, Placement: Outside, Precond: p, AreaWeighted: true, Tol: 1e-9})
		if _, err := s.Solve(e); err != nil {
			t.Fatal(err)
		}
		return s.AvgIterations()
	}
	mgIters := run(PrecondMultigrid)
	fpIters := run(PrecondFastPoisson)
	if mgIters > 6*fpIters {
		t.Fatalf("multigrid %g iters vs fast-Poisson %g", mgIters, fpIters)
	}
}

// TestSolveSteadyStateAllocs: once a workspace exists, a solve allocates
// only the current vector it returns — the PCG vectors and the
// fast-Poisson tridiagonal buffers come from the solver's workspace list.
func TestSolveSteadyStateAllocs(t *testing.T) {
	prof, layout := smallSetup()
	e := make([]float64, layout.N())
	e[3] = 1
	for _, p := range []Precond{PrecondNone, PrecondIC0, PrecondFastPoisson} {
		s := mustNew(t, prof, layout, Options{H: 1, Placement: Inside, Precond: p, AreaWeighted: true})
		if _, err := s.Solve(e); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.Solve(e); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("precond %d: %v allocs per Solve, want at most 1 (the result)", p, allocs)
		}
	}
}

// TestSolveBatchBitwise: concurrent solves on the worker pool, each with its
// own workspace, give bitwise the results and iteration counts of
// sequential Solve calls on a fresh solver (run with -race).
func TestSolveBatchBitwise(t *testing.T) {
	prof, layout := smallSetup()
	n := layout.N()
	vs := make([][]float64, n)
	for j := range vs {
		vs[j] = make([]float64, n)
		vs[j][j] = 1
		vs[j][(j*7)%n] -= 0.5
	}
	opt := Options{H: 1, Placement: Inside, Precond: PrecondFastPoisson, AreaWeighted: true, Workers: 4}
	seq := mustNew(t, prof, layout, opt)
	want := make([][]float64, n)
	for j, v := range vs {
		out, err := seq.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = out
	}
	batch := mustNew(t, prof, layout, opt)
	got, err := batch.SolveBatch(vs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		for i := range want[j] {
			if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
				t.Fatalf("rhs %d entry %d: batch %v, sequential %v", j, i, got[j][i], want[j][i])
			}
		}
	}
	if b, s := batch.totalIters.Load(), seq.totalIters.Load(); b != s {
		t.Fatalf("batch ran %d PCG iterations, sequential %d", b, s)
	}
}
