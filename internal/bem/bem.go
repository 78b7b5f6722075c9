// Package bem implements the eigenfunction-based surface-variable substrate
// solver of thesis §2.3 (the QuickSub substitute). The top surface is
// discretized into square panels; the panel-current to panel-potential
// operator A is applied in O(N² log N) as
//
//	zero-pad → 2-D DCT-II → scale by λ_mn·s_m²·s_n²·4/(ab) → 2-D DCT-III → restrict
//
// (Fig 2-6; the sinc factors s_m account for panel averaging of the cosine
// modes). Contact currents for given contact voltages are found by solving
// A_cc·q_c = v_c with conjugate gradients on the contact panels, then
// summing panel currents per contact.
package bem

import (
	"fmt"
	"math"
	"sync/atomic"

	"subcouple/internal/dct"
	"subcouple/internal/geom"
	"subcouple/internal/la"
	"subcouple/internal/obs"
	"subcouple/internal/par"
	"subcouple/internal/solver"
	"subcouple/internal/substrate"
)

// Solver is an eigenfunction-based black-box substrate solver.
type Solver struct {
	Prof   *substrate.Profile
	Pan    *geom.Panelization
	lam    []float64 // per-mode scaling, np*np
	panels []int     // all contact panel indices, concatenated
	owner  []int     // owner[i] = contact owning panels[i]
	np     int
	Tol    float64
	MaxIts int
	// Workers sizes the goroutine pool SolveBatch fans right-hand sides
	// across (<= 0 selects runtime.NumCPU()).
	Workers int

	// The operator's transforms skip what the contact panels make moot:
	// forward row transforms of rows without a contact panel (all zero)
	// and inverse column transforms of columns without one (never read).
	fwdMask, invMask dct.Mask
	// work holds the per-solve CG/PCG vectors for reuse across solves.
	work par.FreeList[*workspace]

	// §2.3.1 fast-solver preconditioner state (a reproduced negative
	// result; see precond.go).
	usePrecond bool
	invLam     []float64

	solves     atomic.Int64
	totalIters atomic.Int64

	rec *obs.Recorder // CG/PCG iteration histogram
	tr  *obs.Tracer   // per-solve spans with convergence args
}

// New builds a solver for the layout on the profile with an np-by-np panel
// grid. The profile must have a grounded backplane (the thesis approximates
// a floating backplane by inserting a resistive layer; see
// substrate.TwoLayer). Contacts must align to the panel grid.
func New(prof *substrate.Profile, layout *geom.Layout, np int) (*Solver, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if !prof.Grounded {
		return nil, fmt.Errorf("bem: eigenfunction solver requires a grounded backplane (add a resistive shim layer instead)")
	}
	if prof.A != layout.A || prof.B != layout.B {
		return nil, fmt.Errorf("bem: profile surface %gx%g does not match layout %gx%g", prof.A, prof.B, layout.A, layout.B)
	}
	if !dct.IsPow2(np) {
		return nil, fmt.Errorf("bem: panel count per side %d must be a power of two", np)
	}
	pan, err := geom.Panelize(layout, np)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		Prof:   prof,
		Pan:    pan,
		lam:    prof.LambdaGrid(np),
		np:     np,
		Tol:    1e-9,
		MaxIts: 2000,
	}
	rows, cols := make([]bool, np), make([]bool, np)
	for ci, ps := range pan.ContactPanels {
		for _, p := range ps {
			s.panels = append(s.panels, p)
			s.owner = append(s.owner, ci)
			rows[p/np], cols[p%np] = true, true
		}
	}
	s.fwdMask.Rows, s.invMask.Cols = rows, cols
	m := len(s.panels)
	s.work.New = func() *workspace {
		return &workspace{
			field: make([]float64, np*np),
			b:     make([]float64, m), q: make([]float64, m),
			r: make([]float64, m), p: make([]float64, m),
			ap: make([]float64, m), z: make([]float64, m),
		}
	}
	return s, nil
}

// workspace is one solve's working storage: the panel field the operator
// transforms in place, and the contact-panel CG/PCG vectors.
type workspace struct {
	field             []float64
	b, q, r, p, ap, z []float64
}

// N implements solver.Solver.
func (s *Solver) N() int { return len(s.Pan.ContactPanels) }

// NumPanels returns the number of contact panels (the solver's internal
// variable count, typically much larger than N).
func (s *Solver) NumPanels() int { return len(s.panels) }

// ApplyPanelOperator applies the full-surface current-to-potential operator
// to a panel field (length np*np, row-major), in place.
func (s *Solver) ApplyPanelOperator(field []float64) {
	s.transform(field, s.lam, nil, nil)
}

// transform runs the Fig 2-6 pipeline on a panel field in place: 2-D DCT-II,
// per-mode scaling, 2-D DCT-III, each DCT restricted by its mask.
func (s *Solver) transform(field, scale []float64, fwd, inv *dct.Mask) {
	dct.Masked2D(field, s.np, s.np, dct.II, fwd)
	for i, l := range scale {
		field[i] *= l
	}
	dct.Masked2D(field, s.np, s.np, dct.III, inv)
}

// restricted computes y = M·x on the contact panels, where M zero-pads x
// onto the surface, transforms with the per-mode scale, and restricts
// back. With scale = lam this is A_cc.
func (s *Solver) restricted(x, y, field, scale []float64) {
	clear(field)
	for i, p := range s.panels {
		field[p] = x[i]
	}
	s.transform(field, scale, &s.fwdMask, &s.invMask)
	for i, p := range s.panels {
		y[i] = field[p]
	}
}

// applyAcc computes y = A_cc·q on the contact panels.
func (s *Solver) applyAcc(q, y, field []float64) { s.restricted(q, y, field, s.lam) }

// Solve implements solver.Solver: contact voltages in, contact currents out.
func (s *Solver) Solve(v []float64) ([]float64, error) {
	return s.solveOn(nil, 0, v)
}

// solveOn is Solve with trace placement: the emitted "bem/solve" span nests
// under parent (nil = a root span) on the given track, carrying the CG
// iteration count and final relative residual as args. Observability only —
// the solve itself is identical with tracing on or off.
func (s *Solver) solveOn(parent *obs.Span, track int, v []float64) ([]float64, error) {
	n := s.N()
	if len(v) != n {
		return nil, fmt.Errorf("bem: voltage vector length %d, want %d", len(v), n)
	}
	var sp *obs.Span
	if parent != nil {
		sp = parent.ChildOn(track, "bem/solve")
	} else {
		sp = s.tr.BeginOn(track, "bem/solve")
	}
	w := s.work.Get()
	defer s.work.Put(w)
	for i := range s.panels {
		w.b[i] = v[s.owner[i]]
	}
	clear(w.q)
	var iters int
	var rel float64
	var err error
	if s.usePrecond {
		iters, rel, err = s.pcg(w)
	} else {
		iters, rel, err = s.cg(w)
	}
	s.solves.Add(1)
	s.totalIters.Add(int64(iters))
	s.rec.Observe("bem/cg_iters", float64(iters))
	s.rec.Residual("bem/cg_final_rel", rel)
	if sp != nil { // boxing the args allocates even when tracing is off
		sp.Arg("cg_iters", iters).Arg("final_rel", rel).End()
	}
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, qi := range w.q {
		out[s.owner[i]] += qi
	}
	return out, nil
}

// SetWorkers implements solver.WorkerSetter.
func (s *Solver) SetWorkers(w int) { s.Workers = w }

// SetRecorder implements obs.RecorderSetter: CG (or PCG) iteration counts
// land in the "bem/cg_iters" histogram and final relative residuals in the
// "bem/cg_final_rel" numerics stat.
func (s *Solver) SetRecorder(rec *obs.Recorder) { s.rec = rec }

// SetTracer implements obs.TracerSetter: each solve emits a "bem/solve" span
// (per-worker tracks under a "bem/batch" span for batched solves).
func (s *Solver) SetTracer(tr *obs.Tracer) { s.tr = tr }

// SolveBatch implements solver.BatchSolver: independent right-hand sides
// run as concurrent CG solves on the worker pool. Every solve checks out its
// own workspace and writes only its output slot, so the batch is
// bitwise-identical to sequential Solve calls.
func (s *Solver) SolveBatch(vs [][]float64) ([][]float64, error) {
	sp := s.tr.Begin("bem/batch").Arg("batch_size", len(vs))
	out := make([][]float64, len(vs))
	err := par.DoWorkerErr(s.Workers, len(vs), func(worker, i int) error {
		r, err := s.solveOn(sp, worker+1, vs[i])
		out[i] = r
		return err
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// cg solves A_cc·q = b (w.q zero on entry) by plain conjugate gradients,
// returning the iteration count and the final relative residual ‖r‖/‖b‖
// (read-only health signal).
func (s *Solver) cg(w *workspace) (int, float64, error) {
	q, b, r, p, ap, field := w.q, w.b, w.r, w.p, w.ap, w.field
	copy(r, b)
	copy(p, b)
	bnorm := la.Norm2(b)
	if bnorm == 0 {
		return 0, 0, nil
	}
	rr := la.Dot(r, r)
	for it := 1; it <= s.MaxIts; it++ {
		s.applyAcc(p, ap, field)
		pap := la.Dot(p, ap)
		if pap <= 0 {
			return it, math.Sqrt(rr) / bnorm, errNotPD(pap)
		}
		alpha := rr / pap
		la.Axpy(alpha, p, q)
		la.Axpy(-alpha, ap, r)
		rrNew := la.Dot(r, r)
		if math.Sqrt(rrNew) <= s.Tol*bnorm {
			return it, math.Sqrt(rrNew) / bnorm, nil
		}
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	rel := la.Norm2(r) / bnorm
	return s.MaxIts, rel, errNoConverge(s.MaxIts, rel)
}

func errNotPD(pap float64) error {
	return fmt.Errorf("bem: operator not positive definite (pᵀAp=%g)", pap)
}

func errNoConverge(its int, rel float64) error {
	return fmt.Errorf("bem: CG did not converge in %d iterations (residual %g)", its, rel)
}

// AvgIterations implements solver.IterationReporter.
func (s *Solver) AvgIterations() float64 {
	n := s.solves.Load()
	if n == 0 {
		return 0
	}
	return float64(s.totalIters.Load()) / float64(n)
}

// ResetStats zeroes the iteration statistics.
func (s *Solver) ResetStats() {
	s.solves.Store(0)
	s.totalIters.Store(0)
}

var _ solver.Solver = (*Solver)(nil)
var _ solver.BatchSolver = (*Solver)(nil)
var _ solver.IterationReporter = (*Solver)(nil)
