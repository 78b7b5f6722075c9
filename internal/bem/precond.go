package bem

import (
	"math"

	"subcouple/internal/la"
)

// The "fast-solver" preconditioner the thesis tries and rejects in §2.3.1:
// every arrow in the Fig 2-6 pipeline is reversible except the "lifting"
// step — we do not know the voltages on the non-contact surface — so the
// preconditioner simply zero-pads the contact-panel residual, inverts the
// eigen-operator mode-by-mode (divide by λ_mn instead of multiplying), and
// restricts back to the contact panels.
//
// The thesis reports: "Experiments we did using this idea indicate that it
// is not promising (the number of iterations isn't reduced much, if at
// all)", because the preconditioner disagrees with A_cc on the (large)
// non-contact portion of the surface. It is implemented here to reproduce
// that negative result (see TestFastSolverPreconditionerNotPromising and
// BenchmarkBemPreconditioner).

// UseFastSolverPrecond toggles the §2.3.1 preconditioner; when enabled,
// Solve runs preconditioned CG with it.
//
// The preconditioner divides by the mode scaling. The DCT round trip
// contributes a factor (np/2)² that must be divided out twice (once per
// pass), i.e. a total scale of (2/np)⁴ relative to the raw pipeline; it is
// folded into invLam here, once, as the product il·scale that each
// application would otherwise recompute (so the bits are the same).
func (s *Solver) UseFastSolverPrecond(on bool) {
	s.usePrecond = on
	if on && s.invLam == nil {
		scale := math.Pow(2/float64(s.np), 4)
		s.invLam = make([]float64, len(s.lam))
		for i, l := range s.lam {
			var il float64
			if l > 0 {
				il = 1 / l
			}
			s.invLam[i] = il * scale
		}
	}
}

// applyPrecond computes z = M⁻¹·r: zero-pad, DCT, divide by the mode
// scaling, inverse DCT, restrict.
func (s *Solver) applyPrecond(r, z, field []float64) { s.restricted(r, z, field, s.invLam) }

// pcg is the preconditioned variant of cg, used when the (deliberately
// unpromising) §2.3.1 preconditioner is enabled. Like cg it also returns the
// final relative residual ‖r‖/‖b‖.
func (s *Solver) pcg(w *workspace) (int, float64, error) {
	q, b, r, z, p, ap, field := w.q, w.b, w.r, w.z, w.p, w.ap, w.field
	copy(r, b)
	s.applyPrecond(r, z, field)
	copy(p, z)
	bnorm := la.Norm2(b)
	if bnorm == 0 {
		return 0, 0, nil
	}
	rz := la.Dot(r, z)
	for it := 1; it <= s.MaxIts; it++ {
		s.applyAcc(p, ap, field)
		pap := la.Dot(p, ap)
		if pap <= 0 {
			return it, la.Norm2(r) / bnorm, errNotPD(pap)
		}
		alpha := rz / pap
		la.Axpy(alpha, p, q)
		la.Axpy(-alpha, ap, r)
		if rn := la.Norm2(r); rn <= s.Tol*bnorm {
			return it, rn / bnorm, nil
		}
		s.applyPrecond(r, z, field)
		rzNew := la.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	rel := la.Norm2(r) / bnorm
	return s.MaxIts, rel, errNoConverge(s.MaxIts, rel)
}
