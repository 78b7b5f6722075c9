package dct

import "math"

// Conventions (N = len(x)):
//
//	DCT-II:  X_k = Σ_{n=0}^{N-1} x_n · cos(π k (n+½) / N)
//	DCT-III: x_n = X_0/2 + Σ_{k=1}^{N-1} X_k · cos(π k (n+½) / N)
//
// With these conventions DCT3(DCT2(x)) = (N/2)·x, which the callers fold
// into their eigenvalue scaling.

// DCT2 returns the DCT-II of x. Power-of-two lengths use the length's FFT
// plan; other lengths fall back to the direct O(N²) evaluation.
func DCT2(x []float64) []float64 { return transform1D(x, II) }

// DCT3 returns the DCT-III of x (see package conventions).
func DCT3(x []float64) []float64 { return transform1D(x, III) }

// Kind selects the 1-D transform a 2-D pass applies.
type Kind int

const (
	II  Kind = iota // DCT-II
	III             // DCT-III
)

func transform1D(x []float64, k Kind) []float64 {
	if len(x) == 0 {
		return nil
	}
	out := append([]float64(nil), x...)
	p, sc := getScratch(len(x))
	p.apply(out, k, sc.v)
	p.putScratch(sc)
	return out
}

// apply overwrites x with its transform of kind k, v being the FFT buffer.
// A nil plan (a non-power-of-two length) evaluates the direct sums.
func (p *plan) apply(x []float64, k Kind, v []complex128) {
	switch {
	case p == nil && k == II:
		copy(x, dct2Direct(x))
	case p == nil:
		copy(x, dct3Direct(x))
	case k == II:
		p.dct2(x, v)
	default:
		p.dct3(x, v)
	}
}

func dct2Direct(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for i, xi := range x {
			s += xi * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		out[k] = s
	}
	return out
}

func dct3Direct(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := x[0] / 2
		for k := 1; k < n; k++ {
			s += x[k] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		out[i] = s
	}
	return out
}

// DCT2D2 applies DCT-II along both dimensions of an nx-by-ny row-major
// field, in place.
func DCT2D2(a []float64, nx, ny int) { Masked2D(a, nx, ny, II, nil) }

// DCT2D3 applies DCT-III along both dimensions of an nx-by-ny row-major
// field, in place.
func DCT2D3(a []float64, nx, ny int) { Masked2D(a, nx, ny, III, nil) }

// Mask restricts a 2-D transform to the 1-D transforms whose results
// matter. A nil slice runs every transform in its direction.
type Mask struct {
	// Rows[i] == false declares row i all +0 on input. Its row transform
	// would leave it all +0, so it is skipped.
	Rows []bool
	// Cols[j] == false declares column j's result unused. Its column
	// transform is skipped and the column keeps the row pass's values.
	Cols []bool
}

// Masked2D applies the transform of kind k along both dimensions of an
// nx-by-ny row-major field, in place: every row (the y-direction) first,
// then every column, skipping what m excludes (nil m excludes nothing).
// Every value it computes is bitwise the unmasked one.
func Masked2D(a []float64, nx, ny int, k Kind, m *Mask) {
	if len(a) != nx*ny {
		panic("dct: 2D transform size mismatch")
	}
	var rows, cols []bool
	if m != nil {
		rows, cols = m.Rows, m.Cols
	}
	if (rows != nil && len(rows) != nx) || (cols != nil && len(cols) != ny) {
		panic("dct: 2D mask size mismatch")
	}
	// Rows (y-direction).
	p, sc := getScratch(ny)
	for i := 0; i < nx; i++ {
		if rows == nil || rows[i] {
			p.apply(a[i*ny:(i+1)*ny], k, sc.v)
		}
	}
	p.putScratch(sc)
	// Columns (x-direction).
	p, sc = getScratch(nx)
	col := sc.col
	for j := 0; j < ny; j++ {
		if cols != nil && !cols[j] {
			continue
		}
		for i := 0; i < nx; i++ {
			col[i] = a[i*ny+j]
		}
		p.apply(col, k, sc.v)
		for i := 0; i < nx; i++ {
			a[i*ny+j] = col[i]
		}
	}
	p.putScratch(sc)
}

// getScratch returns the plan of length n (nil if n is not a power of two)
// and scratch for it.
func getScratch(n int) (*plan, *scratch) {
	if !IsPow2(n) {
		return nil, &scratch{col: make([]float64, n)}
	}
	p := planFor(n)
	return p, p.scratch.Get()
}

func (p *plan) putScratch(sc *scratch) {
	if p != nil {
		p.scratch.Put(sc)
	}
}

// SolveTridiag solves the tridiagonal system with subdiagonal a (a[0]
// unused), diagonal b, superdiagonal c (c[n-1] unused) and right-hand side
// d, overwriting d with the solution (Thomas algorithm). The scratch slice
// must have length n (it is overwritten).
func SolveTridiag(a, b, c, d, scratch []float64) {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n || len(scratch) != n {
		panic("dct: SolveTridiag length mismatch")
	}
	cp := scratch
	beta := b[0]
	if beta == 0 {
		panic("dct: SolveTridiag zero pivot")
	}
	cp[0] = c[0] / beta
	d[0] /= beta
	for i := 1; i < n; i++ {
		beta = b[i] - a[i]*cp[i-1]
		if beta == 0 {
			panic("dct: SolveTridiag zero pivot")
		}
		cp[i] = c[i] / beta
		d[i] = (d[i] - a[i]*d[i-1]) / beta
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= cp[i] * d[i+1]
	}
}
