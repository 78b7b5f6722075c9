package dct

import (
	"math"
	"math/bits"
	"sync/atomic"

	"subcouple/internal/par"
)

// plan is everything a power-of-two length-n transform needs besides its
// input. It is immutable once built, apart from its scratch free list.
type plan struct {
	n int
	// cos[k], sin[k] = cos, sin(πk/2n): the DCT-II post-twiddles and DCT-III
	// pre-twiddles.
	cos, sin []float64
	// fwd and inv hold the FFT twiddles of each butterfly stage: the stage
	// with half-size h uses [h-1, 2h-1), the successive powers of
	// e^{∓2πi/2h} as the w *= wstep recurrence produces them.
	fwd, inv []complex128
	// swaps lists the bit-reversal permutation as transpositions (i, j),
	// i < j, flattened.
	swaps   []int
	scratch par.FreeList[*scratch]
}

// scratch is one transform's working storage for a plan of length n.
type scratch struct {
	v   []complex128 // the FFT buffer
	col []float64    // a gathered 2-D column
}

// plans caches one plan per power-of-two length, indexed by log2 n.
var plans [bits.UintSize]atomic.Pointer[plan]

// planFor returns the plan of a power-of-two length n, building it on first
// use. Concurrent first uses may each build one; a single winner is
// published and plans are deterministic, so which one wins is immaterial.
func planFor(n int) *plan {
	slot := &plans[bits.TrailingZeros(uint(n))]
	if p := slot.Load(); p != nil {
		return p
	}
	slot.CompareAndSwap(nil, newPlan(n))
	return slot.Load()
}

func newPlan(n int) *plan {
	p := &plan{
		n:   n,
		cos: make([]float64, n),
		sin: make([]float64, n),
		fwd: stageTwiddles(n, -1),
		inv: stageTwiddles(n, 1),
	}
	for k := 0; k < n; k++ {
		theta := math.Pi * float64(k) / float64(2*n)
		p.cos[k] = math.Cos(theta)
		p.sin[k] = math.Sin(theta)
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, i, j)
		}
	}
	p.scratch.New = func() *scratch {
		return &scratch{v: make([]complex128, n), col: make([]float64, n)}
	}
	return p
}

// stageTwiddles builds the n-1 butterfly twiddles of a length-n radix-2
// FFT with the given exponent sign.
func stageTwiddles(n int, sign float64) []complex128 {
	tw := make([]complex128, 0, n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			tw = append(tw, w)
			w *= wstep
		}
	}
	return tw
}

// fft is the in-place radix-2 decimation-in-time FFT of x (len p.n),
// without the inverse's 1/N factor.
func (p *plan) fft(x []complex128, inverse bool) {
	x = x[:p.n]
	for i := 0; i < len(p.swaps); i += 2 {
		a, b := p.swaps[i], p.swaps[i+1]
		x[a], x[b] = x[b], x[a]
	}
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	n := p.n
	for half := 1; half < n; half <<= 1 {
		size := 2 * half
		w := tw[half-1 : size-1]
		// Each butterfly reads and writes only its own pair, so visiting
		// them twiddle-major (early stages: few twiddles, many blocks) or
		// block-major gives the same bits; it only shortens loop overhead.
		if half < n/size {
			for k, wk := range w {
				for i := k; i < n; i += size {
					a := x[i]
					b := x[i+half] * wk
					x[i] = a + b
					x[i+half] = a - b
				}
			}
			continue
		}
		for start := 0; start < n; start += size {
			lo := x[start : start+half]
			hi := x[start+half : start+size]
			for k, wk := range w {
				a := lo[k]
				b := hi[k] * wk
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// dct2 overwrites x (len p.n) with its DCT-II, with v (len p.n) as the FFT
// buffer.
func (p *plan) dct2(x []float64, v []complex128) {
	n := p.n
	if n == 1 {
		return
	}
	// Makhoul's reordering: v_n = x_{2n}, v_{N-1-n} = x_{2n+1}.
	for i := 0; i < n/2; i++ {
		v[i] = complex(x[2*i], 0)
		v[n-1-i] = complex(x[2*i+1], 0)
	}
	p.fft(v, false)
	for k := range x[:n] {
		x[k] = real(v[k])*p.cos[k] + imag(v[k])*p.sin[k]
	}
}

// dct3 overwrites x (len p.n) with its DCT-III, with v (len p.n) as the FFT
// buffer.
func (p *plan) dct3(x []float64, v []complex128) {
	n := p.n
	if n == 1 {
		x[0] /= 2
		return
	}
	// Invert the DCT-II FFT path: V_k = e^{iθ_k}(X_k − i·X_{N−k}), V_0 = X_0,
	// v = IFFT(V), un-reorder, and scale by N/2 to match the DCT-III
	// convention (the FFT path computes the exact inverse of DCT2).
	// The IFFT's 1/N factor is applied to the real parts only: the
	// imaginary parts are never read.
	v[0] = complex(x[0], 0)
	for k := 1; k < n; k++ {
		v[k] = complex(p.cos[k], p.sin[k]) * complex(x[k], -x[n-k])
	}
	p.fft(v, true)
	nf := float64(n)
	half := nf / 2
	for i := 0; i < n/2; i++ {
		x[2*i] = real(v[i]) / nf * half
		x[2*i+1] = real(v[n-1-i]) / nf * half
	}
}
