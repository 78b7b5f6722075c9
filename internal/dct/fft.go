// Package dct provides the discrete transforms used by subcouple's substrate
// solvers: a radix-2 complex FFT, fast DCT-II / DCT-III in one and two
// dimensions, and a Thomas tridiagonal solver.
//
// The fast-Poisson-solver preconditioner of the finite-difference solver
// (thesis §2.2.2) diagonalizes the grid-of-resistors operator in the DCT
// basis, and the eigenfunction surface solver (thesis §2.3.1, Fig 2-6)
// applies the current-to-potential operator as DCT → eigenvalue scaling →
// inverse DCT, twice per conjugate-gradient iteration — the extraction hot
// path.
//
// Plans. Every power-of-two length n has one plan, built lazily on first use
// and shared through a lock-free cache: the DCT pre/post twiddles
// cos/sin(πk/2n), the per-stage FFT twiddle tables of both directions, the
// bit-reversal transpositions, and a free list of scratch buffers. FFT,
// IFFT, DCT2, DCT3 and the 2-D transforms all run through it; the 2-D
// transforms allocate nothing in steady state. Other lengths take the
// direct O(n²) sums, which are also the reference the tests check against.
//
// Bitwise contract. A plan caches values, never rewrites arithmetic: each
// twiddle is computed by the same expression as an uncached transform would
// (stage twiddles by the same w *= wstep recurrence), and every transform
// performs the same floating-point operations in the same order. Outputs
// are therefore bit-for-bit those of the uncached radix-2 path, which the
// tests pin against a copy of it.
//
// Masks. Masked2D runs a 2-D transform restricted by a Mask: row transforms
// of rows declared all-zero are skipped (a DCT of +0s is +0s, bit for bit),
// and column transforms whose results are never read are skipped. The
// passes keep their order (all rows, then columns), so every value that is
// computed is bitwise the unmasked one. DCT2D2 and DCT2D3 are the nil-mask
// case.
package dct

import "fmt"

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the in-place forward discrete Fourier transform of x,
// X_k = Σ_n x_n e^{-2πi kn/N}. len(x) must be a power of two.
func FFT(x []complex128) { fft(x, false) }

// IFFT computes the in-place inverse DFT of x (including the 1/N factor).
func IFFT(x []complex128) {
	fft(x, true)
	n := float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])/n, imag(x[i])/n)
	}
}

func fft(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("dct: FFT length %d is not a power of two", n))
	}
	planFor(n).fft(x, inverse)
}
