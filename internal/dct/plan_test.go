package dct

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The ref* functions are a verbatim copy of the transforms as they were
// before plans existed: twiddles recomputed per call, fresh slices per 1-D
// transform. The planned transforms must match them bit for bit.

func refFFT(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wstep
			}
		}
	}
	if inverse {
		nf := float64(n)
		for i := range x {
			x[i] = complex(real(x[i])/nf, imag(x[i])/nf)
		}
	}
}

func refDCT2(x []float64) []float64 {
	n := len(x)
	if n == 1 {
		return []float64{x[0]}
	}
	if !IsPow2(n) {
		return dct2Direct(x)
	}
	v := make([]complex128, n)
	for i := 0; i < n/2; i++ {
		v[i] = complex(x[2*i], 0)
		v[n-1-i] = complex(x[2*i+1], 0)
	}
	refFFT(v, false)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		theta := math.Pi * float64(k) / float64(2*n)
		out[k] = real(v[k])*math.Cos(theta) + imag(v[k])*math.Sin(theta)
	}
	return out
}

func refDCT3(x []float64) []float64 {
	n := len(x)
	if n == 1 {
		return []float64{x[0] / 2}
	}
	if !IsPow2(n) {
		return dct3Direct(x)
	}
	v := make([]complex128, n)
	v[0] = complex(x[0], 0)
	for k := 1; k < n; k++ {
		theta := math.Pi * float64(k) / float64(2*n)
		e := complex(math.Cos(theta), math.Sin(theta))
		v[k] = e * complex(x[k], -x[n-k])
	}
	refFFT(v, true)
	out := make([]float64, n)
	half := float64(n) / 2
	for i := 0; i < n/2; i++ {
		out[2*i] = real(v[i]) * half
		out[2*i+1] = real(v[n-1-i]) * half
	}
	return out
}

func refTransform2D(a []float64, nx, ny int, f func([]float64) []float64) {
	for i := 0; i < nx; i++ {
		copy(a[i*ny:(i+1)*ny], f(a[i*ny:(i+1)*ny]))
	}
	col := make([]float64, nx)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			col[i] = a[i*ny+j]
		}
		out := f(col)
		for i := 0; i < nx; i++ {
			a[i*ny+j] = out[i]
		}
	}
}

func randField(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%016x), want %v (%016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestPlannedFFTBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for n := 2; n <= 256; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := append([]complex128(nil), x...)
			refFFT(want, inverse)
			if inverse {
				IFFT(x)
			} else {
				FFT(x)
			}
			for i := range x {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("n=%d inverse=%v [%d]: %v, want %v", n, inverse, i, x[i], want[i])
				}
			}
		}
	}
}

func TestPlannedDCTBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 2; n <= 256; n++ {
		x := randField(rng, n)
		sameBits(t, "DCT2", DCT2(x), refDCT2(x))
		sameBits(t, "DCT3", DCT3(x), refDCT3(x))
	}
}

func TestPlanned2DBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, sz := range [][2]int{{1, 1}, {2, 2}, {8, 8}, {64, 64}, {8, 16}, {32, 4}, {1, 16}, {16, 1}, {6, 8}, {8, 12}} {
		nx, ny := sz[0], sz[1]
		a := randField(rng, nx*ny)
		got := append([]float64(nil), a...)
		want := append([]float64(nil), a...)
		DCT2D2(got, nx, ny)
		refTransform2D(want, nx, ny, refDCT2)
		sameBits(t, "DCT2D2", got, want)
		DCT2D3(got, nx, ny)
		refTransform2D(want, nx, ny, refDCT3)
		sameBits(t, "DCT2D3", got, want)
	}
}

// TestMaskedMatchesUnmasked: skipping the row transforms of all-zero rows
// and the column transforms of unread columns changes no bit of what is
// kept.
func TestMaskedMatchesUnmasked(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, sz := range [][2]int{{64, 64}, {16, 8}, {8, 32}, {6, 10}} {
		nx, ny := sz[0], sz[1]
		rows := make([]bool, nx)
		cols := make([]bool, ny)
		for i := range rows {
			rows[i] = rng.Intn(4) != 0
		}
		for j := range cols {
			cols[j] = rng.Intn(2) == 0
		}
		a := randField(rng, nx*ny)
		for i, keep := range rows {
			if !keep {
				clear(a[i*ny : (i+1)*ny])
			}
		}
		for _, k := range []Kind{II, III} {
			full := append([]float64(nil), a...)
			Masked2D(full, nx, ny, k, nil)
			// Zero rows skipped: every position is kept.
			got := append([]float64(nil), a...)
			Masked2D(got, nx, ny, k, &Mask{Rows: rows})
			sameBits(t, "row-masked", got, full)
			// Columns skipped: only the kept columns are defined.
			got = append([]float64(nil), a...)
			Masked2D(got, nx, ny, k, &Mask{Rows: rows, Cols: cols})
			for i := 0; i < nx; i++ {
				for j, keep := range cols {
					if keep && math.Float64bits(got[i*ny+j]) != math.Float64bits(full[i*ny+j]) {
						t.Fatalf("%dx%d kind %d: (%d,%d) = %v, want %v", nx, ny, k, i, j, got[i*ny+j], full[i*ny+j])
					}
				}
			}
		}
	}
}

func TestMaskedRejectsBadMask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on a mask of the wrong size")
		}
	}()
	Masked2D(make([]float64, 16), 4, 4, II, &Mask{Rows: make([]bool, 3)})
}

func TestDCT2DZeroAlloc(t *testing.T) {
	const n = 64
	a := randField(rand.New(rand.NewSource(34)), n*n)
	DCT2D2(a, n, n)
	DCT2D3(a, n, n)
	if got := testing.AllocsPerRun(20, func() { DCT2D2(a, n, n) }); got != 0 {
		t.Errorf("DCT2D2 %dx%d: %v allocs/op, want 0", n, n, got)
	}
	if got := testing.AllocsPerRun(20, func() { DCT2D3(a, n, n) }); got != 0 {
		t.Errorf("DCT2D3 %dx%d: %v allocs/op, want 0", n, n, got)
	}
}

// TestConcurrentTransformsBitwise runs 2-D transforms of mixed sizes from
// GOMAXPROCS goroutines (plans built and scratch shared concurrently; run
// under -race) and requires results bitwise equal to serial ones.
func TestConcurrentTransformsBitwise(t *testing.T) {
	sizes := [][2]int{{64, 64}, {32, 32}, {16, 64}, {128, 8}, {8, 8}, {12, 16}}
	rng := rand.New(rand.NewSource(35))
	inputs := make([][]float64, len(sizes))
	want := make([][]float64, len(sizes))
	for i, sz := range sizes {
		inputs[i] = randField(rng, sz[0]*sz[1])
		w := append([]float64(nil), inputs[i]...)
		refTransform2D(w, sz[0], sz[1], refDCT2)
		refTransform2D(w, sz[0], sz[1], refDCT3)
		want[i] = w
	}
	g := runtime.GOMAXPROCS(0)
	if g < 4 {
		g = 4
	}
	var wg sync.WaitGroup
	errs := make(chan string, g)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				i := (w + rep) % len(sizes)
				nx, ny := sizes[i][0], sizes[i][1]
				a := append([]float64(nil), inputs[i]...)
				DCT2D2(a, nx, ny)
				DCT2D3(a, nx, ny)
				for k := range a {
					if math.Float64bits(a[k]) != math.Float64bits(want[i][k]) {
						errs <- "concurrent transform differs from serial"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func BenchmarkDCT2D2_64(b *testing.B) {
	const n = 64
	src := randField(rand.New(rand.NewSource(36)), n*n)
	a := make([]float64, len(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(a, src)
		DCT2D2(a, n, n)
	}
}
