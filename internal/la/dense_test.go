package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func maxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var mx float64
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestAtSetRowCol(t *testing.T) {
	m := NewDense(3, 4)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2)=%v want 5", m.At(1, 2))
	}
	if m.Row(1)[2] != 5 {
		t.Fatalf("Row view broken")
	}
	col := m.Col(2)
	if col[1] != 5 || col[0] != 0 || col[2] != 0 {
		t.Fatalf("Col copy broken: %v", col)
	}
	m.SetCol(0, []float64{1, 2, 3})
	if m.At(2, 0) != 3 {
		t.Fatalf("SetCol broken")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := randDense(rng, r, c)
		if d := maxAbsDiff(m, m.T().T()); d != 0 {
			t.Fatalf("T∘T != id, diff %g", d)
		}
	}
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7)
		a, b := randDense(rng, m, k), randDense(rng, k, n)
		got := Mul(a, b)
		want := NewDense(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for l := 0; l < k; l++ {
					s += a.At(i, l) * b.At(l, j)
				}
				want.Set(i, j, s)
			}
		}
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("Mul mismatch %g", d)
		}
	}
}

func TestMulTAMulTB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randDense(rng, 6, 4), randDense(rng, 6, 5)
	if d := maxAbsDiff(MulTA(a, b), Mul(a.T(), b)); d > 1e-12 {
		t.Fatalf("MulTA mismatch %g", d)
	}
	c := randDense(rng, 5, 4)
	e := randDense(rng, 7, 4)
	if d := maxAbsDiff(MulTB(c, e), Mul(c, e.T())); d > 1e-12 {
		t.Fatalf("MulTB mismatch %g", d)
	}
}

func TestMulVecAndT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 5, 3)
	x := []float64{1, -2, 0.5}
	got := a.MulVec(x)
	for i := 0; i < 5; i++ {
		want := Dot(a.Row(i), x)
		if math.Abs(got[i]-want) > 1e-14 {
			t.Fatalf("MulVec row %d", i)
		}
	}
	y := []float64{1, 2, 3, 4, 5}
	gt := a.MulVecT(y)
	wt := a.T().MulVec(y)
	for i := range gt {
		if math.Abs(gt[i]-wt[i]) > 1e-12 {
			t.Fatalf("MulVecT col %d", i)
		}
	}
}

func TestSliceAndEye(t *testing.T) {
	m := NewDense(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	s := m.Slice(1, 3, 2, 4)
	if s.Rows != 2 || s.Cols != 2 || s.At(0, 0) != 12 || s.At(1, 1) != 23 {
		t.Fatalf("Slice wrong: %+v", s)
	}
	e := Eye(3)
	if e.At(0, 0) != 1 || e.At(0, 1) != 0 {
		t.Fatalf("Eye wrong")
	}
}

func TestNorm2Robust(t *testing.T) {
	// Norm2 must not overflow/underflow on extreme scales.
	x := []float64{1e160, 1e160}
	want := math.Sqrt2 * 1e160
	if got := Norm2(x); math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 overflow: got %g want %g", got, want)
	}
	y := []float64{1e-170, 1e-170}
	if got := Norm2(y); got == 0 {
		t.Fatalf("Norm2 underflow")
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g", got)
	}
}

func TestDotAxpyScaleQuick(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		y := make([]float64, len(xs))
		copy(y, xs)
		Axpy(-1, xs, y) // y = xs - xs = 0
		for _, v := range y {
			if v != 0 {
				return false
			}
		}
		z := make([]float64, len(xs))
		copy(z, xs)
		Scale(2, z)
		for i := range z {
			if z[i] != 2*xs[i] {
				return false
			}
		}
		return Dot(xs, xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randDense(rng, 3, 5), randDense(rng, 3, 5)
	s := Sub(Add(a, b), b)
	if d := maxAbsDiff(s, a); d > 1e-14 {
		t.Fatalf("Add/Sub mismatch %g", d)
	}
}

// TestMulVecBitwiseMatchesRowDots checks the four-rows-per-pass MulVec
// against one Dot per row, bit for bit, for 1–9 rows (full passes plus
// every remainder) and several widths, with zeros and signed zeros mixed in.
func TestMulVecBitwiseMatchesRowDots(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for rows := 1; rows <= 9; rows++ {
		for _, cols := range []int{0, 1, 3, 8, 33} {
			m := randDense(rng, rows, cols)
			x := make([]float64, cols)
			for j := range x {
				x[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				switch rng.Intn(5) {
				case 0:
					x[j] = 0
				case 1:
					x[j] = math.Copysign(0, -1)
				}
			}
			got := m.MulVec(x)
			for i := 0; i < rows; i++ {
				if want := Dot(m.Row(i), x); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%dx%d row %d: MulVec %v, Dot %v", rows, cols, i, got[i], want)
				}
			}
		}
	}
}
