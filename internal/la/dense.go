// Package la provides the dense linear algebra used throughout subcouple:
// matrices, Householder QR with full Q accumulation, a one-sided Jacobi SVD,
// complete right-singular bases (range plus null space), Cholesky
// factorization and the usual vector kernels.
//
// Everything is written against the standard library only. The matrices in
// the substrate-coupling algorithms are either small (moment matrices,
// sampled interaction blocks) or tall-skinny, so the implementations favor
// robustness and clarity over cache blocking.
package la

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("la: invalid dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseFrom builds an r-by-c matrix from row-major data. The slice is
// used directly, not copied.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("la: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns the (i,j) element.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i,j) element.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetCol overwrites column j with v.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic("la: SetCol length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Mul returns a*b.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("la: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulTA returns aᵀ*b.
func MulTA(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic("la: MulTA dimension mismatch")
	}
	out := NewDense(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulTB returns a*bᵀ.
func MulTB(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic("la: MulTB dimension mismatch")
	}
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
	return out
}

// MulVec returns a*x. Every output is summed in column order exactly like
// Dot(m.Row(i), x), so the result is bitwise that of per-row Dots; four
// rows share each pass over x, with one accumulator per row, to overlap
// their otherwise latency-bound addition chains.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("la: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Row(i)[:len(x)]
		r1 := m.Row(i + 1)[:len(x)]
		r2 := m.Row(i + 2)[:len(x)]
		r3 := m.Row(i + 3)[:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// MulVecT returns aᵀ*x.
func (m *Dense) MulVecT(x []float64) []float64 {
	if len(x) != m.Rows {
		panic("la: MulVecT dimension mismatch")
	}
	out := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// Slice returns a copy of the submatrix with rows [r0,r1) and cols [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic("la: Slice out of range")
	}
	out := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Row(i)[c0:c1])
	}
	return out
}

// Cols2 returns a copy of columns [c0,c1).
func (m *Dense) Cols2(c0, c1 int) *Dense { return m.Slice(0, m.Rows, c0, c1) }

// Eye returns the n-by-n identity.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("la: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("la: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// MaxAbs returns the largest absolute entry of m (0 for empty).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 { return Norm2(m.Data) }

// Add returns a+b.
func Add(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("la: Add dimension mismatch")
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns a-b.
func Sub(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("la: Sub dimension mismatch")
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}
