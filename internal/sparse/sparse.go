// Package sparse provides the compressed sparse row matrices used for the
// change-of-basis matrix Q and the transformed conductance matrix Gw
// (G ≈ Q·Gw·Qᵀ), plus thresholding — the "drop small entries of Gw" step
// that trades accuracy for sparsity in both sparsification algorithms.
//
// Matrices are built in one of two ways: FromTriplets sums duplicate
// entries in input order, and SymmetricBuilder assembles Gw with set
// semantics (a write fills (i,j) and (j,i), and the later write wins).
// Both emit column indices sorted within every row, which At relies on.
// Neither uses a map or a reflection sort, and ThresholdForSparsity finds
// its cutoff by selection rather than a full sort; builder_test.go checks
// the builder and the threshold bitwise against map-and-sort oracles.
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Triplet is one (row, col, value) entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Matrix is a CSR sparse matrix.
type Matrix struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// FromTriplets builds a CSR matrix, summing duplicate entries and dropping
// exact zeros. Duplicates of one (row, col) are summed in their input
// order, starting from zero (construction sorts stably by row, then
// column). The caller's slice is left untouched: construction sorts a
// private copy, so ts can be reused (or concurrently read) afterwards.
func FromTriplets(rows, cols int, ts []Triplet) *Matrix {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("sparse: triplet (%d,%d) out of %dx%d", t.Row, t.Col, rows, cols))
		}
	}
	ts = slices.Clone(ts)
	slices.SortStableFunc(ts, func(a, b Triplet) int {
		if c := cmp.Compare(a.Row, b.Row); c != 0 {
			return c
		}
		return cmp.Compare(a.Col, b.Col)
	})
	m := &Matrix{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(ts); {
		j := i
		v := 0.0
		for j < len(ts) && ts[j].Row == ts[i].Row && ts[j].Col == ts[i].Col {
			v += ts[j].Val
			j++
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, ts[i].Col)
			m.Val = append(m.Val, v)
			m.RowPtr[ts[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int { return len(m.Val) }

// Sparsity returns the thesis's sparsity factor: total entries over
// nonzeros (Table 3.1: "the ratio of n² to the number of nonzeros").
func (m *Matrix) Sparsity() float64 {
	if m.NNZ() == 0 {
		return math.Inf(1)
	}
	return float64(m.Rows) * float64(m.Cols) / float64(m.NNZ())
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.Rows)
	m.MulVecInto(y, x)
	return y
}

// MulVecInto computes y = m·x in place; y must have length m.Rows and may
// not alias x. Row sums accumulate in CSR order, so the result is bitwise
// identical to MulVec.
func (m *Matrix) MulVecInto(y, x []float64) {
	if len(x) != m.Cols {
		panic("sparse: MulVec dimension mismatch")
	}
	if len(y) != m.Rows {
		panic("sparse: MulVecInto output length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		var s float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[r] = s
	}
}

// MulVecT returns mᵀ·x.
func (m *Matrix) MulVecT(x []float64) []float64 {
	y := make([]float64, m.Cols)
	m.MulVecTInto(y, x)
	return y
}

// MulVecTInto computes y = mᵀ·x in place; y must have length m.Cols and may
// not alias x. The accumulation order matches MulVecT exactly, so the result
// is bitwise identical.
func (m *Matrix) MulVecTInto(y, x []float64) {
	if len(x) != m.Rows {
		panic("sparse: MulVecT dimension mismatch")
	}
	if len(y) != m.Cols {
		panic("sparse: MulVecTInto output length mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			y[m.ColIdx[k]] += m.Val[k] * xr
		}
	}
}

// Threshold returns a copy with entries |v| < t dropped.
func (m *Matrix) Threshold(t float64) *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if math.Abs(m.Val[k]) >= t {
				out.ColIdx = append(out.ColIdx, m.ColIdx[k])
				out.Val = append(out.Val, m.Val[k])
				out.RowPtr[r+1]++
			}
		}
	}
	for r := 0; r < m.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out
}

// ThresholdForSparsity keeps at most the k = rows·cols/target
// largest-magnitude entries, so the result's sparsity factor rows·cols/nnz
// is at least target. This is how the thesis builds Gwt ("the truncation
// threshold [chosen] so that Gwt would be approximately 6 times sparser").
//
// Entries with magnitude strictly above the cutoff abs[len-k] (abs holds
// the magnitudes in ascending order; the cutoff is found by selection) are
// always kept. Entries tying the cutoff — pervasive here, because the
// extraction writes every off-diagonal Gw entry together with an
// equal-valued (j,i) twin — are admitted deterministically in CSR order
// until the k-entry budget runs out, as whole (i,j)/(j,i) units whenever
// the transposed entry ties too, so a symmetric input stays symmetric.
// Keeping every tie (as a plain magnitude threshold would) can come back
// far denser than target when values repeat.
func (m *Matrix) ThresholdForSparsity(target float64) *Matrix {
	if m.Sparsity() >= target || m.NNZ() == 0 {
		return m
	}
	k := int(float64(m.Rows) * float64(m.Cols) / target)
	if k < 1 {
		k = 1
	}
	if k >= m.NNZ() {
		return m
	}
	abs := make([]float64, len(m.Val))
	for i, v := range m.Val {
		abs[i] = math.Abs(v)
	}
	t := selectAscending(abs, len(abs)-k)
	// All entries strictly above t belong to the top k; whatever remains of
	// the k-entry budget is handed out to ties on t.
	above := 0
	for _, a := range abs {
		if a > t {
			above++
		}
	}
	budget := k - above
	keepTie := make([]bool, len(m.Val)) // by CSR position
	for r := 0; r < m.Rows && budget > 0; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1] && budget > 0; p++ {
			c := m.ColIdx[p]
			if math.Abs(m.Val[p]) != t {
				continue
			}
			// A tied entry whose transposed twin also ties is admitted (or
			// not) as a unit, decided at the upper-triangle member.
			twin := r != c && c < m.Rows && r < m.Cols && math.Abs(m.At(c, r)) == t
			if twin && r > c {
				continue
			}
			unit := 1
			if twin {
				unit = 2
			}
			if budget < unit {
				continue // a later size-1 tie may still fit
			}
			keepTie[p] = true
			if twin {
				if q := m.find(c, r); q >= 0 {
					keepTie[q] = true
				}
			}
			budget -= unit
		}
	}
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for r := 0; r < m.Rows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			a := math.Abs(m.Val[p])
			if a > t || (a == t && keepTie[p]) {
				out.ColIdx = append(out.ColIdx, m.ColIdx[p])
				out.Val = append(out.Val, m.Val[p])
				out.RowPtr[r+1]++
			}
		}
	}
	for r := 0; r < m.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out
}

// selectAscending returns the value sort.Float64s would leave at a[k]
// (ascending, NaNs first), reordering a in place. It is a quickselect with
// median-of-three pivots and three-way partitions, so heavily tied inputs
// finish in a few passes; a window that keeps failing to shrink is sorted.
func selectAscending(a []float64, k int) float64 {
	lo, hi := 0, len(a) // a[k] lies in a[lo:hi]
	for tries := 2 * bits.Len(uint(len(a))); hi-lo > 16 && tries > 0; tries-- {
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// Partition a[lo:hi] into < p, == p and > p: [lo,lt), [lt,gt), [gt,hi).
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case floatLess(a[i], p):
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case floatLess(p, a[i]):
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return a[k]
		}
	}
	slices.Sort(a[lo:hi]) // same order as sort.Float64s
	return a[k]
}

// floatLess is sort.Float64s's order: NaN sorts before every number.
func floatLess(x, y float64) bool { return x < y || (math.IsNaN(x) && !math.IsNaN(y)) }

func median3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
}

// At returns entry (r,c), or zero when not stored.
func (m *Matrix) At(r, c int) float64 {
	if p := m.find(r, c); p >= 0 {
		return m.Val[p]
	}
	return 0
}

// find returns the position of stored entry (r,c), or -1. Every
// constructor (FromTriplets, SymmetricBuilder, Threshold,
// ThresholdForSparsity, Symmetrize) emits column indices sorted within
// each row, so the lookup is a binary search.
func (m *Matrix) find(r, c int) int {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	row := m.ColIdx[lo:hi]
	if k := sort.SearchInts(row, c); k < len(row) && row[k] == c {
		return lo + k
	}
	return -1
}

// Symmetrize returns (m + mᵀ)/2; useful after extraction procedures that
// fill the two triangles from different approximations.
func (m *Matrix) Symmetrize() *Matrix {
	if m.Rows != m.Cols {
		panic("sparse: Symmetrize requires a square matrix")
	}
	var ts []Triplet
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			ts = append(ts, Triplet{r, m.ColIdx[k], m.Val[k] / 2})
			ts = append(ts, Triplet{m.ColIdx[k], r, m.Val[k] / 2})
		}
	}
	return FromTriplets(m.Rows, m.Cols, ts)
}

// MaxAbs returns the largest absolute stored value (0 when empty).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Val {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
