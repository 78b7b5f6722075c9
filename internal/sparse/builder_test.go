package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameBits fails unless a and b have identical structure and bitwise
// identical values.
func sameBits(t *testing.T, what string, a, b *Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) || len(a.ColIdx) != len(b.ColIdx) {
		t.Fatalf("%s: %dx%d nnz %d vs %dx%d nnz %d", what, a.Rows, a.Cols, len(a.Val), b.Rows, b.Cols, len(b.Val))
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] %d vs %d", what, i, a.RowPtr[i], b.RowPtr[i])
		}
	}
	for k := range a.Val {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			t.Fatalf("%s: entry %d (%d, %v) vs (%d, %v)", what, k, a.ColIdx[k], a.Val[k], b.ColIdx[k], b.Val[k])
		}
	}
}

// mapOracle is the set-semantics entry store the builder replaces: a map
// keyed by i·n+j, turned into CSR through FromTriplets.
type mapOracle struct {
	n int
	m map[int64]float64
}

func (o *mapOracle) put(i, j int, v float64) {
	o.m[int64(i)*int64(o.n)+int64(j)] = v
	o.m[int64(j)*int64(o.n)+int64(i)] = v
}

func (o *mapOracle) matrix() *Matrix {
	ts := make([]Triplet, 0, len(o.m))
	for k, v := range o.m {
		ts = append(ts, Triplet{Row: int(k / int64(o.n)), Col: int(k % int64(o.n)), Val: v})
	}
	return FromTriplets(o.n, o.n, ts)
}

// TestSymmetricBuilderMatchesMapOracle drives the builder and the map
// oracle with the same random put sequences — overwrites in both
// orientations, diagonal puts, exact zeros (which must drop, also when
// they overwrite a nonzero), rows never written — and requires bitwise
// equal CSR output with sorted columns.
func TestSymmetricBuilderMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		b := NewSymmetricBuilder(n)
		o := &mapOracle{n: n, m: map[int64]float64{}}
		// Only the first `live` rows are ever written, so later rows stay
		// empty on most trials.
		live := 1 + rng.Intn(n)
		puts := rng.Intn(4 * n * n)
		var last [2]int
		for p := 0; p < puts; p++ {
			i, j := rng.Intn(live), rng.Intn(live)
			switch rng.Intn(6) {
			case 0:
				j = i // diagonal
			case 1:
				i, j = last[1], last[0] // overwrite the previous put's twin
			case 2:
				i, j = last[0], last[1] // overwrite the previous put
			}
			v := float64(rng.Intn(7) - 3) // small integers: many zeros and equal values
			if rng.Intn(3) == 0 {
				v = rng.NormFloat64()
			}
			if rng.Intn(20) == 0 {
				v = math.Copysign(0, -1)
			}
			b.Put(i, j, v)
			o.put(i, j, v)
			last = [2]int{i, j}
		}
		got := b.Matrix()
		sameBits(t, "builder vs map oracle", got, o.matrix())
		for r := 0; r < n; r++ {
			cols := got.ColIdx[got.RowPtr[r]:got.RowPtr[r+1]]
			if !sort.IntsAreSorted(cols) {
				t.Fatalf("row %d columns not sorted: %v", r, cols)
			}
		}
		for _, v := range got.Val {
			if v == 0 {
				t.Fatal("exact zero stored")
			}
		}
	}
}

func TestSymmetricBuilderLastWriteWins(t *testing.T) {
	b := NewSymmetricBuilder(3)
	b.Put(0, 2, 1)
	b.Put(2, 0, 5) // overwrites both (2,0) and (0,2)
	b.Put(1, 1, 4)
	b.Put(1, 1, 0) // a zero overwrite deletes the entry
	b.Put(0, 1, 3)
	m := b.Matrix()
	if m.At(0, 2) != 5 || m.At(2, 0) != 5 || m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("wrong values: %v %v %v %v", m.At(0, 2), m.At(2, 0), m.At(0, 1), m.At(1, 0))
	}
	if m.At(1, 1) != 0 || m.NNZ() != 4 {
		t.Fatalf("zero overwrite kept: nnz=%d", m.NNZ())
	}
}

func TestSymmetricBuilderRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Put did not panic")
		}
	}()
	NewSymmetricBuilder(3).Put(1, 3, 1)
}

// TestFromTripletsSumsDuplicatesInInputOrder pins the documented summation
// order with 3-way duplicates, where floating-point addition is not
// associative: ((0+a)+b)+c in input order, wherever the duplicates sit.
func TestFromTripletsSumsDuplicatesInInputOrder(t *testing.T) {
	a, b, c := 1e16, -1e16, 1.0 // (a+b)+c = 1, but (a+c)+b = 0
	for _, ts := range [][]Triplet{
		{{1, 1, a}, {0, 2, 7}, {1, 1, b}, {1, 1, c}},
		{{1, 1, a}, {1, 1, b}, {2, 0, 7}, {1, 1, c}, {0, 0, 2}},
	} {
		m := FromTriplets(3, 3, ts)
		if got := m.At(1, 1); got != (a+b)+c {
			t.Fatalf("3-way duplicate summed to %v, want input-order %v", got, (a+b)+c)
		}
	}
	rev := FromTriplets(3, 3, []Triplet{{1, 1, a}, {1, 1, c}, {1, 1, b}})
	if got := rev.At(1, 1); got != (a+c)+b {
		t.Fatalf("3-way duplicate summed to %v, want input-order %v", got, (a+c)+b)
	}
	// Long inputs, where an unstable sort would reorder duplicates: every
	// entry must equal its input-order running sum.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		var ts []Triplet
		want := map[[2]int]float64{}
		for p := 0; p < 300; p++ {
			tr := Triplet{rng.Intn(4), rng.Intn(4), []float64{a, b, c}[rng.Intn(3)] * float64(1+rng.Intn(3))}
			ts = append(ts, tr)
			want[[2]int{tr.Row, tr.Col}] += tr.Val
		}
		m := FromTriplets(4, 4, ts)
		for key, v := range want {
			if got := m.At(key[0], key[1]); math.Float64bits(got) != math.Float64bits(v) && !(v == 0 && got == 0) {
				t.Fatalf("entry %v summed to %v, want input-order %v", key, got, v)
			}
		}
	}
}

// sortCutoff is the cutoff the threshold used to find by a full sort.
func sortCutoff(abs []float64, k int) float64 {
	s := append([]float64(nil), abs...)
	sort.Float64s(s)
	return s[k]
}

// TestSelectAscendingMatchesSort checks the selection cutoff against the
// sorted one at every index, on heavily tied inputs (a handful of distinct
// magnitudes, all equal, NaNs mixed in) as well as distinct values.
func TestSelectAscendingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gen := map[string]func(n int) []float64{
		"distinct": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = math.Abs(rng.NormFloat64())
			}
			return a
		},
		"three-values": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(rng.Intn(3))
			}
			return a
		},
		"all-equal": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = 0.25
			}
			return a
		},
		"sorted-ties": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(i / 7)
			}
			return a
		},
		"nan-and-ties": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				switch rng.Intn(4) {
				case 0:
					a[i] = math.NaN()
				case 1:
					a[i] = math.Inf(1)
				default:
					a[i] = float64(rng.Intn(2))
				}
			}
			return a
		},
	}
	for name, g := range gen {
		for _, n := range []int{1, 2, 5, 16, 17, 40, 333} {
			a := g(n)
			for k := 0; k < n; k++ {
				want := sortCutoff(a, k)
				got := selectAscending(append([]float64(nil), a...), k)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s n=%d k=%d: select %v, sort %v", name, n, k, got, want)
				}
			}
		}
	}
}

// thresholdBySort is the sort-based ThresholdForSparsity the selection
// version replaced, kept verbatim in its essentials as the oracle.
func thresholdBySort(m *Matrix, target float64) *Matrix {
	if m.Sparsity() >= target || m.NNZ() == 0 {
		return m
	}
	abs := make([]float64, len(m.Val))
	for i, v := range m.Val {
		abs[i] = math.Abs(v)
	}
	sort.Float64s(abs)
	k := int(float64(m.Rows) * float64(m.Cols) / target)
	if k < 1 {
		k = 1
	}
	if k >= len(abs) {
		return m
	}
	t := abs[len(abs)-k]
	above := 0
	for _, a := range abs[len(abs)-k:] {
		if a > t {
			above++
		}
	}
	budget := k - above
	keepTie := make(map[[2]int]bool)
	for r := 0; r < m.Rows && budget > 0; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1] && budget > 0; p++ {
			c := m.ColIdx[p]
			if math.Abs(m.Val[p]) != t {
				continue
			}
			twin := r != c && c < m.Rows && r < m.Cols && math.Abs(m.At(c, r)) == t
			if twin && r > c {
				continue
			}
			unit := 1
			if twin {
				unit = 2
			}
			if budget < unit {
				continue
			}
			keepTie[[2]int{r, c}] = true
			if twin {
				keepTie[[2]int{c, r}] = true
			}
			budget -= unit
		}
	}
	var ts []Triplet
	for r := 0; r < m.Rows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			a := math.Abs(m.Val[p])
			if a > t || (a == t && keepTie[[2]int{r, m.ColIdx[p]}]) {
				ts = append(ts, Triplet{r, m.ColIdx[p], m.Val[p]})
			}
		}
	}
	return FromTriplets(m.Rows, m.Cols, ts)
}

// TestThresholdForSparsityMatchesSortOracle compares the whole threshold
// against the sort-based oracle on symmetric and non-symmetric, square and
// rectangular matrices whose values come from a few magnitudes of either
// sign, so the cutoff almost always ties.
func TestThresholdForSparsityMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		symmetric := trial%2 == 0
		if symmetric {
			cols = rows
		}
		distinct := 1 + rng.Intn(4)
		val := func() float64 { return float64(rng.Intn(distinct)+1) * float64(1-2*rng.Intn(2)) }
		var ts []Triplet
		if symmetric {
			b := NewSymmetricBuilder(rows)
			for p := rng.Intn(rows * rows); p > 0; p-- {
				b.Put(rng.Intn(rows), rng.Intn(rows), val())
			}
			m := b.Matrix()
			for r := 0; r < rows; r++ {
				for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
					ts = append(ts, Triplet{r, m.ColIdx[p], m.Val[p]})
				}
			}
		} else {
			seen := map[[2]int]bool{}
			for p := rng.Intn(rows * cols); p > 0; p-- {
				r, c := rng.Intn(rows), rng.Intn(cols)
				if !seen[[2]int{r, c}] {
					seen[[2]int{r, c}] = true
					ts = append(ts, Triplet{r, c, val()})
				}
			}
		}
		m := FromTriplets(rows, cols, ts)
		target := 1 + 6*rng.Float64()
		sameBits(t, "selection vs sort threshold", m.ThresholdForSparsity(target), thresholdBySort(m, target))
	}
}
