package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// SymmetricBuilder assembles a symmetric n×n CSR matrix from entry writes
// with set (not sum) semantics: Put(i, j, v) writes v at (i,j) and at
// (j,i), and a later write of either position replaces an earlier one, so
// the symmetric mirror never double-counts. Both sparsification algorithms
// fill Gw this way.
//
// Writes are appended to per-row logs; Matrix resolves each row by a
// stable sort on column, keeping the last write per column and dropping
// exact zeros, and emits CSR directly.
type SymmetricBuilder struct {
	n    int
	rows [][]logEntry
}

type logEntry struct {
	col int
	val float64
}

// NewSymmetricBuilder returns an empty builder for an n×n matrix.
func NewSymmetricBuilder(n int) *SymmetricBuilder {
	return &SymmetricBuilder{n: n, rows: make([][]logEntry, n)}
}

// Put sets entries (i,j) and (j,i) to v.
func (b *SymmetricBuilder) Put(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of %dx%d", i, j, b.n, b.n))
	}
	b.rows[i] = append(b.rows[i], logEntry{j, v})
	if i != j {
		b.rows[j] = append(b.rows[j], logEntry{i, v})
	}
}

// Matrix returns the assembled matrix, with sorted column indices in every
// row. It consumes the builder's logs: the builder is empty afterwards.
func (b *SymmetricBuilder) Matrix() *Matrix {
	// Pass 1 resolves every row in place and counts what it keeps, so the
	// CSR arrays are allocated once at their exact size.
	nnz := 0
	for _, row := range b.rows {
		slices.SortStableFunc(row, func(x, y logEntry) int { return cmp.Compare(x.col, y.col) })
		forLastWrites(row, func(logEntry) { nnz++ })
	}
	m := &Matrix{Rows: b.n, Cols: b.n, RowPtr: make([]int, b.n+1),
		ColIdx: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for r, row := range b.rows {
		forLastWrites(row, func(e logEntry) {
			m.ColIdx = append(m.ColIdx, e.col)
			m.Val = append(m.Val, e.val)
		})
		m.RowPtr[r+1] = len(m.Val)
		b.rows[r] = nil
	}
	return m
}

// forLastWrites calls f on the last write of each column of a
// column-sorted, otherwise write-ordered row log, skipping exact zeros.
func forLastWrites(row []logEntry, f func(logEntry)) {
	for k, e := range row {
		if k+1 < len(row) && row[k+1].col == e.col {
			continue // a later write to this column wins
		}
		if e.val != 0 {
			f(e)
		}
	}
}
