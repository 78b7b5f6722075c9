package lowrank

import (
	"sort"

	"subcouple/internal/model"
	"subcouple/internal/par"
	"subcouple/internal/quadtree"
	"subcouple/internal/sparse"
)

// assembleGw fills the kept entries of Gw (§4.4.1): interactions between
// fast-decaying T columns in squares local to each other (same-level and
// the conservative cross-level ancestor rule), plus the level-2
// slow-decaying U columns against everything.
func (tr *Transformed) assembleGw(level2 map[int]*sweepSquare) {
	r := tr.Rep
	n := r.Layout.N()
	asp := r.Opt.Rec.Begin("lowrank/gw_assembly").Arg("n", n)
	defer asp.End()
	em := sparse.NewSymmetricBuilder(n)
	// Per-square entry lists are computed on the worker pool and written
	// into the builder serially in square order, so the set-semantics
	// overwrites resolve the same way for any worker count.
	type gwEntry struct {
		i, j int
		v    float64
	}

	// T blocks: for each square s at each level, the D_s matrix provides
	// responses at local contacts; dot with the T columns of s's local
	// squares and all of their descendants.
	for lev := 2; lev <= r.Tree.MaxLevel; lev++ {
		states := tr.sweepStates[lev]
		squares := r.Tree.SquaresAt(lev)
		lists := make([][]gwEntry, len(squares))
		lsp := asp.Child("lowrank/gw_level").Arg("level", lev).Arg("squares", len(squares))
		par.DoWorker(r.Opt.Workers, len(squares), func(worker, si int) {
			sq := squares[si]
			ss := states[sq.ID]
			if ss == nil || ss.T.Cols == 0 {
				return
			}
			ssp := lsp.ChildOn(worker+1, "lowrank/gw_square").Arg("square", sq.ID)
			targets := tr.targetColumns(sq, lev)
			list := make([]gwEntry, 0, ss.T.Cols*len(targets))
			for m := 0; m < ss.T.Cols; m++ {
				cj := tr.tCols[lev][sq.ID][m]
				dcol := ss.D.Col(m) // T columns come first in D
				for _, ti := range targets {
					list = append(list, gwEntry{ti, cj, tr.dotAgainstLocal(ti, dcol, ss.lIndex)})
				}
			}
			lists[si] = list
			ssp.Arg("entries", len(list)).End()
		})
		lsp.End()
		for _, list := range lists {
			for _, e := range list {
				em.Put(e.i, e.j, e.v)
			}
		}
	}

	// Level-2 U columns interact with everything: full responses are
	// available because P_s covers the whole surface at level 2.
	l2squares := r.Tree.SquaresAt(2)
	ulists := make([][]gwEntry, len(l2squares))
	usp := asp.Child("lowrank/gw_u_block").Arg("squares", len(l2squares))
	par.DoWorker(r.Opt.Workers, len(l2squares), func(worker, si int) {
		sq := l2squares[si]
		ss := level2[sq.ID]
		if ss == nil {
			return
		}
		ssp := usp.ChildOn(worker+1, "lowrank/gw_square").Arg("square", sq.ID)
		defer ssp.End()
		base := 0
		for _, ui := range tr.uCols {
			if tr.Cols[ui].Square == sq {
				base = ui - tr.Cols[ui].M
				break
			}
		}
		var list []gwEntry
		for m := 0; m < ss.U.Cols; m++ {
			full := make([]float64, n)
			// Local part from D (U columns follow the T block).
			for i, c := range ss.lContacts {
				full[c] += ss.D.At(i, ss.T.Cols+m)
			}
			// Interactive part via (4.16).
			u := ss.U.Col(m)
			for _, dsq := range r.Tree.Interactive(sq) {
				d := r.at(2, dsq.ID)
				if d == nil {
					continue
				}
				resp := r.approxGds(d, ss.sd, u)
				for i, c := range dsq.Contacts {
					full[c] += resp[i]
				}
			}
			cj := base + m
			for ci := range tr.Cols {
				list = append(list, gwEntry{ci, cj, tr.colDot(ci, full)})
			}
		}
		ulists[si] = list
	})
	usp.End()
	for _, list := range ulists {
		for _, e := range list {
			em.Put(e.i, e.j, e.v)
		}
	}
	tr.Gw = em.Matrix()
}

// dotAgainstLocal computes qᵢᵀ·(G·t) where the response G·t is known at the
// local-contact rows indexed by lIndex. Column ci's support must lie inside
// that region (guaranteed by the target enumeration).
func (tr *Transformed) dotAgainstLocal(ci int, dcol []float64, lIndex map[int]int) float64 {
	var s float64
	for _, e := range tr.colVecs[ci] {
		row, ok := lIndex[e.row]
		if !ok {
			panic("lowrank: target column support escapes the local region")
		}
		s += e.val * dcol[row]
	}
	return s
}

// targetColumns lists the T columns at levels >= lev whose level-lev
// ancestor square is local to s.
func (tr *Transformed) targetColumns(s *quadtree.Square, lev int) []int {
	var out []int
	for _, q := range tr.Rep.Tree.Local(s) {
		var rec func(sq *quadtree.Square)
		rec = func(sq *quadtree.Square) {
			out = append(out, tr.tCols[sq.Level][sq.ID]...)
			for _, c := range tr.Rep.Tree.Children(sq) {
				rec(c)
			}
		}
		rec(q)
	}
	sort.Ints(out)
	return out
}

// N returns the basis dimension.
func (tr *Transformed) N() int { return tr.Rep.Layout.N() }

// colDot returns the inner product of Q column idx with a dense vector.
func (tr *Transformed) colDot(idx int, y []float64) float64 {
	var s float64
	for _, e := range tr.colVecs[idx] {
		s += e.val * y[e.row]
	}
	return s
}

// colAdd accumulates Q column idx scaled into y.
func (tr *Transformed) colAdd(idx int, scale float64, y []float64) {
	for _, e := range tr.colVecs[idx] {
		y[e.row] += scale * e.val
	}
}

// ColVector materializes Q column idx.
func (tr *Transformed) ColVector(idx int) []float64 {
	v := make([]float64, tr.N())
	tr.colAdd(idx, 1, v)
	return v
}

// Q materializes the change-of-basis matrix with columns ordered: level-2 U
// block first, then T blocks level by level coarse to fine, squares in
// quadrant-hierarchical order (matching the thesis spy plots).
func (tr *Transformed) Q() *sparse.Matrix {
	order := tr.ColumnOrder()
	var ts []sparse.Triplet
	for newIdx, oldIdx := range order {
		for _, e := range tr.colVecs[oldIdx] {
			ts = append(ts, sparse.Triplet{Row: e.row, Col: newIdx, Val: e.val})
		}
	}
	return sparse.FromTriplets(tr.N(), tr.N(), ts)
}

// ColumnOrder returns the presentation order of columns.
func (tr *Transformed) ColumnOrder() []int {
	var order []int
	order = append(order, tr.uCols...)
	for lev := 2; lev <= tr.Rep.Tree.MaxLevel; lev++ {
		for _, s := range tr.Rep.Tree.QuadrantOrder(lev) {
			order = append(order, tr.tCols[lev][s.ID]...)
		}
	}
	return order
}

// GwReordered returns Gw with rows and columns permuted into the
// presentation order used by Q() (for spy plots).
func (tr *Transformed) GwReordered(gw *sparse.Matrix) *sparse.Matrix {
	order := tr.ColumnOrder()
	pos := make([]int, len(order))
	for newIdx, oldIdx := range order {
		pos[oldIdx] = newIdx
	}
	var ts []sparse.Triplet
	for rIdx := 0; rIdx < gw.Rows; rIdx++ {
		for k := gw.RowPtr[rIdx]; k < gw.RowPtr[rIdx+1]; k++ {
			ts = append(ts, sparse.Triplet{Row: pos[rIdx], Col: pos[gw.ColIdx[k]], Val: gw.Val[k]})
		}
	}
	return sparse.FromTriplets(gw.Rows, gw.Cols, ts)
}

// Apply computes Q·Gw·Qᵀ·x for a given (possibly thresholded) Gw.
func (tr *Transformed) Apply(gw *sparse.Matrix, x []float64) []float64 {
	u := make([]float64, tr.N())
	for c := range tr.Cols {
		u[c] = tr.colDot(c, x)
	}
	w := gw.MulVec(u)
	out := make([]float64, tr.N())
	for c, wc := range w {
		if wc != 0 {
			tr.colAdd(c, wc, out)
		}
	}
	return out
}

// ApproxColumn returns column j of Q·Gw·Qᵀ.
func (tr *Transformed) ApproxColumn(gw *sparse.Matrix, j int) []float64 {
	x := make([]float64, tr.N())
	x[j] = 1
	return tr.Apply(gw, x)
}

// ExportColumns flattens the per-column sparse vectors of Q into the
// serializable CSC form of internal/model, preserving the per-column entry
// order exactly — a model.Engine's apply loops then reproduce Apply's
// accumulation order bit for bit.
func (tr *Transformed) ExportColumns() *model.Columns {
	colPtr := make([]int, len(tr.colVecs)+1)
	for i, es := range tr.colVecs {
		colPtr[i+1] = colPtr[i] + len(es)
	}
	nnz := colPtr[len(tr.colVecs)]
	rowIdx := make([]int, 0, nnz)
	vals := make([]float64, 0, nnz)
	for _, es := range tr.colVecs {
		for _, e := range es {
			rowIdx = append(rowIdx, e.row)
			vals = append(vals, e.val)
		}
	}
	return &model.Columns{ColPtr: colPtr, RowIdx: rowIdx, Val: vals}
}
