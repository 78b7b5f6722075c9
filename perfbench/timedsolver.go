package main

import (
	"sync"
	"time"

	"subcouple/internal/solver"
)

// timedSolver measures the black-box layer from outside: it implements
// solver.Solver, solver.BatchSolver and solver.WorkerSetter, forwards every
// call to the real solver (batches through solver.Parallel, exactly the
// chain core.Extract builds for a bare solver) and times each call. Each
// call becomes one span whose parent is the enclosing extraction span;
// spans stay in memory until the run writes them out.
type timedSolver struct {
	base  solver.Solver
	inner solver.BatchSolver

	mu     sync.Mutex
	epoch  time.Time
	cur    solverStats
	parent int // id of the open extraction span
	spans  []span
}

// solverStats are one extraction's black-box figures.
type solverStats struct {
	busy    float64 // seconds inside the black box
	calls   int     // Solve + SolveBatch invocations
	vectors int     // right-hand sides answered
}

// span is one recorded interval. Extraction spans have Parent 0; a solve
// span's Parent is the extraction it belongs to, and Extraction is the id
// shared by every span of one extraction.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Extraction int     `json:"extraction"`
	Name       string  `json:"name"`
	StartUS    float64 `json:"start_us"`
	EndUS      float64 `json:"end_us"`
	RHS        int     `json:"rhs,omitempty"`
}

func newTimedSolver(s solver.Solver) *timedSolver {
	return &timedSolver{base: s, inner: solver.Parallel(s, 0), epoch: time.Now()}
}

func (t *timedSolver) N() int { return t.base.N() }

// SetWorkers implements solver.WorkerSetter by rebuilding the fan-out with
// the requested worker count.
func (t *timedSolver) SetWorkers(w int) { t.inner = solver.Parallel(t.base, w) }

func (t *timedSolver) Solve(v []float64) ([]float64, error) {
	t0 := time.Now()
	y, err := t.base.Solve(v)
	t.record("solver/solve", t0, 1)
	return y, err
}

func (t *timedSolver) SolveBatch(vs [][]float64) ([][]float64, error) {
	t0 := time.Now()
	ys, err := t.inner.SolveBatch(vs)
	t.record("solver/solve_batch", t0, len(vs))
	return ys, err
}

func (t *timedSolver) record(name string, t0 time.Time, rhs int) {
	t1 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.busy += t1.Sub(t0).Seconds()
	t.cur.calls++
	t.cur.vectors += rhs
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.parent, Extraction: t.parent, Name: name,
		StartUS: t.us(t0), EndUS: t.us(t1), RHS: rhs,
	})
}

func (t *timedSolver) us(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3 }

// begin opens an extraction span; end closes it and returns the
// extraction's black-box figures.
func (t *timedSolver) begin(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = solverStats{}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, StartUS: t.us(time.Now())})
	t.parent = len(t.spans)
	t.spans[t.parent-1].Extraction = t.parent
}

func (t *timedSolver) end() solverStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.parent-1].EndUS = t.us(time.Now())
	t.parent = 0
	return t.cur
}
