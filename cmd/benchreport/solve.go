package main

import (
	"runtime"
	"time"

	"subcouple/internal/bem"
	"subcouple/internal/dct"
	"subcouple/internal/metrics"
)

// timeSolveLayers prices the extraction hot path layer by layer on the
// case's live solver, so that extraction time decomposes as solves × CG
// iterations × per-iteration cost:
//
//   - DCT2D: one np×np 2-D DCT-II, the operator's dominant kernel (each CG
//     iteration runs a masked forward and inverse pair);
//   - BemSolve: one black-box solve, a unit voltage on a fixed sample of
//     contacts, with its mean CG iterations;
//   - BemCGIter: derived, BemSolve's time over its mean iterations.
//
// DCT2D and BemSolve report heap allocations per op after a warm-up.
func timeSolveLayers(s *bem.Solver, np, reps int) []benchRow {
	field := make([]float64, np*np)
	src := make([]float64, len(field))
	for i := range src {
		src[i] = float64(i%17) - 8
	}
	dct2d := func() {
		copy(field, src)
		dct.DCT2D2(field, np, np)
	}

	n := s.N()
	probes := metrics.SampleColumns(n, 8)
	v := make([]float64, n)
	solve := func() {
		for _, j := range probes {
			clear(v)
			v[j] = 1
			if _, err := s.Solve(v); err != nil {
				panic(err) // the extraction rows already ran these solves
			}
		}
	}

	dBest, dMean := sampleOp(reps, 200, dct2d)
	dAllocs := allocsPerOp(200, dct2d)
	k := float64(len(probes))
	sBest, sMean := sampleOp(reps, 1, solve)
	sAllocs := allocsPerOp(1, solve) / k
	s.ResetStats()
	solve()
	iters := s.AvgIterations()

	return []benchRow{
		{Name: "DCT2D", Method: "dct", Workers: 1, Reps: reps,
			SecondsPerOp: dBest, MeanSeconds: dMean, AllocsPerOp: &dAllocs},
		{Name: "BemSolve", Method: "bem", Workers: 1, Reps: reps,
			SecondsPerOp: sBest / k, MeanSeconds: sMean / k, Solves: 1,
			CGIters: iters, AllocsPerOp: &sAllocs},
		{Name: "BemCGIter", Method: "bem", Workers: 1, Reps: reps,
			SecondsPerOp: sBest / k / iters, MeanSeconds: sMean / k / iters},
	}
}

// sampleOp times reps samples of iters calls of op after one warm-up call
// (so steady state is what gets timed) and returns the best and mean
// per-call seconds.
func sampleOp(reps, iters int, op func()) (best, mean float64) {
	op()
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		d := time.Since(start).Seconds() / float64(iters)
		if r == 0 || d < best {
			best = d
		}
		mean += d / float64(reps)
	}
	return best, mean
}

// allocsPerOp is the mean number of heap allocations of one op() after a
// warm-up call.
func allocsPerOp(iters int, op func()) float64 {
	op()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}
