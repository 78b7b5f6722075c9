package model

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Fingerprint hashes the exact bit patterns of deterministic probe applies —
// one single-RHS ApplyInto (plus ApplyThresholdedInto when the model carries
// a thresholded Gwt) and one 3-column ApplyBatch — with FNV-1a. The probe
// vectors depend only on the contact count, so every bitwise-faithful
// serving path over the same operator (the in-memory extraction result, a
// decoded .scm artifact, a subserve daemon) reports the same value, for any
// worker count.
func (e *Engine) Fingerprint(workers int) uint64 {
	n := e.m.N
	probe := func(shift int) []float64 {
		x := make([]float64, n)
		for i := range x {
			// Pure integer arithmetic: reproducible across platforms.
			x[i] = float64((i*2654435761+shift*40503)%1024)/512 - 1
		}
		return x
	}
	h := fnv.New64a()
	var b [8]byte
	mix := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	out := make([]float64, n)
	e.ApplyInto(out, probe(0))
	mix(out)
	if e.m.Gwt != nil {
		e.ApplyThresholdedInto(out, probe(0))
		mix(out)
	}
	for _, y := range e.ApplyBatch([][]float64{probe(1), probe(2), probe(3)}, workers) {
		mix(y)
	}
	return h.Sum64()
}

// FingerprintOf computes the content fingerprint of m on a throwaway
// engine. It is the content address the serving registry keys versions by.
func FingerprintOf(m *Model, workers int) uint64 {
	return NewEngine(m).Fingerprint(workers)
}
