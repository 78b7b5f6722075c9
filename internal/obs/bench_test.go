package obs

import "testing"

// The nil-receiver no-op claim in the package docs is measured here: the
// "nil" sub-benchmarks are the cost instrumented code pays when
// observability is off, the "live" ones the cost when it is on.

func BenchmarkRecorderOverhead(b *testing.B) {
	run := func(b *testing.B, r *Recorder) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Phase("p")()
			r.Add("c", 1)
			r.Observe("h", float64(i&1023))
			r.Residual("res", 1e-7)
			r.Rank("rank", i&31)
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("live", func(b *testing.B) { run(b, NewRecorder()) })
}

func BenchmarkSpanOverhead(b *testing.B) {
	run := func(b *testing.B, tr *Recorder) {
		b.ReportAllocs()
		root := tr.Begin("root")
		for i := 0; i < b.N; i++ {
			root.ChildOn(1, "work").Arg("i", i).End()
		}
		root.End()
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("untraced", func(b *testing.B) { run(b, NewRecorder()) })
	// Unbounded enough that End never hits the drop path during the run.
	b.Run("live", func(b *testing.B) { run(b, NewTracingRecorder(1<<30)) })
}
