package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchDoc(caseName string, contacts int, secondsPerOp float64, solves int) *benchFile {
	return &benchFile{
		Schema:   benchSchema,
		Case:     caseName,
		Contacts: contacts,
		Benchmarks: []benchRow{
			{Name: "ExtractSerial", Method: "low-rank", Workers: 1, Reps: 3,
				SecondsPerOp: secondsPerOp, MeanSeconds: secondsPerOp, Solves: solves},
			{Name: "ExtractParallel", Method: "low-rank", Workers: 0, Reps: 3,
				SecondsPerOp: secondsPerOp / 2, MeanSeconds: secondsPerOp / 2, Solves: solves},
		},
	}
}

func TestDiffCatchesSlowdown(t *testing.T) {
	old := benchDoc("3-alternating", 256, 1.0, 120)
	slow := benchDoc("3-alternating", 256, 2.0, 120) // synthetic 2x regression
	var out bytes.Buffer
	regs := diffBench(&out, old, slow, 0.15)
	if len(regs) != 2 {
		t.Fatalf("2x slowdown on both rows produced %d regressions: %v\n%s", len(regs), regs, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("diff output does not flag the regression:\n%s", out.String())
	}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	old := benchDoc("3-alternating", 256, 1.0, 120)
	ok := benchDoc("3-alternating", 256, 1.1, 120) // 10% < 15% tolerance
	var out bytes.Buffer
	if regs := diffBench(&out, old, ok, 0.15); len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", regs)
	}
}

func TestDiffFailsOnSolveCountDrift(t *testing.T) {
	old := benchDoc("3-alternating", 256, 1.0, 120)
	drift := benchDoc("3-alternating", 256, 1.0, 121)
	var out bytes.Buffer
	regs := diffBench(&out, old, drift, 0.15)
	if len(regs) != 2 {
		t.Fatalf("solve-count drift produced %d regressions: %v", len(regs), regs)
	}
}

func TestDiffDifferentCasesIsInformational(t *testing.T) {
	// The committed full-size file against a -short CI run: 10x slower and a
	// different solve count must only warn, never fail.
	old := benchDoc("3-alternating", 256, 1.0, 120)
	short := benchDoc("3-alternating-short", 64, 10.0, 40)
	var out bytes.Buffer
	if regs := diffBench(&out, old, short, 0.15); len(regs) != 0 {
		t.Fatalf("cross-case comparison flagged regressions: %v", regs)
	}
	if !strings.Contains(out.String(), "informational") {
		t.Fatalf("cross-case comparison not labeled informational:\n%s", out.String())
	}
}

func TestDiffFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc *benchFile) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", benchDoc("c", 256, 1.0, 120))
	newPath := write("new.json", benchDoc("c", 256, 2.0, 120))
	var out bytes.Buffer
	if err := diffFiles(&out, oldPath, newPath, 0.15); err == nil {
		t.Fatalf("2x regression not reported as an error")
	}
	if err := diffFiles(&out, oldPath, oldPath, 0.15); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}

	// Schema confusion (a run report is not a bench file) must be rejected.
	bad := filepath.Join(dir, "report.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"subcouple-run-report/v2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := diffFiles(&out, oldPath, bad, 0.15); err == nil {
		t.Fatalf("wrong-schema file accepted")
	}
}

// TestCommittedBenchFileLoads keeps the repo's committed baseline loadable
// by -diff (CI compares fresh -short runs against it).
func TestCommittedBenchFileLoads(t *testing.T) {
	doc, err := loadBench("../../BENCH_extract.json")
	if err != nil {
		t.Fatalf("committed BENCH_extract.json: %v", err)
	}
	if len(doc.Benchmarks) == 0 {
		t.Fatalf("committed baseline has no benchmark rows")
	}
	var out bytes.Buffer
	if regs := diffBench(&out, doc, doc, 0.15); len(regs) != 0 {
		t.Fatalf("baseline regresses against itself: %v", regs)
	}
}

// TestDiffShortGatesDeterministicColumnsOnly: between two -short files (CI
// against the committed short baseline, different machines) a slowdown
// only warns, while CG-iteration drift and rising allocs/op fail.
func TestDiffShortGatesDeterministicColumnsOnly(t *testing.T) {
	short := func(seconds, iters, allocs float64) *benchFile {
		d := benchDoc("3-alternating-short", 64, seconds, 40)
		d.Short = true
		d.Benchmarks = append(d.Benchmarks, benchRow{Name: "BemSolve", Method: "bem", Workers: 1, Reps: 1,
			SecondsPerOp: seconds / 100, Solves: 1, CGIters: iters, AllocsPerOp: &allocs})
		return d
	}
	var out bytes.Buffer
	if regs := diffBench(&out, short(1, 15, 1), short(3, 15, 1), 0.15); len(regs) != 0 {
		t.Fatalf("3x slower short run flagged: %v\n%s", regs, out.String())
	}
	if !strings.Contains(out.String(), "timings advisory") {
		t.Fatalf("short comparison not labeled timing-advisory:\n%s", out.String())
	}
	if regs := diffBench(&out, short(1, 15, 1), short(1, 15.5, 1), 0.15); len(regs) != 1 {
		t.Fatalf("CG iteration drift produced %d regressions: %v", len(regs), regs)
	}
	if regs := diffBench(&out, short(1, 15, 1), short(1, 15, 2), 0.15); len(regs) != 1 {
		t.Fatalf("allocs/op rise produced %d regressions: %v", len(regs), regs)
	}
	if regs := diffBench(&out, short(1, 15, 1), short(1, 15, 0), 0.15); len(regs) != 0 {
		t.Fatalf("allocs/op drop flagged: %v", regs)
	}
}

// TestCommittedShortBaselineLoads keeps the committed same-case baseline for
// CI's -short run loadable, short, and carrying the hot-path layer rows.
func TestCommittedShortBaselineLoads(t *testing.T) {
	doc, err := loadBench("../../BENCH_extract_short.json")
	if err != nil {
		t.Fatalf("committed BENCH_extract_short.json: %v", err)
	}
	if !doc.Short {
		t.Fatalf("BENCH_extract_short.json is not a -short run")
	}
	rows := map[string]benchRow{}
	for _, r := range doc.Benchmarks {
		rows[r.Name] = r
	}
	for _, name := range []string{"ExtractSerial", "DCT2D", "BemSolve", "BemCGIter"} {
		if _, ok := rows[name]; !ok {
			t.Fatalf("short baseline lacks the %s row", name)
		}
	}
	if r := rows["BemSolve"]; r.CGIters == 0 || r.AllocsPerOp == nil {
		t.Fatalf("BemSolve row lacks its deterministic columns: %+v", r)
	}
	var out bytes.Buffer
	if regs := diffBench(&out, doc, doc, 0.15); len(regs) != 0 {
		t.Fatalf("short baseline regresses against itself: %v", regs)
	}
}
