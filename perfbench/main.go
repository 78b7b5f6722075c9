// Command perfbench is subcouple's repository benchmark. Each of its two
// workloads extracts a case's low-rank and wavelet models through the
// repository's public entry points and then serves them through the fleet,
// measuring every layer from outside the program — no instrumentation is
// added inside it:
//
//   - bem-256: thesis Example 3 (the 256-contact alternating grid on a
//     64×64 panel grid) through the live eigenfunction solver. The black
//     box dominates the extraction: dct/bem/solver.
//   - kernel-1024: the alternating-1024 scaling rung against the dense
//     synthetic kernel. The black box is a cheap matvec, so the algorithm
//     (lowrank/wavelet/la/sparse/quadtree) dominates the extraction, and a
//     served apply costs about as much as the batching wait.
//
// The first half of a run's seconds goes to extraction passes, the second
// to serving: two subserve replicas behind subgate, child processes built
// from this checkout, serve the run's models over loopback HTTP while the
// alias is hot-swapped between the two versions every 250 ms. The load is
// open-loop raw /apply requests over nproc connections, in 1 s segments
// alternating a low and a high rate.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload bem-256 --seed 1 --seconds 50 --trace 0
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
// per-layer ones: a timing wrapper around the solver, timed kernel calls,
// and differences of the daemons' /metrics and /debug/vars scrapes. Every
// workload prints every metric. The last stdout line is the JSON result
// {correct, attempted, failed, metrics}; the line before it is the
// like-for-like record (nproc, GOMAXPROCS, Go version, source identity,
// seed, rates, fingerprints). Both, plus the traced run's spans, are also
// written under .bench_build/results/. Failed output checks are listed on
// stderr.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is the state of one run: its parameters, the metrics gathered so
// far, the operations attempted and failed, and the like-for-like record.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout
	bin      string // directory holding the subserve/subgate binaries
	outDir   string // .bench_build/results

	attempted int
	failures  []string
	metrics   map[string]metricValue
	record    map[string]any
	spans     any // traced run's spans, written out at the end
}

// attempt counts one checked operation; a non-empty failure message counts
// it as failed.
func (b *bench) attempt(failure string) {
	b.attempted++
	if failure != "" {
		b.failures = append(b.failures, failure)
	}
}

// check counts one checked operation that failed unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		b.attempt("")
		return
	}
	b.attempt(fmt.Sprintf(format, args...))
}

func (b *bench) put(name, unit string, v float64) {
	b.metrics[name] = metricValue{Value: v, Unit: unit}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "bem-256 or kernel-1024")
		seed     = flag.Int64("seed", 1, "drives lowrank.Options.Seed and the served request vectors")
		seconds  = flag.Float64("seconds", 30, "measurement time (set-up excluded)")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root     = flag.String("root", ".", "repository checkout")
		bin      = flag.String("bin", ".bench_build/bin", "directory with the subserve and subgate binaries")
	)
	flag.Parse()
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		root:     *root,
		bin:      *bin,
		outDir:   filepath.Join(*root, ".bench_build", "results"),
		metrics:  map[string]metricValue{},
	}
	b.record = map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      b.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     gitCommit(b.root),
		"source":     sourceHash(b.root),
	}
	w, ok := workloads[b.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want bem-256 or kernel-1024)\n", b.workload)
		return 2
	}
	if err := b.runWorkload(w()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return b.finish()
}

// runWorkload runs the extraction part and then the serving part of w, half
// the run's seconds each. setup_s is the sum of the two parts' median
// set-up times.
func (b *bench) runWorkload(w workload) error {
	extractSetup, served, err := b.runExtract(w, b.seconds/2)
	if err != nil {
		return err
	}
	lr, wv := served["lowrank"], served["wavelet"]
	runtime.GC()
	serveSetup, err := b.runServe(w, lr, wv, b.seconds/2)
	if err != nil {
		return err
	}
	b.record["setup_extract_s"] = extractSetup
	b.record["setup_serve_s"] = serveSetup
	if !b.trace {
		b.put("setup_s", "s", extractSetup+serveSetup)
		return nil
	}
	return b.kernelTimings(lr)
}

// finish prints the record and the result line and writes both (plus any
// spans) under outDir.
func (b *bench) finish() int {
	for name, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.attempt(fmt.Sprintf("metric %s is not finite (%v)", name, m.Value))
			delete(b.metrics, name)
		}
	}
	for i, f := range b.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed checks\n", len(b.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res := result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    len(b.failures),
		Metrics:   b.metrics,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	rec, err := json.Marshal(map[string]any{"record": b.record})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.writeOutputs(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing results:", err)
	}
	fmt.Println(string(rec))
	fmt.Println(string(line))
	return 0
}

func (b *bench) writeOutputs(res result) error {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	trace := 0
	if b.trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, trace)
	data, err := json.MarshalIndent(map[string]any{"record": b.record, "result": res, "failures": b.failures}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.outDir, base+".json"), data, 0o644); err != nil {
		return err
	}
	if b.spans == nil {
		return nil
	}
	data, err = json.Marshal(b.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.outDir, base+"-spans.json"), data, 0o644)
}

// gitCommit returns the checkout's HEAD, or "unknown" when the checkout is
// not a git repository (the source hash identifies the code either way).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is a SHA-256 over the checkout's Go sources and module files,
// in path order, so two results can be matched to the same code without git.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// elapsedSince is the wall time since t in seconds.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
