package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"subcouple/internal/core"
	"subcouple/internal/experiments"
	"subcouple/internal/geom"
	"subcouple/internal/model"
	"subcouple/internal/obs"
	"subcouple/internal/serve"
	"subcouple/internal/serve/registry"
	"subcouple/internal/solver"
)

// saveTestArtifact extracts a small model and writes it as a .scm artifact.
func saveTestArtifact(t *testing.T, name string) (string, *model.Model) {
	t.Helper()
	raw := geom.AlternatingGrid(32, 32, 8, 8, 1, 3) // 64 contacts
	layout, maxLevel := core.Prepare(raw, 4)
	g := experiments.SyntheticG(layout)
	res, err := core.Extract(solver.NewDense(g), layout, core.Options{
		Method: core.LowRank, MaxLevel: maxLevel, ThresholdFactor: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := model.Encode(res.Model())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, res.Model()
}

func TestRunRejectsBadInvocations(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "model") {
		t.Fatalf("no models: err %v, want a 'pass -model' error", err)
	}
	if err := run([]string{"-model", "/nonexistent/m.scm"}, &out); err == nil {
		t.Fatal("missing artifact accepted")
	}

	// A busy address must fail startup synchronously with a real error, not
	// be logged later from a goroutine (same bind discipline as subx -pprof).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	path, _ := saveTestArtifact(t, "m.scm")
	if err := run([]string{"-model", path, "-addr", ln.Addr().String()}, &out); err == nil {
		t.Fatal("busy -addr accepted")
	}
}

// startDaemon runs the daemon with args on a loopback port. It returns the
// base URL and a stop function that delivers a real SIGTERM and requires a
// clean drained exit.
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	defer func() { onListen = nil }()
	runErr := make(chan error, 1)
	go func() { runErr <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard) }()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its listener")
	}
	stop := func() {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatalf("SIGTERM exit: %v, want clean nil", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not exit after SIGTERM")
		}
	}
	return "http://" + addr.String(), stop
}

// TestModeFlag pins that the daemon serves one exact kernel family: the
// retired -mode and -densebudget flags fail startup as unknown flags.
func TestModeFlag(t *testing.T) {
	path, _ := saveTestArtifact(t, "mode.scm")
	for _, args := range [][]string{{"-mode", "exact"}, {"-densebudget", "1"}} {
		err := run(append([]string{"-model", path}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Fatalf("%v: err %v, want an unknown-flag error", args, err)
		}
	}
}

// TestMetricsFlagOff: a daemon started with -metrics=false serves but does
// not route /metrics.
func TestMetricsFlagOff(t *testing.T) {
	path, _ := saveTestArtifact(t, "nometrics.scm")
	base, stop := startDaemon(t, "-model", path, "-metrics=false")
	defer stop()
	for ep, want := range map[string]int{"/readyz": http.StatusOK, "/metrics": http.StatusNotFound} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s with -metrics=false: %d, want %d", ep, resp.StatusCode, want)
		}
	}
}

// TestSlowClientDisconnected: a client that sends half a request line and
// then stalls is disconnected once the read-header timeout expires, instead
// of holding its connection open forever.
func TestSlowClientDisconnected(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	path, _ := saveTestArtifact(t, "slow.scm")
	base, stop := startDaemon(t, "-model", path)
	defer stop()

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("daemon still holds a connection whose request line never finished")
	}
}

// TestSlowBodyAndIdleClientsDisconnected: a client that sends complete
// headers and then trickles its body one byte at a time is disconnected
// once the read timeout expires, and a keep-alive client that goes quiet
// after a request is disconnected once the idle timeout expires — neither
// can hold a connection open forever.
func TestSlowBodyAndIdleClientsDisconnected(t *testing.T) {
	defer func(r, i time.Duration) { readTimeout, idleTimeout = r, i }(readTimeout, idleTimeout)
	readTimeout, idleTimeout = 300*time.Millisecond, 300*time.Millisecond
	path, _ := saveTestArtifact(t, "slowbody.scm")
	base, stop := startDaemon(t, "-model", path)
	defer stop()
	addr := strings.TrimPrefix(base, "http://")

	// heldOpen reports whether the daemon still holds conn after 10 s.
	heldOpen := func(conn net.Conn) bool {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := io.Copy(io.Discard, conn)
		ne, ok := err.(net.Error)
		return ok && ne.Timeout()
	}

	t.Run("body", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "POST /apply HTTP/1.1\r\nHost: x\r\n"+
			"Content-Type: application/json\r\nContent-Length: 1048576\r\n\r\n{\"x\":["); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-done:
					return
				case <-time.After(50 * time.Millisecond):
				}
				if _, err := io.WriteString(conn, "0,"); err != nil {
					return
				}
			}
		}()
		if heldOpen(conn) {
			t.Fatal("daemon still holds a connection whose body is still trickling in")
		}
	})

	t.Run("idle", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz: %d", resp.StatusCode)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err = io.Copy(io.Discard, br)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("daemon still holds an idle keep-alive connection")
		}
	})
}

// TestDaemonLifecycle runs the real daemon end to end: load an artifact,
// serve concurrent /apply requests bitwise-faithfully, then deliver an
// actual SIGTERM and require run() to drain and return nil (the clean-exit
// contract CI's `kill -TERM && wait` asserts), writing a valid run report.
func TestDaemonLifecycle(t *testing.T) {
	path, m := saveTestArtifact(t, "lifecycle.scm")
	reportPath := filepath.Join(t.TempDir(), "serve-report.json")

	base, stop := startDaemon(t, "-model", path, "-pool", "2", "-report", reportPath)

	// Liveness and readiness.
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep, resp.StatusCode)
		}
	}

	// Concurrent applies must match a direct private-engine apply bitwise.
	eng := model.NewEngine(m)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := make([]float64, m.N)
			for i := range x {
				x[i] = float64((i*13+c)%7) - 3
			}
			body, _ := json.Marshal(map[string]any{"x": x})
			resp, err := http.Post(base+"/apply", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, out)
				return
			}
			var ar struct {
				Y []float64 `json:"y"`
			}
			if err := json.Unmarshal(out, &ar); err != nil {
				errs[c] = err
				return
			}
			want := make([]float64, m.N)
			eng2 := model.NewEngine(m)
			eng2.ApplyInto(want, x)
			for i := range want {
				if ar.Y[i] != want[i] {
					errs[c] = fmt.Errorf("y[%d] = %v, want %v (not bitwise identical)", i, ar.Y[i], want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// The served fingerprint must equal a direct engine's.
	resp, err := http.Get(base + "/fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	var fr map[string]string
	json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if want := fmt.Sprintf("%016x", eng.Fingerprint(1)); fr["fingerprint"] != want {
		t.Fatalf("served fingerprint %s, want %s", fr["fingerprint"], want)
	}

	// Metrics default on: the scrape carries the serving families with the
	// traffic just driven, and the expvar mirror publishes the registry.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		serve.MetricHTTPRequests + `{code="2xx",endpoint="apply"} ` + fmt.Sprint(clients),
		serve.MetricLatencySeconds + `_count{endpoint="apply"} ` + fmt.Sprint(clients),
		registry.MetricQueueDepth + `{model="lifecycle"} 0`,
		registry.MetricPoolInUse + `{model="lifecycle"} 0`,
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Metrics obs.MetricsSnapshot `json:"subserve_metrics"`
	}
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(vars.Metrics.Families) == 0 {
		t.Error("expvar mirror subserve_metrics is empty")
	}

	// Real graceful shutdown: SIGTERM to ourselves; run() must drain and
	// return nil.
	stop()

	// The shutdown report exists, validates, and records the traffic.
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("run report not written: %v", err)
	}
	if err := obs.ValidateRunReport(data, false); err != nil {
		t.Fatalf("run report invalid: %v", err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "subserve" {
		t.Fatalf("report tool %q", rep.Tool)
	}
	if got := rep.Obs.Counters["solver/solves"]; got != 0 {
		t.Fatalf("serving performed %d substrate solves, want 0", got)
	}
	// The daemon's telemetry lives in Metrics only: the obs and numerics
	// sections are present but empty.
	if rep.Numerics == nil || len(rep.Obs.Phases)+len(rep.Obs.Counters)+len(rep.Obs.Histograms) != 0 {
		t.Fatalf("daemon report obs %+v / numerics %+v, want both present and empty", rep.Obs, rep.Numerics)
	}
	// The serving block captured the same traffic: per-endpoint status-class
	// counts and ordered latency quantiles, with the gauges drained to zero.
	if rep.Serving == nil {
		t.Fatal("report has no serving block")
	}
	if rep.Serving.QueueDepth != 0 || rep.Serving.PoolInUse != 0 {
		t.Fatalf("post-drain serving gauges: depth %d, in use %d, want 0/0",
			rep.Serving.QueueDepth, rep.Serving.PoolInUse)
	}
	apply := rep.Serving.Endpoints["apply"]
	if apply.Requests["2xx"] != clients {
		t.Fatalf("serving block apply/2xx = %d, want %d", apply.Requests["2xx"], clients)
	}
	if apply.LatencyCount != clients || apply.LatencyP50Seconds > apply.LatencyP99Seconds {
		t.Fatalf("serving block apply latency malformed: %+v", apply)
	}
}
