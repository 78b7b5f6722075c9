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
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("no backends: err %v, want a 'pass -backend' error", err)
	}
	if err := run([]string{"-backend", "garbage"}, &out); err == nil {
		t.Fatal("unparseable -backend accepted")
	}
	if err := run([]string{"-backends", "/nonexistent/fleet.txt"}, &out); err == nil {
		t.Fatal("missing -backends file accepted")
	}

	// A busy address must fail startup synchronously with a real error (the
	// same bind discipline as subserve).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := run([]string{"-backend", "m=127.0.0.1:1", "-addr", ln.Addr().String()}, &out); err == nil {
		t.Fatal("busy -addr accepted")
	}
}

// startGateway runs the gateway with args on a loopback port. It returns the
// base URL and a stop function that delivers a real SIGTERM and requires a
// clean drained exit.
func startGateway(t *testing.T, args ...string) (string, func()) {
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
		t.Fatalf("gateway exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("gateway never bound its listener")
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
			t.Fatal("gateway did not exit after SIGTERM")
		}
	}
	return "http://" + addr.String(), stop
}

// TestSlowClientDisconnected: a client that sends half a request line and
// then stalls is disconnected once the read-header timeout expires, instead
// of holding its connection open forever.
func TestSlowClientDisconnected(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	base, stop := startGateway(t, "-backend", "m=127.0.0.1:1")
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
		t.Fatal("gateway still holds a connection whose request line never finished")
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
	base, stop := startGateway(t, "-backend", "m=127.0.0.1:1")
	defer stop()
	addr := strings.TrimPrefix(base, "http://")

	// heldOpen reports whether the gateway still holds conn after 10 s.
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
			t.Fatal("gateway still holds a connection whose body is still trickling in")
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
			t.Fatal("gateway still holds an idle keep-alive connection")
		}
	})
}

// buildSubserve compiles the real replica daemon once per test run.
func buildSubserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "subserve")
	cmd := exec.Command("go", "build", "-o", bin, "subcouple/cmd/subserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building subserve: %v\n%s", err, out)
	}
	return bin
}

// replicaProc is one real subserve child process.
type replicaProc struct {
	cmd  *exec.Cmd
	addr string
}

// startReplica launches a real subserve daemon on an ephemeral port,
// parses the bound address from its startup log, and waits for readiness.
func startReplica(t *testing.T, bin, artifact string) *replicaProc {
	t.Helper()
	cmd := exec.Command(bin, "-model", artifact, "-addr", "127.0.0.1:0", "-pool", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		re := regexp.MustCompile(`on http://(\S+)`)
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("replica never logged its listen address")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never became ready", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return &replicaProc{cmd: cmd, addr: addr}
}

// applyRaw fires one raw-codec apply at the gateway and requires 200.
func applyRaw(base string, x []float64) ([]float64, error) {
	resp, err := http.Post(base+"/apply?model=m", "application/octet-stream",
		bytes.NewReader(serve.EncodeRawVector(x)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return serve.DecodeRawVector(out)
}

// scrapeFailovers sums subgate_failover_total across all backends from the
// gateway's /metrics.
func scrapeFailovers(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var total int64
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, "subgate_failover_total{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("unparseable failover sample %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestGatewayFleetFailover is the fleet e2e: two REAL subserve daemons
// (separate processes) behind an in-process subgate. It proves the
// gateway's whole contract at once — bitwise-identical responses in both
// codecs, a SIGKILLed replica mid-burst costing zero client-visible
// failures, the failover counter incrementing, fleet /models aggregation,
// and a clean SIGTERM drain that writes a valid run report with the
// gateway block.
func TestGatewayFleetFailover(t *testing.T) {
	artifact, m := saveTestArtifact(t, "m.scm")
	bin := buildSubserve(t)
	rep1 := startReplica(t, bin, artifact)
	rep2 := startReplica(t, bin, artifact)
	reportPath := filepath.Join(t.TempDir(), "gate-report.json")

	// A slow probe interval on purpose: the burst below must exercise the
	// REQUEST path's failover (connect error -> retry -> mark unready), not
	// ride on the prober having already removed the dead replica.
	base, stop := startGateway(t,
		"-backend", "m="+rep1.addr,
		"-backend", "m="+rep2.addr,
		"-probeinterval", "5s",
		"-report", reportPath)

	// The startup probe saw both replicas: fleet-ready.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with both replicas up: %d", resp.StatusCode)
	}

	// Bitwise fidelity through the gateway, both codecs.
	eng := model.NewEngine(m)
	x := make([]float64, m.N)
	for i := range x {
		x[i] = float64((i*31)%17) - 8
	}
	want := make([]float64, m.N)
	eng.ApplyInto(want, x)

	y, err := applyRaw(base, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("raw y[%d] = %v, want %v (not bitwise identical)", i, y[i], want[i])
		}
	}
	body, _ := json.Marshal(map[string]any{"model": "m", "x": x})
	jresp, err := http.Post(base+"/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	jout, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("json apply: %d: %s", jresp.StatusCode, jout)
	}
	var ar struct {
		Y []float64 `json:"y"`
	}
	if err := json.Unmarshal(jout, &ar); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if ar.Y[i] != want[i] {
			t.Fatalf("json y[%d] = %v, want %v (not bitwise identical)", i, ar.Y[i], want[i])
		}
	}

	// /models aggregates the fleet: one alias, two replicas, both ready,
	// agreeing on one fingerprint.
	mresp, err := http.Get(base + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name       string `json:"name"`
		Replicas   int    `json:"replicas"`
		Ready      int    `json:"ready"`
		Consistent bool   `json:"consistent"`
	}
	err = json.NewDecoder(mresp.Body).Decode(&rows)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "m" || rows[0].Replicas != 2 || rows[0].Ready != 2 || !rows[0].Consistent {
		t.Fatalf("fleet /models: %+v, want m with 2/2 ready and consistent fingerprints", rows)
	}

	// The burst: 8 clients hammering the gateway while replica 1 is
	// SIGKILLed under them. Every single request must come back 200 and
	// bitwise correct — the buffered failover means the kill is invisible.
	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, clients)
	killed := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				y, err := applyRaw(base, x)
				if err != nil {
					errs[c] = fmt.Errorf("request %d: %w", i, err)
					return
				}
				for j := range want {
					if y[j] != want[j] {
						errs[c] = fmt.Errorf("request %d: y[%d] not bitwise identical", i, j)
						return
					}
				}
				if i == perClient/2 && c == 0 {
					close(killed)
				}
			}
		}(c)
	}
	<-killed
	if err := rep1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d saw a failure across the SIGKILL: %v", c, err)
		}
	}

	// The kill may have landed after the burst's last request; drive
	// sequential applies until one provably failed over (each has a ~1/2
	// chance of picking the dead replica first until it is marked down).
	deadline := time.Now().Add(10 * time.Second)
	for scrapeFailovers(t, base) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subgate_failover_total never incremented after SIGKILL")
		}
		if _, err := applyRaw(base, x); err != nil {
			t.Fatalf("apply after SIGKILL: %v", err)
		}
	}

	// Still fleet-ready on the surviving replica.
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after losing one replica: %d, want 200 (one survivor)", resp.StatusCode)
	}

	// Clean SIGTERM drain, then the report must validate and carry the
	// gateway block with the failovers the burst caused.
	stop()
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
	if rep.Tool != "subgate" {
		t.Fatalf("report tool %q, want subgate", rep.Tool)
	}
	if rep.Gateway == nil {
		t.Fatal("report has no gateway block")
	}
	var requests, failovers int64
	for _, b := range rep.Gateway.Backends {
		requests += b.Requests
		failovers += b.Failovers
	}
	if requests == 0 || failovers == 0 {
		t.Fatalf("gateway block totals: %d requests, %d failovers, want both > 0 (%+v)",
			requests, failovers, rep.Gateway.Backends)
	}
	if rep.Obs.Counters["solver/solves"] != 0 {
		t.Fatalf("gateway performed %d substrate solves, want 0", rep.Obs.Counters["solver/solves"])
	}
}
