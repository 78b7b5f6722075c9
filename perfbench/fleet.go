package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one child process (subserve or subgate) listening on an
// ephemeral loopback port it reports in its startup log line.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port
	done chan struct{}
}

// startDaemon starts bin with args, copies its log to logPath and returns
// once the daemon has logged the address it bound. The child is killed if
// this process dies first.
func startDaemon(name, bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, " on http://"); i >= 0 {
				rest := line[i+len(" on http://"):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening (log: %s)", name, logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report a listen address within 30s (log: %s)", name, logPath)
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after 10 s. It returns once the process is gone.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// fleet is the served system: two subserve replicas behind one subgate.
type fleet struct {
	replicas []*daemon
	gate     *daemon
}

// startFleet starts the replicas serving modelPath under alias m (with the
// loopback admin API) and the gateway fronting them, all with their default
// flags otherwise.
func startFleet(bin, modelPath, logDir string, replicas int) (*fleet, error) {
	f := &fleet{}
	var backends []string
	for i := 0; i < replicas; i++ {
		d, err := startDaemon(fmt.Sprintf("subserve-%d", i), filepath.Join(bin, "subserve"),
			[]string{"-addr", "127.0.0.1:0", "-admin", "-model", modelPath},
			filepath.Join(logDir, fmt.Sprintf("subserve-%d.log", i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, d)
		backends = append(backends, "-backend", servedAlias+"="+d.addr)
	}
	gate, err := startDaemon("subgate", filepath.Join(bin, "subgate"),
		append([]string{"-addr", "127.0.0.1:0"}, backends...), filepath.Join(logDir, "subgate.log"))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.gate = gate
	return f, nil
}

// stop stops the gateway first, then the replicas, waiting for each. A nil
// fleet is a no-op.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.gate.stop()
	for _, d := range f.replicas {
		d.stop()
	}
}

// all returns every daemon of the fleet.
func (f *fleet) all() []*daemon { return append([]*daemon{f.gate}, f.replicas...) }

// adminClient carries set-up, admin and scrape traffic, separate from the
// load generator's connections.
var adminClient = &http.Client{Timeout: 30 * time.Second}

// waitReady polls every daemon's /readyz until all answer 200.
func (f *fleet) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range f.all() {
		for {
			resp, err := adminClient.Get(d.url("/readyz"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready within %v", d.name, timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// postJSON posts body as JSON (or raw bytes when raw is set) and decodes
// the JSON reply into out.
func postJSON(url string, body any, raw []byte, out any) error {
	var rd io.Reader
	ctype := "application/octet-stream"
	if raw != nil {
		rd = bytes.NewReader(raw)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
		ctype = "application/json"
	}
	resp, err := adminClient.Post(url, ctype, rd)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

func getJSON(url string, out any) error {
	resp, err := adminClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// promSample is one exposition line: family name, labels, value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a reading of /metrics (Prometheus text, keyed by series) and
// of the /debug/vars memstats TotalAlloc, for one daemon or summed over
// several; differences of scrapes are scrapes too.
type scrape struct {
	series     map[string]promSample
	totalAlloc float64
}

// takeScrape reads d's /metrics and, when withVars is set, the TotalAlloc
// of its /debug/vars memstats.
func takeScrape(d *daemon, withVars bool) (scrape, error) {
	s := scrape{series: map[string]promSample{}}
	resp, err := adminClient.Get(d.url("/metrics"))
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if key, p, ok := parsePromLine(sc.Text()); ok {
			s.series[key] = p
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if withVars {
		var vars struct {
			Memstats struct{ TotalAlloc float64 } `json:"memstats"`
		}
		if err := getJSON(d.url("/debug/vars"), &vars); err != nil {
			return s, err
		}
		s.totalAlloc = vars.Memstats.TotalAlloc
	}
	return s, nil
}

// parsePromLine parses `name{k="v",...} value` or `name value`, returning
// the series key (everything before the value) and the sample.
func parsePromLine(line string) (string, promSample, bool) {
	if line == "" || line[0] == '#' {
		return "", promSample{}, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", promSample{}, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", promSample{}, false
	}
	key := line[:sp]
	p := promSample{name: key, labels: map[string]string{}, value: v}
	if i := strings.IndexByte(key, '{'); i >= 0 {
		p.name = key[:i]
		for _, kv := range strings.Split(strings.TrimSuffix(key[i+1:], "}"), ",") {
			if eq := strings.IndexByte(kv, '='); eq > 0 {
				p.labels[kv[:eq]] = strings.Trim(kv[eq+1:], `"`)
			}
		}
	}
	return key, p, true
}

// plus returns s + sign·o, series by series; the zero scrape is the
// identity.
func (s scrape) plus(o scrape, sign float64) scrape {
	out := scrape{series: make(map[string]promSample, len(s.series)), totalAlloc: s.totalAlloc + sign*o.totalAlloc}
	for k, p := range s.series {
		out.series[k] = p
	}
	for k, p := range o.series {
		q, ok := out.series[k]
		if !ok {
			q = promSample{name: p.name, labels: p.labels}
		}
		q.value += sign * p.value
		out.series[k] = q
	}
	return out
}

// sum adds the values of every series of family name whose labels include
// all of the match pairs.
func (s scrape) sum(name string, match ...string) float64 {
	var t float64
next:
	for _, p := range s.series {
		if p.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if p.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		t += p.value
	}
	return t
}

// mean is a histogram family's mean (sum/count) over the matching series,
// 0 for an empty histogram.
func (s scrape) mean(name string, match ...string) float64 {
	n := s.sum(name+"_count", match...)
	if n == 0 {
		return 0
	}
	return s.sum(name+"_sum", match...) / n
}
