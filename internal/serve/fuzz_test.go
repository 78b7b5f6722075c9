package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/model"
	"subcouple/internal/serve"
)

// FuzzApplyRequest sends arbitrary bodies through the routed handler in both
// codecs (raw selects application/octet-stream with ?model=m, otherwise the
// body is posted as JSON). Whatever the input: a 200 JSON reply decodes to
// exactly N outputs, a 200 raw reply is exactly 8·N bytes, and no input
// yields a 5xx. The committed corpus under testdata/fuzz/FuzzApplyRequest
// (overflowing and non-finite bodies among it) replays on every go test.
func FuzzApplyRequest(f *testing.F) {
	m := testModel(f, core.LowRank)
	s := serve.New(serve.Options{PoolSize: 1})
	if err := s.AddModel("m", m); err != nil {
		f.Fatal(err)
	}
	s.SetReady(true)
	f.Cleanup(s.Close)
	h := s.Handler()

	valid, _ := json.Marshal(map[string]any{"model": "m", "x": probeVec(m.N, 1)})
	f.Add(false, valid)
	f.Add(false, []byte(`{"x":[1,2,3]}`))
	f.Add(false, []byte(`{"model":"nope","x":[]}`))
	f.Add(false, []byte(`{"x":`))
	f.Add(true, serve.EncodeRawVector(probeVec(m.N, 2)))
	f.Add(true, []byte("short"))

	f.Fuzz(func(t *testing.T, raw bool, body []byte) {
		url, ctype := "/apply", "application/json"
		if raw {
			url, ctype = "/apply?model=m", "application/octet-stream"
		}
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch {
		case rec.Code >= 500:
			t.Fatalf("status %d for a client body: %s", rec.Code, rec.Body.Bytes())
		case rec.Code != http.StatusOK:
		case raw:
			if rec.Body.Len() != 8*m.N {
				t.Fatalf("raw 200 reply has %d bytes, want %d", rec.Body.Len(), 8*m.N)
			}
		default:
			var ar struct {
				Y []float64 `json:"y"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil || len(ar.Y) != m.N {
				t.Fatalf("JSON 200 reply %q: decode err %v, %d outputs, want %d", rec.Body.Bytes(), err, len(ar.Y), m.N)
			}
		}
	})
}

// FuzzAdmin drives the loopback admin surface with arbitrary input: op
// selects POST /admin/models with a JSON body (0) or raw artifact bytes
// (1), POST /admin/swap (2), or DELETE /admin/models/{target} (3). Whatever
// the input: no reply is a 5xx, a 200 reply is well-formed JSON naming a
// version the registry actually holds (or, for an unload, no longer
// holds), and alias "m" keeps resolving to a loaded version — an admin call
// can refuse, never leave the registry inconsistent. The committed corpus
// under testdata/fuzz/FuzzAdmin replays on every go test. JSON path loads
// read the daemon's filesystem, so inputs naming any path but the seeded
// artifact are skipped.
func FuzzAdmin(f *testing.F) {
	m := testModel(f, core.LowRank)
	data, err := model.Encode(m)
	if err != nil {
		f.Fatal(err)
	}
	artifact := filepath.Join(f.TempDir(), "m.scm")
	if err := os.WriteFile(artifact, data, 0o644); err != nil {
		f.Fatal(err)
	}
	s := serve.New(serve.Options{PoolSize: 1, Admin: true})
	if err := s.AddModel("m", m); err != nil {
		f.Fatal(err)
	}
	s.SetReady(true)
	f.Cleanup(s.Close)
	h := s.Handler()
	fp, _ := s.Fingerprint("m")
	hex := fmt.Sprintf("%016x", fp)

	pathBody, _ := json.Marshal(map[string]string{"path": artifact})
	f.Add(uint8(0), "", pathBody)
	f.Add(uint8(1), "", data)
	f.Add(uint8(2), "", []byte(`{"alias":"m","fingerprint":"`+hex+`"}`))
	f.Add(uint8(2), "", []byte(`{"alias":"other","fingerprint":"`+hex+`"}`))
	f.Add(uint8(3), hex, []byte(nil))

	f.Fuzz(func(t *testing.T, op uint8, target string, body []byte) {
		var req *http.Request
		switch op % 4 {
		case 0:
			var lr struct {
				Path string `json:"path"`
			}
			// The server decodes strictly; whenever that succeeds this
			// lenient decode yields the same path.
			json.NewDecoder(bytes.NewReader(body)).Decode(&lr)
			if lr.Path != "" && lr.Path != artifact {
				t.Skip("path load outside the seeded artifact")
			}
			req = httptest.NewRequest(http.MethodPost, "/admin/models", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
		case 1:
			req = httptest.NewRequest(http.MethodPost, "/admin/models", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/octet-stream")
		case 2:
			req = httptest.NewRequest(http.MethodPost, "/admin/swap", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
		default:
			req = httptest.NewRequest(http.MethodDelete, "/admin/models/"+url.PathEscape(target), nil)
		}
		req.RemoteAddr = "127.0.0.1:40000"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if rec.Code >= 500 {
			t.Fatalf("op %d: status %d: %s", op%4, rec.Code, rec.Body.Bytes())
		}
		snap := s.Registry().Snapshot()
		if act := snap.Lookup("m"); act == nil || snap.Version(act.Fingerprint()) == nil {
			t.Fatalf("op %d left alias m unresolvable", op%4)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var reply map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("op %d: 200 reply %q is not JSON: %v", op%4, rec.Body.Bytes(), err)
		}
		key := "fingerprint"
		if op%4 == 3 {
			key = "unloaded"
		}
		got, _ := reply[key].(string)
		v, err := serve.ParseFingerprint(got)
		if err != nil {
			t.Fatalf("op %d: 200 reply %q: %v", op%4, rec.Body.Bytes(), err)
		}
		if loaded := snap.Version(v) != nil; loaded == (op%4 == 3) {
			t.Fatalf("op %d: 200 reply %q but version loaded = %v", op%4, rec.Body.Bytes(), loaded)
		}
	})
}
