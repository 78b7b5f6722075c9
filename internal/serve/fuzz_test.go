package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"subcouple/internal/core"
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
