package serve

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadRawVectorAllocs pins the raw decode to a fixed allocation count:
// the size-limit reader, one exactly sized body buffer and the decoded
// vector — no doubling growth of the body buffer.
func TestReadRawVectorAllocs(t *testing.T) {
	const n = 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	data := EncodeRawVector(x)
	rd := bytes.NewReader(data)
	req := httptest.NewRequest(http.MethodPost, "/apply", nil)
	body := io.NopCloser(rd)
	w := httptest.NewRecorder()

	var got []float64
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(data)
		req.Body = body
		var ok bool
		if got, ok = readRawVector(w, req, n); !ok {
			t.Fatalf("decode failed: %s", w.Body)
		}
	})
	for i := range x {
		if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], x[i])
		}
	}
	if allocs > 3 {
		t.Fatalf("raw decode of %d float64s: %v allocs per call, want <= 3", n, allocs)
	}
}

// TestReadRawVectorSizes pins the length checks around the exact buffer:
// short, one byte over (caught by the overflow probe) and far over (caught
// by the size limit) all answer 400 with the usual texts.
func TestReadRawVectorSizes(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		size int
		want string
	}{
		{0, "raw body has 0 bytes, want exactly 32"},
		{31, "raw body has 31 bytes, want exactly 32"},
		{33, "raw body has 33 bytes, want exactly 32"},
		{64, "raw body: http: request body too large (want exactly 32 bytes"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/apply", bytes.NewReader(make([]byte, tc.size)))
		w := httptest.NewRecorder()
		if _, ok := readRawVector(w, req, n); ok {
			t.Fatalf("%d-byte body accepted for n=%d", tc.size, n)
		}
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%d-byte body: %d %q, want 400 containing %q", tc.size, w.Code, w.Body, tc.want)
		}
	}
}
