package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"subcouple/internal/serve/registry"
)

// maxArtifactBytes bounds a raw .scm body on POST /admin/models. Artifacts
// are compact by construction (the whole point of sparsification), so a
// quarter gigabyte is far above any real model while still refusing a
// runaway upload.
const maxArtifactBytes = 256 << 20

// adminOnly wraps an admin handler with the loopback gate (and the usual
// per-endpoint instrumentation). The admin surface mutates which models the
// daemon serves, so it is restricted to peers on the local host: anything
// arriving over a non-loopback address is refused with 403 before the body
// is read. Fleet operators front this with their own authenticated channel
// (SSH, a sidecar) rather than exposing it.
func (s *Server) adminOnly(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.endpoints.Instrument(name, func(w http.ResponseWriter, r *http.Request) {
		if !isLoopback(r.RemoteAddr) {
			http.Error(w, "admin endpoints accept loopback peers only", http.StatusForbidden)
			return
		}
		h(w, r)
	})
}

// isLoopback reports whether an http.Request.RemoteAddr is a loopback IP.
// Unparseable addresses fail closed.
func isLoopback(remote string) bool {
	host, _, err := net.SplitHostPort(remote)
	if err != nil {
		host = remote
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// adminError maps registry lifecycle errors to admin statuses: a closed
// (draining) registry is 503, an unknown fingerprint 404, an unload refused
// because an alias still points at the version 409, anything else a 400
// caller problem.
func (s *Server) adminError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrRegistryClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, registry.ErrUnknownVersion):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, registry.ErrVersionAliased):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// adminLoadRequest is the JSON POST /admin/models body (path mode).
type adminLoadRequest struct {
	// Path names a .scm artifact on the daemon's filesystem.
	Path string `json:"path"`
}

// adminLoadResponse reports the content address of a loaded artifact.
type adminLoadResponse struct {
	Fingerprint string `json:"fingerprint"`
	// Created is false when the content was already loaded (loading is
	// idempotent by fingerprint).
	Created bool `json:"created"`
}

// handleAdminLoad loads an artifact into the content store without touching
// any alias (POST /admin/swap binds it). Two body forms:
//
//   - application/json: {"path": "/on/daemon/fs/model.scm"} reads the file
//     server-side — the form the -watch loop and operators with shared
//     filesystems use.
//   - anything else: the body IS the raw .scm artifact bytes.
//
// The response carries the fingerprint the store keyed the version by;
// loading identical content twice returns the same fingerprint with
// created=false.
func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) {
	var data []byte
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req adminLoadRequest
		if !ReadJSON(w, r, &req) {
			return
		}
		if req.Path == "" {
			http.Error(w, `admin load: "path" required in JSON body (or POST the raw artifact bytes)`, http.StatusBadRequest)
			return
		}
		var err error
		data, err = os.ReadFile(req.Path)
		if err != nil {
			http.Error(w, fmt.Sprintf("admin load: %v", err), http.StatusBadRequest)
			return
		}
	} else {
		var err error
		data, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
		if err != nil {
			http.Error(w, fmt.Sprintf("admin load: reading body: %v", err), http.StatusBadRequest)
			return
		}
	}
	fp, created, err := s.reg.LoadBytes(data)
	if err != nil {
		s.adminError(w, err)
		return
	}
	WriteJSON(w, adminLoadResponse{Fingerprint: fmt.Sprintf("%016x", fp), Created: created})
}

// adminSwapRequest is the JSON POST /admin/swap body.
type adminSwapRequest struct {
	Alias       string `json:"alias"`
	Fingerprint string `json:"fingerprint"`
}

// adminSwapResponse reports a completed swap: what the alias serves now,
// what it served before (absent on an initial bind), and how long the
// displaced activation took to drain its in-flight applies.
type adminSwapResponse struct {
	Alias        string  `json:"alias"`
	Fingerprint  string  `json:"fingerprint"`
	Previous     string  `json:"previous,omitempty"`
	DrainSeconds float64 `json:"drain_seconds"`
}

// handleAdminSwap points an alias at a loaded version: the new pool is
// built first, the alias flips atomically, and the response returns only
// after the displaced activation drained — so a 200 means the old version
// has fully quiesced and (if unaliased) may be unloaded.
func (s *Server) handleAdminSwap(w http.ResponseWriter, r *http.Request) {
	var req adminSwapRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Alias == "" {
		http.Error(w, `admin swap: "alias" required`, http.StatusBadRequest)
		return
	}
	fp, err := ParseFingerprint(req.Fingerprint)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.reg.Swap(req.Alias, fp)
	if err != nil {
		s.adminError(w, err)
		return
	}
	resp := adminSwapResponse{
		Alias:        req.Alias,
		Fingerprint:  fmt.Sprintf("%016x", res.Fingerprint),
		DrainSeconds: res.Drain.Seconds(),
	}
	if res.HadPrevious {
		resp.Previous = fmt.Sprintf("%016x", res.Previous)
	}
	WriteJSON(w, resp)
}

// handleAdminUnload removes an unaliased version from the content store:
// DELETE /admin/models/{fp}. A version an alias still points at is refused
// with 409 — swap the alias away first.
func (s *Server) handleAdminUnload(w http.ResponseWriter, r *http.Request) {
	fp, err := ParseFingerprint(r.PathValue("fp"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.reg.Unload(fp); err != nil {
		s.adminError(w, err)
		return
	}
	WriteJSON(w, map[string]string{"unloaded": fmt.Sprintf("%016x", fp)})
}

// ParseFingerprint parses the 16-hex-digit content address the rest of the
// system prints (/models, subx -load, extraction logs, the gateway's
// aggregated /models). Exactly 16 hex digits are required — every producer
// formats fingerprints with %016x, so anything shorter is a truncated
// copy-paste that would silently resolve to a different (usually absent,
// occasionally colliding) key rather than the one the operator meant.
// Surrounding whitespace is trimmed so shell-captured values round-trip.
func ParseFingerprint(sv string) (uint64, error) {
	s := strings.TrimSpace(sv)
	if len(s) != 16 {
		return 0, fmt.Errorf("bad fingerprint %q: want exactly 16 hex digits, got %d", sv, len(s))
	}
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad fingerprint %q: want exactly 16 hex digits", sv)
	}
	return fp, nil
}
