package obs

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"
)

// HeapSampler tracks the peak Go heap while a measured region runs: a
// background goroutine samples runtime.MemStats.HeapAlloc at a fixed
// interval until Stop. Sampling reads are stop-the-world but take tens of
// microseconds, so at the default interval the overhead is far below timer
// noise; like the rest of this package, sampling never changes what the
// measured code computes. Peaks are lower bounds — an allocation freed
// between two samples can be missed — which is the honest direction for a
// "did memory stay bounded" gate.
type HeapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

// NewHeapSampler starts sampling immediately. interval <= 0 selects 10ms.
func NewHeapSampler(interval time.Duration) *HeapSampler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	h := &HeapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > h.peak.Load() {
			h.peak.Store(ms.HeapAlloc)
		}
	}
	sample() // a baseline sample so Stop never reports zero
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return h
}

// Stop ends sampling, takes one final sample, and returns the peak
// HeapAlloc observed in bytes. Stop must be called exactly once.
func (h *HeapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak.Load() {
		h.peak.Store(ms.HeapAlloc)
	}
	return h.peak.Load()
}

// PeakRSS returns the process's peak resident set size in bytes, read from
// the kernel's VmHWM high-water mark (Linux /proc/self/status). Unlike the
// heap sampler it cannot miss a transient peak, but the mark only rises:
// call ResetPeakRSS before a measured region so the read after it is that
// region's peak rather than the process lifetime's. ok is false when the
// platform does not expose it.
func PeakRSS() (bytes_ uint64, ok bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	return parseVmHWM(data)
}

// ResetPeakRSS returns as much memory as possible to the OS
// (debug.FreeOSMemory, which also collects the heap) and then resets the
// kernel's VmHWM high-water mark to the current RSS by writing "5" to
// /proc/self/clear_refs (Linux). It reports whether the reset happened; when
// it did not, a later PeakRSS read is still the lifetime peak and must not
// be reported as the region's.
func ResetPeakRSS() bool {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil
}

// parseVmHWM extracts the "VmHWM: <n> kB" line from a /proc status blob.
func parseVmHWM(data []byte) (uint64, bool) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0, false
		}
		kb, err := strconv.ParseUint(string(fields[0]), 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}
