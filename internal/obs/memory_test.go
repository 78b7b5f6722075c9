package obs

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestHeapSamplerSeesAllocation pins that the sampler's peak covers a large
// allocation held across its sampling window.
func TestHeapSamplerSeesAllocation(t *testing.T) {
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	h := NewHeapSampler(time.Millisecond)
	big := make([]float64, 8<<20) // 64 MB, held until after Stop
	for i := range big {
		big[i] = float64(i)
	}
	time.Sleep(10 * time.Millisecond)
	peak := h.Stop()
	if peak < before.HeapAlloc+uint64(len(big))*8 {
		t.Fatalf("peak %d bytes did not cover the %d-byte allocation (baseline %d)",
			peak, len(big)*8, before.HeapAlloc)
	}
	runtime.KeepAlive(big)
}

// TestHeapSamplerStopIsFinalSample pins that Stop itself samples, so even a
// zero-duration window reports a nonzero live heap.
func TestHeapSamplerStopIsFinalSample(t *testing.T) {
	if peak := NewHeapSampler(time.Hour).Stop(); peak == 0 {
		t.Fatalf("instant Stop reported zero heap")
	}
}

func TestParseVmHWM(t *testing.T) {
	blob := []byte("Name:\tfoo\nVmPeak:\t  999 kB\nVmHWM:\t  4321 kB\nVmRSS:\t 100 kB\n")
	got, ok := parseVmHWM(blob)
	if !ok || got != 4321*1024 {
		t.Fatalf("parseVmHWM = %d, %v; want %d, true", got, ok, 4321*1024)
	}
	if _, ok := parseVmHWM([]byte("Name:\tfoo\n")); ok {
		t.Fatalf("parseVmHWM accepted a blob without VmHWM")
	}
	if _, ok := parseVmHWM([]byte("VmHWM:\tgarbage kB\n")); ok {
		t.Fatalf("parseVmHWM accepted garbage")
	}
}

// TestPeakRSS checks the live read on platforms that expose it; elsewhere it
// only requires a clean ok=false.
func TestPeakRSS(t *testing.T) {
	rss, ok := PeakRSS()
	if runtime.GOOS == "linux" {
		if !ok || rss == 0 {
			t.Fatalf("PeakRSS on linux = %d, %v", rss, ok)
		}
	} else if ok && rss == 0 {
		t.Fatalf("PeakRSS reported ok with zero value")
	}
}

// TestResetPeakRSS pins the per-region peak: after a transient 64 MB
// allocation has raised VmHWM and been freed, ResetPeakRSS brings the mark
// back down to the (smaller) current RSS. Skips where /proc/self/clear_refs
// is not writable.
func TestResetPeakRSS(t *testing.T) {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("/proc/self/clear_refs not writable: %v", err)
	}
	f.Close()
	const size = 64 << 20
	func() {
		big := make([]byte, size)
		for i := 0; i < len(big); i += 4096 {
			big[i] = 1 // touch every page so it is resident
		}
		runtime.KeepAlive(big)
	}()
	high, ok := PeakRSS()
	if !ok {
		t.Skip("no VmHWM on this platform")
	}
	if !ResetPeakRSS() {
		t.Fatal("ResetPeakRSS failed although clear_refs is writable")
	}
	low, ok := PeakRSS()
	if !ok {
		t.Fatal("PeakRSS unreadable after reset")
	}
	if low+size/2 > high {
		t.Fatalf("peak RSS %d bytes after reset, %d before: the freed %d-byte allocation still counts", low, high, size)
	}
}
