package par

import "sync"

// FreeList is a concurrency-safe stack of reusable values, typically
// scratch buffers that hot loops check out and return. Unlike sync.Pool it
// never drops what it holds (not at a GC, not under the race detector), so a
// steady state that returns everything it takes allocates nothing, and the
// list grows only to the peak number of concurrent users.
type FreeList[T any] struct {
	// New makes a value when the list is empty.
	New func() T

	mu   sync.Mutex
	free []T
}

// Get pops a value, or makes one with New if none is free.
func (f *FreeList[T]) Get() T {
	f.mu.Lock()
	if k := len(f.free); k > 0 {
		v := f.free[k-1]
		f.free = f.free[:k-1]
		f.mu.Unlock()
		return v
	}
	f.mu.Unlock()
	return f.New()
}

// Put returns v for reuse by a later Get.
func (f *FreeList[T]) Put(v T) {
	f.mu.Lock()
	f.free = append(f.free, v)
	f.mu.Unlock()
}
