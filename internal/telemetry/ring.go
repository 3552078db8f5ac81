package telemetry

import "sync"

// Ring is a bounded FIFO of structured records, the event-stream
// counterpart to the metric registry. It keeps the most recent Cap
// records and counts evictions instead of growing without bound, so a
// long-running component under churn cannot grow its log forever; it is
// generic so each component carries its own record type (scheduler
// decision traces, fault events, ...).
type Ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	start   int
	n       int
	dropped uint64
}

// NewRing returns a ring holding at most capacity records.
// capacity <= 0 panics: an unbounded event stream defeats the point.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("telemetry: NewRing capacity must be positive")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Append adds rec, evicting the oldest record when full.
func (r *Ring[T]) Append(rec T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendLocked(rec)
}

func (r *Ring[T]) appendLocked(rec T) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = rec
		r.n++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Snapshot returns the retained records, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Len returns the number of retained records.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many records have been evicted to make room.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Restore replaces the contents with recs (oldest first) and the
// eviction count with dropped; records beyond capacity are evicted
// oldest-first and counted. Snapshot restore rebuilds a log with it.
func (r *Ring[T]) Restore(recs []T, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.start, r.n, r.dropped = 0, 0, dropped
	for _, rec := range recs {
		r.appendLocked(rec)
	}
}
