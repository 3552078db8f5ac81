// Package eventq implements the deterministic time-ordered event queue
// that drives the discrete-event simulator. Events at equal timestamps
// pop in insertion order so that simulations are reproducible.
package eventq

// Queue is a binary min-heap of events ordered by (time, insertion
// sequence). The zero value is an empty queue ready for use. Events sit
// in the heap by value, so Push and Pop allocate only when it grows.
type Queue[T any] struct {
	h   []item[T]
	seq uint64
}

type item[T any] struct {
	at    float64
	seq   uint64
	value T
}

// before reports whether h[i] pops before h[j].
func (q *Queue[T]) before(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

// Push schedules value at the given time.
func (q *Queue[T]) Push(at float64, value T) {
	q.seq++
	q.h = append(q.h, item[T]{at: at, seq: q.seq, value: value})
	for j := len(q.h) - 1; j > 0; { // sift the new event up
		i := (j - 1) / 2
		if !q.before(j, i) {
			break
		}
		q.h[i], q.h[j] = q.h[j], q.h[i]
		j = i
	}
}

// Pop removes and returns the earliest event. ok is false when the queue
// is empty.
func (q *Queue[T]) Pop() (at float64, value T, ok bool) {
	n := len(q.h) - 1
	if n < 0 {
		var zero T
		return 0, zero, false
	}
	it := q.h[0]
	q.h[0] = q.h[n]
	q.h[n] = item[T]{} // let GC reclaim the value
	q.h = q.h[:n]
	for i := 0; ; { // sift the moved event down
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q.before(j+1, j) {
			j++
		}
		if !q.before(j, i) {
			break
		}
		q.h[i], q.h[j] = q.h[j], q.h[i]
		i = j
	}
	return it.at, it.value, true
}

// Peek returns the earliest event without removing it.
func (q *Queue[T]) Peek() (at float64, value T, ok bool) {
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.h[0].at, q.h[0].value, true
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) }
