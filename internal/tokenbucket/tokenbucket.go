// Package tokenbucket implements the rate enforcement of §4.2: each
// task's disk and network usage is policed by a token bucket — calls go
// through when enough tokens remain and queue otherwise, tokens arrive at
// the allocated rate, and the bucket size bounds bursts.
package tokenbucket

import (
	"errors"
	"sync"
	"time"
)

// Bucket is a token bucket. Tokens are arbitrary units (the node manager
// uses bytes). Bucket is safe for concurrent use.
type Bucket struct {
	mu       sync.Mutex
	rate     float64 // tokens per second
	burst    float64 // bucket capacity
	tokens   float64
	last     time.Time
	now      func() time.Time // injectable clock for tests
	sleeping func(d time.Duration)
}

// ErrTooLarge is returned by Take when a request exceeds the burst size
// and therefore could never be satisfied.
var ErrTooLarge = errors.New("tokenbucket: request exceeds burst size")

// New creates a bucket with the given rate (tokens/s) and burst capacity.
// The bucket starts full.
func New(rate, burst float64) *Bucket {
	return &Bucket{
		rate:     rate,
		burst:    burst,
		tokens:   burst,
		now:      time.Now,
		sleeping: time.Sleep,
	}
}

// newWithClock is used by tests to control time.
func newWithClock(rate, burst float64, now func() time.Time, sleep func(time.Duration)) *Bucket {
	b := New(rate, burst)
	b.now = now
	b.sleeping = sleep
	b.last = now()
	return b
}

func (b *Bucket) refillLocked(t time.Time) {
	if b.last.IsZero() {
		b.last = t
		return
	}
	dt := t.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.tokens += dt * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = t
}

// TryTake consumes n tokens if available, reporting success. It never
// blocks.
func (b *Bucket) TryTake(n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	if n > b.tokens {
		return false
	}
	b.tokens -= n
	return true
}

// Take consumes n tokens, sleeping until they are available. Requests
// larger than the burst size fail with ErrTooLarge.
func (b *Bucket) Take(n float64) error {
	if n > b.burst {
		return ErrTooLarge
	}
	for {
		b.mu.Lock()
		b.refillLocked(b.now())
		if n <= b.tokens {
			b.tokens -= n
			b.mu.Unlock()
			return nil
		}
		need := n - b.tokens
		var wait time.Duration
		if b.rate > 0 {
			wait = time.Duration(need / b.rate * float64(time.Second))
		} else {
			wait = 10 * time.Millisecond
		}
		b.mu.Unlock()
		b.sleeping(wait)
	}
}

// WaitHint reports how long until n tokens will be available at the
// current refill rate: zero when they already are, and a capped
// pessimistic hint when the bucket cannot ever satisfy the request
// (zero rate, or n beyond the burst size). The RM's admission gate
// stamps it on rate-limit rejections as the RetryAfter backoff hint.
func (b *Bucket) WaitHint(n float64) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	if n <= b.tokens {
		return 0
	}
	if b.rate <= 0 || n > b.burst {
		return time.Second
	}
	return time.Duration((n - b.tokens) / b.rate * float64(time.Second))
}

// Burst returns the bucket capacity.
func (b *Bucket) Burst() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.burst
}
