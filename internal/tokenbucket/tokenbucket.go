// Package tokenbucket is the RM's admission rate limiter (DESIGN.md
// §13.1): each rate-limited tenant's submissions draw from a token
// bucket — a submission goes through when a token remains and is
// rejected with a retry hint otherwise, tokens arrive at the tenant's
// rate, and the bucket size bounds bursts.
package tokenbucket

import (
	"sync"
	"time"
)

// Bucket is a token bucket. Bucket is safe for concurrent use.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock for tests
}

// New creates a bucket with the given rate (tokens/s) and burst capacity.
// The bucket starts full.
func New(rate, burst float64) *Bucket {
	return &Bucket{rate: rate, burst: burst, tokens: burst, now: time.Now}
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
