package faults

import (
	"math/rand"
	"time"
)

// Backoff produces exponentially growing delays with multiplicative
// jitter, for reconnect loops (NM→RM, AM→RM). Jitter prevents a
// cluster's worth of node managers from reconnecting in lockstep after
// an RM restart (thundering herd).
type Backoff struct {
	// Base is the first delay (default 100 ms).
	Base time.Duration
	// Max caps the delay (default 5 s).
	Max time.Duration
	// Seed seeds the jitter stream (default 1); set per node ID so a
	// fleet of NMs jitters apart deterministically.
	Seed int64

	rand    *rand.Rand // seeded from Seed at the first Next
	attempt int
}

// backoffJitter is the fraction of each delay randomized: a delay d is
// returned uniform in [d·(1−backoffJitter), d·(1+backoffJitter)].
const backoffJitter = 0.2

// NewBackoff returns a Backoff with the given base and cap, 20% jitter,
// and a deterministic jitter stream derived from seed.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	return &Backoff{Base: base, Max: max, Seed: seed}
}

// Next returns the delay before the next attempt and advances the
// schedule: base·2^attempt, capped at Max, jittered.
func (b *Backoff) Next() time.Duration {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	if b.rand == nil {
		seed := b.Seed
		if seed == 0 {
			seed = 1
		}
		b.rand = rand.New(rand.NewSource(seed))
	}
	d := base << uint(b.attempt)
	if d > max || d < base { // d < base on shift overflow
		d = max
	}
	if b.attempt < 62 {
		b.attempt++
	}
	f := 1 + backoffJitter*(2*b.rand.Float64()-1)
	d = time.Duration(float64(d) * f)
	if d < 0 {
		d = base
	}
	return d
}

// NextAtLeast is Next raised to floor when floor is longer, jittered
// upward by up to backoffJitter·floor so a fleet told to wait together
// does not retry together.
func (b *Backoff) NextAtLeast(floor time.Duration) time.Duration {
	d := b.Next()
	if floor > d {
		d = floor + time.Duration(backoffJitter*float64(floor)*b.rand.Float64())
	}
	return d
}

// Attempts returns how many delays have been handed out since the last
// Reset.
func (b *Backoff) Attempts() int { return b.attempt }

// Reset restarts the schedule after a successful attempt: the next delay
// is Base again.
func (b *Backoff) Reset() { b.attempt = 0 }
