package tokenbucket

import (
	"sync"
	"testing"
	"time"
)

// fakeClock lets tests advance time manually; Sleep advances the clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFake(rate, burst float64) (*Bucket, *fakeClock) {
	c := &fakeClock{t: time.Unix(0, 0)}
	return newWithClock(rate, burst, c.now, c.sleep), c
}

func TestStartsFull(t *testing.T) {
	b, _ := newFake(10, 100)
	if d := b.WaitHint(100); d != 0 {
		t.Errorf("WaitHint(100) = %v, want 0 (starts full)", d)
	}
	if !b.TryTake(100) {
		t.Error("full burst should be takeable")
	}
	if b.TryTake(1) {
		t.Error("bucket should be empty now")
	}
}

func TestRefillRate(t *testing.T) {
	b, c := newFake(10, 100)
	b.TryTake(100)
	c.sleep(5 * time.Second) // 50 tokens refill
	if d0, d1 := b.WaitHint(50), b.WaitHint(51); d0 != 0 || d1 != 100*time.Millisecond {
		t.Errorf("after 5s: WaitHint(50), WaitHint(51) = %v, %v, want 0, 100ms (50 tokens)", d0, d1)
	}
	c.sleep(100 * time.Second) // caps at burst
	if !b.TryTake(100) || b.TryTake(1) {
		t.Error("after long idle the bucket should hold exactly the burst")
	}
}

func TestTakeBlocksUntilAvailable(t *testing.T) {
	b, c := newFake(10, 100)
	b.TryTake(100)
	start := c.now()
	if err := b.Take(30); err != nil {
		t.Fatalf("Take: %v", err)
	}
	elapsed := c.now().Sub(start).Seconds()
	if elapsed < 2.9 || elapsed > 3.5 {
		t.Errorf("Take(30) at 10/s took %vs, want ≈ 3s", elapsed)
	}
}

func TestTakeTooLarge(t *testing.T) {
	b, _ := newFake(10, 100)
	if err := b.Take(101); err != ErrTooLarge {
		t.Errorf("Take(>burst) = %v, want ErrTooLarge", err)
	}
}

// TestZeroRateStillPolls: at zero rate no refill time can be computed,
// so Take sleeps a fixed poll interval and re-checks rather than
// dividing by zero.
func TestZeroRateStillPolls(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	var waits []time.Duration
	var b *Bucket
	b = newWithClock(0, 10, c.now, func(d time.Duration) {
		waits = append(waits, d)
		if len(waits) == 3 { // tokens arrive from outside on the third poll
			b.mu.Lock()
			b.tokens = 10
			b.mu.Unlock()
		}
	})
	b.TryTake(10)
	if err := b.Take(5); err != nil {
		t.Fatalf("Take: %v", err)
	}
	if len(waits) != 3 || waits[0] != 10*time.Millisecond {
		t.Errorf("polls = %v, want three of 10ms", waits)
	}
}

func TestEnforcedThroughputApproximatesRate(t *testing.T) {
	// Simulate a task writing 1000 units at 100 units/s with burst 50:
	// total time must be ≈ 10s (within fluid rounding).
	b, c := newFake(100, 50)
	start := c.now()
	for i := 0; i < 20; i++ {
		if err := b.Take(50); err != nil {
			t.Fatalf("Take: %v", err)
		}
	}
	elapsed := c.now().Sub(start).Seconds()
	if elapsed < 9 || elapsed > 11 {
		t.Errorf("1000 units at 100/s took %vs, want ≈ 10s", elapsed)
	}
}

func TestConcurrentTryTakeConservesTokens(t *testing.T) {
	b := New(0, 1000) // real clock, zero refill: fixed pool
	var wg sync.WaitGroup
	var mu sync.Mutex
	taken := 0.0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if b.TryTake(1) {
					mu.Lock()
					taken++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if taken != 1000 {
		t.Errorf("taken = %v, want exactly 1000", taken)
	}
}

func TestWaitHint(t *testing.T) {
	b, _ := newFake(10, 100)
	if d := b.WaitHint(50); d != 0 {
		t.Errorf("hint with tokens available = %v, want 0", d)
	}
	b.TryTake(100)
	// 30 tokens at 10/s: 3 seconds away.
	if d := b.WaitHint(30); d != 3*time.Second {
		t.Errorf("hint for 30 tokens at 10/s = %v, want 3s", d)
	}
	// Beyond the burst: a capped pessimistic hint, not an unbounded wait.
	if d := b.WaitHint(1000); d != time.Second {
		t.Errorf("hint beyond burst = %v, want the 1s cap", d)
	}
	z, _ := newFake(0, 10)
	z.TryTake(10)
	if d := z.WaitHint(1); d != time.Second {
		t.Errorf("hint at zero rate = %v, want the 1s cap", d)
	}
}

// TestConcurrentMixedOps hammers every method from many goroutines under
// the race detector: Take and TryTake racing the read-side accessors
// must stay data-race free.
func TestConcurrentMixedOps(t *testing.T) {
	b := New(1e6, 1000) // fast refill so Take never parks for long
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch i % 3 {
				case 0:
					b.TryTake(float64(1 + i%7))
				case 1:
					if err := b.Take(float64(1 + i%5)); err != nil {
						t.Errorf("Take: %v", err)
					}
				default:
					b.WaitHint(float64(1 + seed))
					b.Burst()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBurstThenDrain exercises the bursty-tenant shape the RM's
// admission gate polices: a full-burst spike goes through at once, the
// drained bucket throttles, and a quiet period restores exactly the
// refill-rate worth of credit.
func TestBurstThenDrain(t *testing.T) {
	b, c := newFake(5, 20)
	for i := 0; i < 20; i++ {
		if !b.TryTake(1) {
			t.Fatalf("burst submission %d throttled with tokens available", i)
		}
	}
	if b.TryTake(1) {
		t.Error("drained bucket admitted a submission")
	}
	if d := b.WaitHint(1); d != 200*time.Millisecond {
		t.Errorf("drained hint = %v, want 200ms (1 token at 5/s)", d)
	}
	c.sleep(2 * time.Second) // 10 tokens back
	for i := 0; i < 10; i++ {
		if !b.TryTake(1) {
			t.Fatalf("refilled token %d not granted", i)
		}
	}
	if b.TryTake(1) {
		t.Error("bucket granted more than the refill")
	}
}
