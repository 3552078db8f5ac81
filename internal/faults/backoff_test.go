package faults

import (
	"testing"
	"time"
)

func TestBackoffGrowsAndSaturatesAtCap(t *testing.T) {
	bo := NewBackoff(100*time.Millisecond, 2*time.Second, 1)
	prevMax := time.Duration(0)
	for i := 0; i < 20; i++ {
		d := bo.Next()
		// Every delay respects the jittered cap.
		if hi := time.Duration(float64(2*time.Second) * 1.2); d > hi {
			t.Fatalf("attempt %d: delay %v above jittered cap %v", i, d, hi)
		}
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", i, d)
		}
		if i >= 8 {
			// Well past saturation (100ms·2^5 > 2s): delays hover at the
			// cap, within jitter.
			if lo := time.Duration(float64(2*time.Second) * 0.8); d < lo {
				t.Fatalf("attempt %d: saturated delay %v below %v", i, d, lo)
			}
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if bo.Attempts() != 20 {
		t.Errorf("Attempts = %d, want 20", bo.Attempts())
	}
}

func TestBackoffZeroAndNegativeBase(t *testing.T) {
	for _, base := range []time.Duration{0, -time.Second} {
		bo := &Backoff{Base: base, Max: 5 * time.Second, Seed: 3}
		d := bo.Next()
		// The 100ms default applies, within 20% jitter.
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Errorf("base %v: first delay %v outside default [80ms,120ms]", base, d)
		}
	}
	// Negative/zero Max falls back to the 5s default rather than
	// producing zero or negative caps.
	bo := &Backoff{Base: 100 * time.Millisecond, Max: -1, Seed: 3}
	for i := 0; i < 12; i++ {
		if d := bo.Next(); d > time.Duration(float64(5*time.Second)*1.2) || d <= 0 {
			t.Fatalf("attempt %d with negative Max: delay %v", i, d)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	bo := NewBackoff(time.Second, time.Hour, 7)
	bo.Jitter = 0.5
	seen := map[bool]int{}
	for i := 0; i < 200; i++ {
		bo.Reset() // pin the schedule at the first step: expected base 1s
		d := bo.Next()
		if d < 500*time.Millisecond || d > 1500*time.Millisecond {
			t.Fatalf("sample %d: delay %v outside [0.5s, 1.5s]", i, d)
		}
		seen[d > time.Second]++
	}
	// The jitter actually spreads both ways.
	if seen[true] == 0 || seen[false] == 0 {
		t.Errorf("jitter one-sided: %v", seen)
	}
}

func TestBackoffOverflowShiftClampsToMax(t *testing.T) {
	bo := NewBackoff(time.Second, 30*time.Second, 1)
	// Drive the attempt counter far past where base<<attempt overflows.
	for i := 0; i < 200; i++ {
		d := bo.Next()
		if d <= 0 || d > time.Duration(float64(30*time.Second)*1.2) {
			t.Fatalf("attempt %d: delay %v escaped the cap", i, d)
		}
	}
}

func TestBackoffResetAfterSuccess(t *testing.T) {
	bo := NewBackoff(100*time.Millisecond, 5*time.Second, 2)
	bo.MaxElapsed = time.Minute
	for i := 0; i < 6; i++ {
		bo.Next()
	}
	if bo.Attempts() != 6 || bo.Elapsed() == 0 {
		t.Fatalf("pre-reset: attempts %d elapsed %v", bo.Attempts(), bo.Elapsed())
	}
	bo.Reset()
	if bo.Attempts() != 0 || bo.Elapsed() != 0 || bo.Exhausted() {
		t.Fatalf("post-reset: attempts %d elapsed %v exhausted %v",
			bo.Attempts(), bo.Elapsed(), bo.Exhausted())
	}
	// The schedule restarts at base.
	if d := bo.Next(); d > 120*time.Millisecond {
		t.Errorf("post-reset first delay %v, want ~base", d)
	}
}

func TestBackoffMaxElapsedCutoff(t *testing.T) {
	bo := NewBackoff(100*time.Millisecond, time.Second, 5)
	bo.MaxElapsed = 3 * time.Second
	if bo.Exhausted() {
		t.Fatal("exhausted before any delay")
	}
	spent := time.Duration(0)
	for i := 0; i < 100 && !bo.Exhausted(); i++ {
		spent += bo.Next()
	}
	if !bo.Exhausted() {
		t.Fatal("budget never exhausted")
	}
	if spent < 3*time.Second {
		t.Errorf("exhausted after only %v of a 3s budget", spent)
	}
	if spent != bo.Elapsed() {
		t.Errorf("Elapsed = %v, want %v", bo.Elapsed(), spent)
	}
	// Zero MaxElapsed means no cutoff.
	free := NewBackoff(time.Second, time.Second, 1)
	for i := 0; i < 50; i++ {
		free.Next()
	}
	if free.Exhausted() {
		t.Error("Exhausted with zero MaxElapsed")
	}
}

func TestRingBounded(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(Record{Time: float64(i), Kind: MachineCrash, Machine: i})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
	recs := r.Snapshot()
	for i, rec := range recs {
		if rec.Machine != 6+i {
			t.Fatalf("record %d = machine %d, want %d (oldest-first order)", i, rec.Machine, 6+i)
		}
	}
}

func TestNewRingDefaultCap(t *testing.T) {
	// A ring's capacity is how many records it holds when the first one
	// is evicted.
	held := func(c int) int {
		r := NewRing(c)
		for r.Dropped() == 0 {
			r.Append(Record{})
		}
		return r.Len()
	}
	if got := held(0); got != DefaultRingCap {
		t.Errorf("default cap = %d, want %d", got, DefaultRingCap)
	}
	if got := held(3); got != 3 {
		t.Errorf("cap = %d, want 3", got)
	}
}
