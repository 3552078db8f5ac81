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
	seen := map[bool]int{}
	for i := 0; i < 200; i++ {
		bo.Reset() // pin the schedule at the first step: expected base 1s
		d := bo.Next()
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("sample %d: delay %v outside [0.8s, 1.2s]", i, d)
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
	for i := 0; i < 6; i++ {
		bo.Next()
	}
	if bo.Attempts() != 6 {
		t.Fatalf("pre-reset: attempts %d", bo.Attempts())
	}
	bo.Reset()
	if bo.Attempts() != 0 {
		t.Fatalf("post-reset: attempts %d", bo.Attempts())
	}
	// The schedule restarts at base.
	if d := bo.Next(); d > 120*time.Millisecond {
		t.Errorf("post-reset first delay %v, want ~base", d)
	}
}

func TestRingBounded(t *testing.T) {
	const extra = 6
	r := NewRing()
	for i := 0; i < DefaultRingCap+extra; i++ {
		r.Append(Record{Time: float64(i), Kind: MachineCrash, Machine: i})
	}
	if r.Len() != DefaultRingCap {
		t.Fatalf("len = %d, want %d", r.Len(), DefaultRingCap)
	}
	if r.Dropped() != extra {
		t.Errorf("dropped = %d, want %d", r.Dropped(), extra)
	}
	recs := r.Snapshot()
	for i, rec := range recs {
		if rec.Machine != extra+i {
			t.Fatalf("record %d = machine %d, want %d (oldest-first order)", i, rec.Machine, extra+i)
		}
	}
}

func TestNewRingDefaultCap(t *testing.T) {
	// A ring's capacity is how many records it holds when the first one
	// is evicted.
	r := NewRing()
	for r.Dropped() == 0 {
		r.Append(Record{})
	}
	if got := r.Len(); got != DefaultRingCap {
		t.Errorf("cap = %d, want %d", got, DefaultRingCap)
	}
}
