package telemetry

import (
	"reflect"
	"testing"
)

func TestRingAppendAndEvict(t *testing.T) {
	r := NewRing[int](3)
	if r.Cap() != 3 || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("fresh ring state wrong")
	}
	for i := 1; i <= 5; i++ {
		r.Append(i)
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("Snapshot = %v, want [3 4 5]", got)
	}
	if r.Len() != 3 || r.Dropped() != 2 {
		t.Fatalf("Len = %d Dropped = %d, want 3/2", r.Len(), r.Dropped())
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing[string](4)
	r.Append("a")
	r.Append("b")
	if got := r.Snapshot(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Snapshot = %v", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestRingRestore(t *testing.T) {
	r := NewRing[int](3)
	r.Append(9)
	r.Restore([]int{1, 2}, 5)
	if r.Len() != 2 || r.Dropped() != 5 {
		t.Fatalf("after restore: Len = %d Dropped = %d, want 2/5", r.Len(), r.Dropped())
	}
	r.Append(3)
	r.Append(4)
	if got := r.Snapshot(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("Snapshot = %v, want [2 3 4]", got)
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	// More records than capacity: the oldest are evicted and counted.
	r.Restore([]int{1, 2, 3, 4}, 0)
	if got := r.Snapshot(); !reflect.DeepEqual(got, []int{2, 3, 4}) || r.Dropped() != 1 {
		t.Fatalf("over-capacity restore: Snapshot = %v Dropped = %d, want [2 3 4]/1", got, r.Dropped())
	}
}

func TestRingZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewRing[int](0)
}
