package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty should report !ok")
	}
	if _, _, ok := q.Peek(); ok {
		t.Error("Peek on empty should report !ok")
	}
}

func TestOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	var got []string
	for {
		_, v, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if want := "abc"; got[0]+got[1]+got[2] != want {
		t.Errorf("order = %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 100; i++ {
		_, v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("tie-break pop %d = %d, ok=%v", i, v, ok)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue[int]
	q.Push(1, 42)
	at, v, ok := q.Peek()
	if !ok || at != 1 || v != 42 {
		t.Fatalf("Peek = %v %v %v", at, v, ok)
	}
	if q.Len() != 1 {
		t.Errorf("Peek removed the event")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue[float64]
	r := rand.New(rand.NewSource(3))
	var times []float64
	// Push a batch, pop half, push more: popped sequence must still be
	// globally sorted because new pushes are always in the future here.
	now := 0.0
	var popped []float64
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			at := now + r.Float64()*100
			q.Push(at, at)
			times = append(times, at)
		}
		for i := 0; i < 10; i++ {
			at, v, ok := q.Pop()
			if !ok {
				t.Fatal("queue unexpectedly empty")
			}
			if at != v {
				t.Fatalf("value mismatch: %v %v", at, v)
			}
			popped = append(popped, at)
			now = at
		}
	}
	if !sort.Float64sAreSorted(popped) {
		t.Error("popped times are not sorted")
	}
	if q.Len() != len(times)-len(popped) {
		t.Errorf("Len = %d, want %d", q.Len(), len(times)-len(popped))
	}
}

func TestRandomizedAgainstSort(t *testing.T) {
	var q Queue[int]
	r := rand.New(rand.NewSource(9))
	var want []float64
	for i := 0; i < 1000; i++ {
		at := r.Float64() * 1e6
		q.Push(at, i)
		want = append(want, at)
	}
	sort.Float64s(want)
	for i := 0; i < 1000; i++ {
		at, _, ok := q.Pop()
		if !ok || at != want[i] {
			t.Fatalf("pop %d: at=%v want=%v ok=%v", i, at, want[i], ok)
		}
	}
}

// TestPushPopAllocs pins Push and Pop at zero allocations once the
// queue's storage has grown: events are stored by value, never boxed.
func TestPushPopAllocs(t *testing.T) {
	type event struct {
		kind int
		job  *int
	}
	var q Queue[event]
	step := func() {
		for i := 0; i < 32; i++ {
			q.Push(float64(i%7), event{kind: i})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	step()
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("%v allocs per 32 pushes and pops, want 0", got)
	}
}
