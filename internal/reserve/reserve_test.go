package reserve

import (
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
)

func TestPutGetRelease(t *testing.T) {
	tb := New()
	if tb.Len() != 0 || tb.Held(3) {
		t.Fatal("fresh table not empty")
	}
	tb.Put(3, Reservation{Kind: Starved, Holder: 7})
	tb.Put(1, Reservation{Kind: Gang, Holder: 9, Capacity: resources.New(2, 4, 0, 0, 0, 0), Expires: 10})
	if tb.Len() != 2 || !tb.Held(3) || !tb.Held(1) {
		t.Fatalf("expected 2 held machines, got %d", tb.Len())
	}
	r, ok := tb.Get(3)
	if !ok || r.Holder != 7 || !r.Capacity.IsZero() {
		t.Fatalf("bad starved reservation: %+v ok=%v", r, ok)
	}
	r, ok = tb.Get(1)
	if !ok || r.Holder != 9 || r.Capacity.IsZero() {
		t.Fatalf("bad gang reservation: %+v ok=%v", r, ok)
	}
	if got := tb.Machines(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Machines() not sorted ascending: %v", got)
	}
	if r, ok := tb.Release(3); !ok || r.Holder != 7 {
		t.Fatalf("Release(3) = %+v, %v", r, ok)
	}
	if tb.Held(3) || tb.Len() != 1 {
		t.Fatal("release did not drop entry")
	}
	if _, ok := tb.Release(3); ok {
		t.Fatal("double release reported ok")
	}
}

func TestReleaseHolder(t *testing.T) {
	tb := New()
	tb.Put(0, Reservation{Kind: Gang, Holder: 5})
	tb.Put(2, Reservation{Kind: Gang, Holder: 5})
	tb.Put(4, Reservation{Kind: Starved, Holder: 6})
	var held []int
	tb.Each(func(mid int, r Reservation) {
		if r.Holder == 5 {
			held = append(held, mid)
		}
	})
	if len(held) != 2 || held[0] != 0 || held[1] != 2 {
		t.Fatalf("holder 5 holds %v", held)
	}
	for _, mid := range held {
		if r, ok := tb.Release(mid); !ok || r.Holder != 5 {
			t.Fatalf("Release(%d) = %+v, %v", mid, r, ok)
		}
	}
	if tb.Len() != 1 || !tb.Held(4) {
		t.Fatalf("holder 6's reservation should survive, table: %v", tb.Machines())
	}
}

func TestExpiryAndSweep(t *testing.T) {
	tb := New()
	tb.Put(0, Reservation{Kind: Gang, Holder: 1, Expires: 5})
	tb.Put(1, Reservation{Kind: Gang, Holder: 2, Expires: 20})
	tb.Put(2, Reservation{Kind: Starved, Holder: 3}) // no expiry
	var dropped []int
	n := tb.Sweep(10, nil, func(mid int, r Reservation) { dropped = append(dropped, mid) })
	if n != 1 || len(dropped) != 1 || dropped[0] != 0 {
		t.Fatalf("Sweep(10) removed %v, want [0]", dropped)
	}
	if !tb.Held(1) || !tb.Held(2) {
		t.Fatal("unexpired entries swept")
	}
	// drop predicate removes regardless of expiry, in ascending order.
	dropped = nil
	n = tb.Sweep(0, func(mid int, r Reservation) bool { return r.Kind == Gang }, func(mid int, r Reservation) { dropped = append(dropped, mid) })
	if n != 1 || len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("predicate sweep removed %v, want [1]", dropped)
	}
	if !tb.Held(2) {
		t.Fatal("starved reservation should survive predicate sweep")
	}
}

func TestPutReplaces(t *testing.T) {
	tb := New()
	tb.Put(7, Reservation{Kind: Starved, Holder: 1})
	tb.Put(7, Reservation{Kind: Gang, Holder: 2})
	r, _ := tb.Get(7)
	if r.Holder != 2 || r.Kind != Gang || tb.Len() != 1 {
		t.Fatalf("Put did not replace: %+v len=%d", r, tb.Len())
	}
}
