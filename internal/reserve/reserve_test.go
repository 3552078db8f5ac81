package reserve

import "testing"

func TestPutGetRelease(t *testing.T) {
	tb := New()
	if len(tb.Machines()) != 0 || tb.Held(3) {
		t.Fatal("fresh table not empty")
	}
	tb.Put(3, Reservation{Kind: Starved, Holder: 7})
	tb.Put(1, Reservation{Kind: Gang, Holder: 9})
	if len(tb.Machines()) != 2 || !tb.Held(3) || !tb.Held(1) {
		t.Fatalf("expected 2 held machines, got %d", len(tb.Machines()))
	}
	r, ok := tb.Get(3)
	if !ok || r.Holder != 7 || r.Kind != Starved {
		t.Fatalf("bad starved reservation: %+v ok=%v", r, ok)
	}
	r, ok = tb.Get(1)
	if !ok || r.Holder != 9 || r.Kind != Gang {
		t.Fatalf("bad gang reservation: %+v ok=%v", r, ok)
	}
	if got := tb.Machines(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Machines() not sorted ascending: %v", got)
	}
	if r, ok := tb.Release(3); !ok || r.Holder != 7 {
		t.Fatalf("Release(3) = %+v, %v", r, ok)
	}
	if tb.Held(3) || len(tb.Machines()) != 1 {
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
	if len(tb.Machines()) != 1 || !tb.Held(4) {
		t.Fatalf("holder 6's reservation should survive, table: %v", tb.Machines())
	}
}

func TestSweep(t *testing.T) {
	tb := New()
	tb.Put(0, Reservation{Kind: Gang, Holder: 1})
	tb.Put(1, Reservation{Kind: Gang, Holder: 2})
	tb.Put(2, Reservation{Kind: Starved, Holder: 3})
	tb.Sweep(func(r Reservation) bool { return r.Kind == Gang })
	if got := tb.Machines(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after a gang sweep the table holds %v, want [2]", got)
	}
	tb.Sweep(func(Reservation) bool { return false })
	if !tb.Held(2) {
		t.Fatal("a sweep that drops nothing removed the starved reservation")
	}
}

func TestPutReplaces(t *testing.T) {
	tb := New()
	tb.Put(7, Reservation{Kind: Starved, Holder: 1})
	tb.Put(7, Reservation{Kind: Gang, Holder: 2})
	r, _ := tb.Get(7)
	if r.Holder != 2 || r.Kind != Gang || len(tb.Machines()) != 1 {
		t.Fatalf("Put did not replace: %+v len=%d", r, len(tb.Machines()))
	}
}
