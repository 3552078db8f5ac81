package wire

import (
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
)

func beat(used resources.Vector) *NMHeartbeat {
	return &NMHeartbeat{NodeID: 1, Used: used}
}

func TestDeltaTrackerFirstBeatIsFull(t *testing.T) {
	var d DeltaTracker
	hb := beat(resources.Vector{})
	if full := d.Mark(hb); !full {
		t.Fatal("first beat compressed to delta without a baseline")
	}
	if hb.Delta {
		t.Fatal("Delta set on a full beat")
	}
}

func TestDeltaTrackerSteadyState(t *testing.T) {
	var d DeltaTracker
	u := resources.New(4, 8, 0, 0, 0, 0)

	hb := beat(u)
	d.Mark(hb)
	d.Ack(&NMReply{})

	// Unchanged usage compresses; the vector is cleared on the frame.
	hb = beat(u)
	if full := d.Mark(hb); full {
		t.Fatal("unchanged beat not compressed")
	}
	if !hb.Delta || !hb.Used.IsZero() {
		t.Fatalf("delta beat not cleared: %+v", hb)
	}
	d.Ack(&NMReply{})

	// A change forces a full report and advances the baseline on Ack.
	u2 := resources.New(6, 8, 0, 0, 0, 0)
	hb = beat(u2)
	if full := d.Mark(hb); !full {
		t.Fatal("changed beat compressed")
	}
	d.Ack(&NMReply{})
	hb = beat(u2)
	if full := d.Mark(hb); full {
		t.Fatal("baseline did not advance to the acked full beat")
	}
}

func TestDeltaTrackerUnackedFullDoesNotAdvance(t *testing.T) {
	var d DeltaTracker
	u := resources.New(2, 2, 0, 0, 0, 0)
	d.Mark(beat(u))
	// No Ack: the reply was never read, so the RM may not have applied
	// the report. The next identical beat must still go out full.
	hb := beat(u)
	if full := d.Mark(hb); !full {
		t.Fatal("compressed against an unacknowledged baseline")
	}
}

func TestDeltaTrackerFullReportResetsBaseline(t *testing.T) {
	var d DeltaTracker
	u := resources.New(2, 2, 0, 0, 0, 0)
	d.Mark(beat(u))
	d.Ack(&NMReply{FullReport: true}) // RM reset its view
	hb := beat(u)
	if full := d.Mark(hb); !full {
		t.Fatal("compressed after the RM requested a full report")
	}
}

func TestDeltaTrackerResetDropsBaseline(t *testing.T) {
	var d DeltaTracker
	u := resources.New(2, 2, 0, 0, 0, 0)
	d.Mark(beat(u))
	d.Ack(&NMReply{})
	d.Reset() // new session
	hb := beat(u)
	if full := d.Mark(hb); !full {
		t.Fatal("compressed across a session boundary")
	}
}
