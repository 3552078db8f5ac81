package wire

import "github.com/tetris-sched/tetris/internal/resources"

// DeltaTracker implements the sender side of delta availability
// reports: it remembers the Used vector of the last heartbeat the RM
// acknowledged and compresses an outgoing heartbeat to a delta when
// nothing changed. The invariant the RM relies on — a delta beat's
// implied vector equals the RM's current view — holds because the
// baseline only advances on Ack (the reply was read, so the RM
// definitely applied the report) and is dropped whenever that certainty
// lapses: a fresh session (Reset) or an RM-side view reset
// (NMReply.FullReport).
//
// The zero value is ready to use and has no baseline, so the first
// marked heartbeat is always full. Not safe for concurrent use; each
// node's heartbeat loop owns one tracker.
type DeltaTracker struct {
	valid bool
	used  resources.Vector

	// The beat in flight, recorded by Mark and committed by Ack.
	pendingDelta bool
	pendingUsed  resources.Vector
}

// Reset invalidates the baseline. Call at the start of every session
// (connect or reconnect): an unacknowledged beat may or may not have
// reached the RM, so only a full report can re-establish agreement.
func (d *DeltaTracker) Reset() { d.valid = false }

// Mark compresses hb in place: when hb's Used is bit-identical to the
// acknowledged baseline it sets Delta and clears Used, otherwise it
// leaves hb as a full report. Returns whether the beat went out full.
// Call exactly once per heartbeat, after filling Used and before
// writing the frame.
func (d *DeltaTracker) Mark(hb *NMHeartbeat) (full bool) {
	if d.valid && hb.Used == d.used {
		hb.Delta = true
		hb.Used = resources.Vector{}
		d.pendingDelta = true
		return false
	}
	hb.Delta = false
	d.pendingDelta = false
	d.pendingUsed = hb.Used
	return true
}

// Ack commits the in-flight beat after its reply was read: a full beat
// becomes the new baseline, a delta beat leaves it unchanged. A reply
// carrying FullReport drops the baseline — the RM reset its view and
// the next beat must be full. Only call after a successful reply read;
// on any transport error, Reset instead.
func (d *DeltaTracker) Ack(reply *NMReply) {
	if !d.pendingDelta {
		d.used = d.pendingUsed
		d.valid = true
	}
	if reply != nil && reply.FullReport {
		d.valid = false
	}
}
