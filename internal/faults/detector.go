package faults

import (
	"math"
	"sort"
)

// Detector is a heartbeat-timeout failure detector: a node that has not
// beaten for longer than the timeout is declared dead. The resource
// manager feeds it from heartbeat processing and asks for expirations;
// time is the caller's clock (seconds), so tests drive it
// deterministically. Not safe for concurrent use — callers serialize
// (the RM holds its mutex).
type Detector struct {
	timeout  float64
	lastSeen map[int]float64
	// oldest is a lower bound on every stamp in lastSeen: exact after a
	// scan, lowered by an earlier-stamped Beat, never raised in between
	// (a re-Beat of the oldest node only makes it loose). Until
	// the clock passes oldest+timeout nothing can have expired, so
	// Expired — asked on every heartbeat — returns without scanning.
	oldest float64
}

// NewDetector creates a detector declaring nodes dead after timeout
// seconds of silence.
func NewDetector(timeout float64) *Detector {
	return &Detector{timeout: timeout, lastSeen: make(map[int]float64), oldest: math.Inf(1)}
}

// Beat records life from a node at the given time.
func (d *Detector) Beat(id int, now float64) {
	d.lastSeen[id] = now
	if now < d.oldest {
		d.oldest = now
	}
}

// Expired returns, in ascending ID order, the nodes whose last beat is
// older than the timeout, and stops tracking them — each death is
// reported exactly once until the node beats again.
func (d *Detector) Expired(now float64) []int {
	// Same expression as the per-node test below, on the lower bound:
	// now-at is monotone in at, so if it fails here it fails for all.
	if !(now-d.oldest > d.timeout) {
		return nil
	}
	var out []int
	oldest := math.Inf(1)
	for id, at := range d.lastSeen {
		if now-at > d.timeout {
			out = append(out, id)
		} else if at < oldest {
			oldest = at
		}
	}
	d.oldest = oldest
	sort.Ints(out)
	for _, id := range out {
		delete(d.lastSeen, id)
	}
	return out
}
