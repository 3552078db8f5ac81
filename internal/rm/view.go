package rm

// The persistent scheduling view and the round triggers.
//
// A shard keeps one scheduler.View for its whole life and the apply*
// functions keep it current, the way internal/sim keeps s.view: the
// dense machine slice grows with the node table (ledger.go), the
// ID-ordered active-job list changes on submit / finish / abandon /
// snapshot restore, and the capacity aggregates (Total, the
// largest-machine vector the estimator closure clamps to) are
// recomputed in ID order once before the next round that needs them. A
// round therefore builds nothing.
//
// Rounds run on heartbeats, but only when one can matter (roundDue): an
// input of Schedule changed since the last round, the last round acted,
// or runnable work is waiting and a heartbeat interval has passed
// without a round. Everything else is a beat that changes nothing and
// costs a ledger apply and a reply.
//
// Not done here: the machine slice is still indexed by machine ID, so a
// shard of an N-shard fleet carries a Down placeholder in every slot a
// sibling owns (allocated once, not per round) — a compact ID→slot index
// needs the scheduler cores to stop treating Machines[i].ID == i as
// given; and finished jobs stay in s.jobs (drivers poll them, recovery
// compares JobIDs), off every hot path but never evicted.

import (
	"fmt"
	"slices"
	"sort"

	"github.com/tetris-sched/tetris/internal/resources"
)

// roundCause says why a scheduling round ran; it labels
// tetris_rm_rounds_total.
type roundCause uint8

const (
	causeNone roundCause = iota
	// Inputs of Schedule that changed since the last round, rarest first:
	// when several changed, the round is counted under the earliest here
	// (markDirty), so a fleet's constant usage churn cannot hide the
	// submissions. Reclaims, lost launches and job abandonment only
	// happen inside node events (death, resync) or inside a round, so
	// they need no cause of their own.
	causeSubmit     // a job arrived
	causeNode       // a node registered, rejoined, died or resynced; also the state a shard starts or recovers in
	causeCompletion // a task completed, perhaps finishing its job
	causeUsage      // a full report changed a machine's Reported
	// The last round placed, preempted, committed or released something,
	// so the view it would see now differs from the one it decided on.
	causeFollowup
	// The heartbeat-interval floor: see roundDue.
	causeInterval
	numCauses
)

var causeNames = [numCauses]string{
	causeSubmit: "submit", causeNode: "node", causeCompletion: "completion",
	causeUsage: "usage", causeFollowup: "followup", causeInterval: "interval",
}

// markDirty records that an input of Schedule changed; the next beat
// runs a round, named after the rarest kind of change since the last
// one. Caller holds s.mu.
func (s *Server) markDirty(c roundCause) {
	if s.dirty == causeNone || c < s.dirty {
		s.dirty = c
	}
	s.mayRound.Store(true)
}

// roundDue decides whether the beat from node runs a scheduling round,
// and why. Besides changed inputs and follow-ups there is one
// time-driven trigger: while runnable work sits unplaced, a node whose
// own previous beat has seen no round since runs one. Across a fleet
// that is one round per heartbeat interval — the cadence internal/sim
// uses (heartbeatSec) — and it is what keeps every clock-driven
// guard ticking (starvation reservations, gang hoard timeouts and
// preemption waits, reservation expiry, rotating locality cursors)
// without the RM knowing which policy it wraps. A skipped round is thus
// one whose view equals that of a round that just returned nothing.
// Caller holds s.mu.
func (s *Server) roundDue(n *node) roundCause {
	switch {
	case len(s.view.Jobs) == 0:
		// Nothing to place whatever changed; the next submit marks dirty.
		s.dirty, s.followup, s.unplaced = causeNone, false, false
		s.mayRound.Store(false)
		return causeNone
	case s.dirty != causeNone:
		return s.dirty
	case s.followup:
		return causeFollowup
	case s.unplaced && n.beatRound == s.rounds:
		return causeInterval
	}
	return causeNone
}

// hasRunnable reports whether any active job has a pending task in a
// ready stage. Caller holds s.mu.
func (s *Server) hasRunnable() bool {
	for _, ji := range s.active {
		if ji.state.Status.HasRunnable() {
			return true
		}
	}
	return false
}

// refreshCaps recomputes the capacity aggregates if a registration
// changed a capacity since they were last computed. The sum runs in ID
// order so that a live shard and its journal-recovered twin, which may
// have met the machines in different orders, hold bit-identical totals;
// placeholders have zero capacity and drop out of both. Caller holds
// s.mu.
func (s *Server) refreshCaps() {
	if !s.capsStale {
		return
	}
	var total, largest resources.Vector
	for _, m := range s.view.Machines {
		total = total.Add(m.Capacity)
		largest = largest.Max(m.Capacity)
	}
	s.view.Total, s.largest, s.capsStale = total, largest, false
}

// addJob enters a job into the job table and, unless it is already
// finished (snapshot restore), into the ID-ordered active list the view
// shares. Caller holds s.mu.
func (s *Server) addJob(ji *jobInfo) {
	id := ji.state.Job.ID
	s.jobs[id] = ji
	if ji.finished {
		return
	}
	s.jobsChanged()
	i := sort.Search(len(s.active), func(k int) bool { return s.active[k].state.Job.ID > id })
	s.active = slices.Insert(s.active, i, ji)
	s.view.Jobs = slices.Insert(s.view.Jobs, i, ji.state)
}

// retire takes a job that just finished or was abandoned off the active
// list, returns its admission accounting and drops its per-stage
// estimator statistics (its lineage's history stays). Callers guarantee
// the job was unfinished until now, so all three happen exactly once per
// job, live and in replay alike. Caller holds s.mu.
func (s *Server) retire(ji *jobInfo) {
	id := ji.state.Job.ID
	i := sort.Search(len(s.active), func(k int) bool { return s.active[k].state.Job.ID >= id })
	s.active = slices.Delete(s.active, i, i+1)
	s.view.Jobs = slices.Delete(s.view.Jobs, i, i+1)
	s.jobsChanged()
	if s.adm != nil {
		s.adm.release(ji.tenant)
	}
	if s.est != nil {
		s.est.ForgetJob(id, len(ji.state.Job.Stages))
	}
}

// verifyView is VerifyLedger's check of what the view aggregates, given
// the capacity total and largest machine of the node table in ID order:
// the maintained view may never drift from what a per-round rebuild
// would have produced. Caller holds s.mu.
func (s *Server) verifyView(total, largest resources.Vector) error {
	s.refreshCaps()
	if !s.view.Total.SameBits(total) || !s.largest.SameBits(largest) {
		return fmt.Errorf("view drift: total %v largest %v, ID-ordered recomputation gives %v and %v", s.view.Total, s.largest, total, largest)
	}
	var active []int
	for _, id := range s.jobIDs() {
		if !s.jobs[id].finished {
			active = append(active, id)
		}
	}
	if len(s.active) != len(active) || len(s.view.Jobs) != len(active) {
		return fmt.Errorf("view drift: %d active jobs, %d in the view, want %d", len(s.active), len(s.view.Jobs), len(active))
	}
	for i, id := range active {
		if s.active[i] != s.jobs[id] || s.view.Jobs[i] != s.jobs[id].state {
			return fmt.Errorf("view drift: active slot %d does not hold job %d", i, id)
		}
	}
	return nil
}
