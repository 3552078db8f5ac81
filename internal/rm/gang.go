package rm

// Gang scheduling support: every shard core runs its rounds through a
// gang.Coordinator around its scheduler and acts on the full Decision
// each round. A preemption is the one gang event the journal keeps: it moves
// a task back to pending and charges an attempt, so replay must repeat
// it. The quorum's launches are ordinary launch records; commits and
// hoard releases only feed live metrics and are not durable. Preempted
// tasks are charged through the normal attempt accounting (exactly
// like a dead-node reclaim) and the kill is delivered to the NM on its
// next heartbeat as a typed wire.TaskPreempt frame; a kill the RM
// forgot across a restart surfaces as an orphaned attempt during
// resync and dies there instead.

import (
	"slices"

	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// runningTasks lists every charged task attempt as a preemption
// candidate, in deterministic (job ID, stage, index) order so live
// execution and journal replay hand the coordinator identical input.
// The coordinator calls it only in a round in which a gang is due to
// preempt. Caller holds s.mu.
func (s *Server) runningTasks() []gang.Running {
	var out []gang.Running
	for _, ji := range s.active {
		ji.eachLaunch(func(tid workload.TaskID, rec *launchRecord) {
			out = append(out, gang.Running{Task: tid, Job: ji.state.Job, Demand: rec.local})
		})
	}
	return out
}

// applyGangDecision journals and applies the non-assignment parts of a
// gang round: preemptions (evict + requeue + queue the NM kill) and the
// commit and hoard-release counters. Assignments were already handled
// by the shared launch path. Caller holds s.mu.
func (s *Server) applyGangDecision(dec *gang.Decision, now float64) {
	for _, tid := range dec.Preempted {
		s.journal(&event{Kind: evPreempt, Time: now, Task: tid})
		s.applyPreempt(tid, now)
	}
	for _, wait := range dec.CommitWaits {
		s.metrics.gangCommits.Inc()
		s.metrics.gangAdmitWait.Observe(wait)
	}
	s.metrics.gangReleases.Add(uint64(dec.Releases))
}

// applyPreempt evicts one running task to make room for a gang: the
// attempt is released from every ledger and marked failed — the
// same accounting as a dead-node reclaim, so MaxTaskAttempts applies
// unchanged. An attempt whose launch still waits for its node's next
// heartbeat never starts: the launch is dropped and no kill is sent.
// Shared by the live path and journal replay; caller holds s.mu.
func (s *Server) applyPreempt(tid workload.TaskID, now float64) {
	ji, ok := s.jobs[tid.Job]
	if !ok || ji.finished {
		return
	}
	machine, ok := s.releaseLaunch(ji, tid)
	if !ok {
		return
	}
	ji.state.Status.MarkFailed(tid)
	if !s.replaying {
		n := s.nodes[machine]
		if i := slices.IndexFunc(n.launches, func(l wire.TaskLaunch) bool { return l.Task == tid }); i >= 0 {
			n.launches = slices.Delete(n.launches, i, i+1)
		} else {
			n.preempts = append(n.preempts, wire.TaskPreempt{Task: tid})
		}
		s.metrics.preemptions.Inc()
	}
	if cap := s.cfg.MaxTaskAttempts; cap > 0 && ji.state.Status.Attempts(tid) >= cap {
		s.failJob(tid.Job, ji, now)
	}
}
