package rm

// Gang scheduling support: when ShardedConfig.Gang is set the RM wraps its
// scheduler in a gang.Coordinator and acts on the full Decision each
// round — journaling commits, releases and preemptions as durable
// events so crash-recovery replays them bit-identically. Preempted
// tasks are charged through the normal attempt accounting (exactly
// like a dead-node reclaim) and the kill is delivered to the NM on its
// next heartbeat as a typed wire.TaskPreempt frame; a kill the RM
// forgot across a restart surfaces as an orphaned attempt during
// resync and dies there instead.

import (
	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// runningTasks lists every charged task attempt as a preemption
// candidate, in deterministic (job ID, stage, index) order so live
// execution and journal replay hand the coordinator identical input.
// Caller holds s.mu.
func (s *Server) runningTasks() []gang.Running {
	var out []gang.Running
	for _, ji := range s.active {
		for _, tid := range launchedIDs(ji, -1) {
			rec := ji.launched[tid]
			out = append(out, gang.Running{Task: tid, Machine: rec.machine, Demand: rec.local})
		}
	}
	return out
}

// applyGangDecision journals and applies the non-assignment parts of a
// gang round: preemptions (evict + requeue + queue the NM kill),
// commits, and hoard releases. Assignments were already handled by the
// shared launch path. Caller holds s.mu.
func (s *Server) applyGangDecision(dec *gang.Decision, now float64) {
	for _, p := range dec.Preemptions {
		s.journal(&event{Kind: evPreempt, Time: now, Task: p.Task, GangJob: p.ForJob})
		s.applyPreempt(p.Task, now)
	}
	for _, cm := range dec.Commits {
		s.journal(&event{Kind: evGangCommit, Time: now, GangJob: cm.JobID,
			Wait: cm.WaitSec, Members: cm.Members})
		s.applyGangCommit(cm.JobID, cm.WaitSec, cm.Members)
	}
	for _, r := range dec.Releases {
		s.journal(&event{Kind: evGangRelease, Time: now, GangJob: r.JobID, Held: r.Held})
		s.applyGangRelease(r.JobID, r.Held)
	}
}

// applyPreempt evicts one running task to make room for a gang: the
// attempt is released from every ledger and marked failed — the
// same accounting as a dead-node reclaim, so MaxTaskAttempts applies
// unchanged. Shared by the live path and journal replay; caller holds
// s.mu.
func (s *Server) applyPreempt(tid workload.TaskID, now float64) {
	ji, ok := s.jobs[tid.Job]
	if !ok || ji.finished {
		return
	}
	rec, ok := s.releaseLaunch(ji, tid)
	if !ok {
		return
	}
	ji.state.Status.MarkFailed(tid)
	ji.preempted++
	if !s.replaying {
		n := s.nodes[rec.machine]
		n.preempts = append(n.preempts, wire.TaskPreempt{Task: tid})
		s.metrics.preemptions.Inc()
	}
	if cap := s.cfg.MaxTaskAttempts; cap > 0 && ji.state.Status.Attempts(tid) >= cap {
		s.failJob(tid.Job, ji, now)
	}
}

// applyGangCommit records a gang quorum launching atomically. The
// member launches themselves were applied through the shared launch
// path; this event makes the admission itself durable. Caller holds
// s.mu.
func (s *Server) applyGangCommit(jobID int, wait float64, members int) {
	ji, ok := s.jobs[jobID]
	if !ok {
		return
	}
	ji.gangCommitted = true
	if !s.replaying {
		s.metrics.gangCommits.Inc()
		s.metrics.gangAdmitWait.Observe(wait)
	}
}

// applyGangRelease records a hoard timeout returning held machines to
// the pool. Caller holds s.mu.
func (s *Server) applyGangRelease(jobID, held int) {
	ji, ok := s.jobs[jobID]
	if !ok {
		return
	}
	ji.gangReleases++
	if !s.replaying {
		s.metrics.gangReleases.Inc()
	}
}
