package rm

// Journaling: every RM state transition is captured as a semantic event
// and appended to a write-ahead log (internal/journal) off the
// scheduling hot path. Recovery replays the latest snapshot plus the
// surviving log suffix through the SAME apply functions the live paths
// use, so a replayed RM is byte-for-byte identical to the pre-crash
// one — StateDigest/RecoveredDigest make that checkable.
//
// What is journaled (durable): registrations (with their resync
// payload), job submissions, task launches, task completions, node
// deaths and rejoins. What is not (transient, rebuilt by the next
// heartbeats): reported usage, per-node delivery queues, heartbeat
// timing stats. Undelivered queued launches therefore surface as lost
// during resync and are re-queued (see resync.go).

import (
	"fmt"
	"time"

	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// event is one journaled state transition (encoding: codec.go). Time
// carries the RM clock at the live transition; replay applies events at
// their journaled times so every time-dependent computation (downtimes,
// finish times, estimator feeds) reproduces exactly.
type event struct {
	Kind byte
	Time float64

	// register / dead / rejoin / complete
	Node int

	// register
	Capacity  resources.Vector
	Running   []workload.TaskID
	Completed []wire.TaskCompletion

	// submit: the job and the tenant that owns it (admission)
	Job    *workload.Job
	Tenant string

	// launch / complete / preempt (the victim)
	Task workload.TaskID

	// preempt (beneficiary) / gangCommit / gangRelease
	GangJob int
	// gangCommit
	Wait    float64
	Members int
	// gangRelease
	Held int

	// launch
	Machine int
	Local   resources.Vector
	Remote  []scheduler.RemoteCharge

	// complete
	Usage    resources.Vector
	Duration float64
}

// journal appends one event to the WAL. It is a no-op while replaying
// (replay must not re-journal itself) and when journaling is disabled.
// The record is encoded into a buffer the journal's writer recycles, and
// handed over without a copy; the append is asynchronous — the caller
// stays on the scheduling hot path; the writer goroutine does the file
// I/O. Caller holds s.mu.
func (s *Server) journal(ev *event) {
	if s.jnl == nil || s.replaying {
		return
	}
	s.jnl.Append(appendEvent(s.jnl.Buffer(), ev))
	s.lastEventTime = ev.Time
	s.sinceSnap++
}

// maybeSnapshot takes a checkpoint once enough records accumulated since
// the last one, bounding both log size and replay time. Encoding runs
// under s.mu but the file I/O is the journal goroutine's. Caller holds
// s.mu.
func (s *Server) maybeSnapshot() {
	if s.jnl == nil || s.replaying || s.sinceSnap < s.cfg.SnapshotEvery {
		return
	}
	s.jbuf = s.appendState(s.jbuf[:0])
	s.jnl.Snapshot(s.jbuf)
	s.sinceSnap = 0
}

// applyEvent replays one journaled transition through the shared apply
// functions, first refusing (ErrJournalCorrupt) one that does not fit
// the state: replay never indexes past what the record names. Caller
// holds s.mu (or is in single-threaded recovery).
func (s *Server) applyEvent(ev *event) error {
	switch ev.Kind {
	case evRegister:
		r := &wire.RegisterNM{NodeID: ev.Node, Capacity: ev.Capacity,
			Running: ev.Running, Completed: ev.Completed}
		if err := checkRegister(r); err != nil {
			return corrupt("register: %v", err)
		}
		s.applyRegister(r, ev.Time)
	case evSubmit:
		if ev.Job == nil {
			return corrupt("submit without a job")
		}
		if err := ev.Job.Validate(); err != nil {
			return corrupt("submit: %v", err)
		}
		if _, ok := s.jobs[ev.Job.ID]; !ok {
			s.applySubmit(ev.Job, ev.Tenant)
		}
	case evLaunch:
		if err := s.checkLaunch(ev); err != nil {
			return err
		}
		s.chargeLaunch(ev.Task, ev.Machine, ev.Local, ev.Remote)
	case evComplete:
		c := wire.TaskCompletion{Task: ev.Task, Usage: ev.Usage, Duration: ev.Duration}
		if err := checkCompletions([]wire.TaskCompletion{c}); err != nil {
			return corrupt("complete: %v", err)
		}
		s.applyComplete(c, ev.Node, ev.Time)
	case evDead:
		n := s.node(ev.Node)
		if n == nil {
			return corrupt("dead event for unknown machine %d", ev.Node)
		}
		s.applyDead(n, ev.Time)
	case evRejoin:
		n := s.node(ev.Node)
		if n == nil {
			return corrupt("rejoin event for unknown machine %d", ev.Node)
		}
		s.reviveNode(n, ev.Time)
	case evPreempt:
		if s.jobs[ev.Task.Job] == nil {
			return corrupt("preempt event for unknown job %d", ev.Task.Job)
		}
		s.applyPreempt(ev.Task, ev.GangJob, ev.Time)
	case evGangCommit:
		if s.jobs[ev.GangJob] == nil {
			return corrupt("gangCommit event for unknown job %d", ev.GangJob)
		}
		s.applyGangCommit(ev.GangJob, ev.Wait, ev.Members)
	case evGangRelease:
		if s.jobs[ev.GangJob] == nil {
			return corrupt("gangRelease event for unknown job %d", ev.GangJob)
		}
		s.applyGangRelease(ev.GangJob, ev.Held)
	default:
		return fmt.Errorf("%w: event kind %d", ErrJournalFormat, ev.Kind)
	}
	s.lastEventTime = ev.Time
	return nil
}

// checkLaunch refuses a launch replay cannot charge: of a job unknown or
// finished, of a task outside the job or not pending, or onto a machine
// (or from a remote source) never registered.
func (s *Server) checkLaunch(ev *event) error {
	ji := s.jobs[ev.Task.Job]
	switch {
	case ji == nil || ji.finished:
		return corrupt("launch of %v: no such unfinished job", ev.Task)
	case !hasTask(ji.state.Job, ev.Task):
		return corrupt("launch of %v: no such task in job %d", ev.Task, ev.Task.Job)
	case ji.state.Status.State(ev.Task) != workload.Pending:
		return corrupt("launch of %v: task is %v", ev.Task, ji.state.Status.State(ev.Task))
	case s.node(ev.Machine) == nil:
		return corrupt("launch of %v onto unknown machine %d", ev.Task, ev.Machine)
	}
	for _, rc := range ev.Remote {
		if s.node(rc.Machine) == nil {
			return corrupt("launch of %v charges unknown source machine %d", ev.Task, rc.Machine)
		}
	}
	return nil
}

// recover opens the journal and replays snapshot+log. Called from
// newCore, before anything reads the RM clock; resume finishes the
// recovery once the front door's clock continues from the newest event
// any shard journaled.
func (s *Server) recover() error {
	jnl, rec, err := journal.Open(journal.Options{
		Dir:          s.cfg.JournalDir,
		Sync:         s.cfg.JournalSync,
		ObserveFsync: s.metrics.journalFsync.Observe,
	})
	if err != nil {
		return fmt.Errorf("rm: journal: %w", err)
	}
	s.jnl = jnl
	s.replaying = true
	replayT0 := time.Now()
	if rec.Snapshot != nil {
		if err := s.restoreState(rec.Snapshot); err != nil {
			jnl.Close()
			return fmt.Errorf("rm: restore snapshot: %w", err)
		}
	}
	var ev event
	for i, data := range rec.Records {
		if err := decodeEvent(data, &ev); err != nil {
			jnl.Close()
			return fmt.Errorf("rm: journal record %d: %w", i, err)
		}
		if err := s.applyEvent(&ev); err != nil {
			jnl.Close()
			return fmt.Errorf("rm: journal record %d: %w", i, err)
		}
	}
	s.replaying = false
	s.metrics.replaySeconds.Set(time.Since(replayT0).Seconds())
	s.metrics.replayRecords.Set(float64(len(rec.Records)))
	if rec.TornBytes > 0 || rec.StaleRecords > 0 {
		s.log.Printf("rm: journal recovery dropped %d torn tail bytes, skipped %d stale records",
			rec.TornBytes, rec.StaleRecords)
	}
	s.recoveredDigest = s.appendState(nil)
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		s.log.Printf("rm: recovered %d machines, %d jobs from journal (%d records replayed)",
			s.countNodes(nil), len(s.jobs), len(rec.Records))
	}
	return nil
}

// resume readies a replayed shard to serve, on the RM clock the front
// door has continued past every shard's journaled times. Resync: the
// journal says these machines were live, but their NMs may have moved on
// (tasks finished, nodes died) while the RM was down. Exclude them from
// placement — keeping their ledgers — until they re-register with their
// running sets; the failure detector gives them one NodeTimeout to do so
// before they are declared plain dead. Then checkpoint the recovered
// state so repeated crashes never replay more than one incarnation's
// events; the resync marking encodes identically to the pre-marking
// state (Dead normalizes it away). Called before anything serves.
func (s *Server) resume() {
	s.awaitResync(s.now())
	s.jbuf = s.appendState(s.jbuf[:0])
	s.jnl.Snapshot(s.jbuf)
	s.sinceSnap = 0
}

// machineSnap is a node's durable fields: what a snapshot restores and
// a registration starts from (addNode).
type machineSnap struct {
	ID                  int
	Capacity, Allocated resources.Vector
	// Dead is m.Down normalized: true only for confirmed-dead machines,
	// not for live ones awaiting resync after an RM restart.
	Dead      bool
	Epoch     int
	DownSince *float64
}

// StateDigest returns the deterministic encoding of the RM's durable
// state — the same bytes a snapshot checkpoint would write. Two RMs
// with equal digests are in equal durable states; tests use it to prove
// journal replay reproduces a crashed RM exactly.
func (s *Server) StateDigest() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendState(nil)
}

// RecoveredDigest returns the state digest captured right after journal
// replay (before resync marking), or nil if this server did not recover
// from a journal. Comparing it with the pre-crash StateDigest verifies
// replay equivalence.
func (s *Server) RecoveredDigest() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.recoveredDigest...)
}
