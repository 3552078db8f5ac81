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
	"encoding/json"
	"fmt"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Event kinds, one per RM state transition.
const (
	evRegister    = "register"
	evSubmit      = "submit"
	evLaunch      = "launch"
	evComplete    = "complete"
	evDead        = "dead"
	evRejoin      = "rejoin"
	evPreempt     = "preempt"
	evGangCommit  = "gangCommit"
	evGangRelease = "gangRelease"
)

// event is one journaled state transition. Time carries the RM clock at
// the live transition; replay applies events at their journaled times so
// every time-dependent computation (downtimes, finish times, estimator
// feeds) reproduces exactly.
type event struct {
	Kind string  `json:"kind"`
	Time float64 `json:"time"`

	// register / dead / rejoin / complete
	Node int `json:"node,omitempty"`

	// register
	Capacity  resources.Vector      `json:"capacity,omitempty"`
	Running   []workload.TaskID     `json:"running,omitempty"`
	Completed []wire.TaskCompletion `json:"completed,omitempty"`

	// submit
	Job *workload.Job `json:"job,omitempty"`
	// Tenant owns the submitted job (admission); pre-admission journals
	// decode it as "" — the anonymous default tenant.
	Tenant string `json:"tenant,omitempty"`

	// launch / complete / preempt (the victim)
	Task workload.TaskID `json:"task,omitempty"`

	// preempt (beneficiary) / gangCommit / gangRelease
	GangJob int `json:"gangJob,omitempty"`
	// gangCommit
	Wait    float64 `json:"wait,omitempty"`
	Members int     `json:"members,omitempty"`
	// gangRelease
	Held int `json:"held,omitempty"`

	// launch
	Machine int                      `json:"machine,omitempty"`
	Local   resources.Vector         `json:"local,omitempty"`
	Remote  []scheduler.RemoteCharge `json:"remote,omitempty"`

	// complete
	Usage    resources.Vector `json:"usage,omitempty"`
	Duration float64          `json:"duration,omitempty"`
}

// journal appends one event to the WAL. It is a no-op while replaying
// (replay must not re-journal itself) and when journaling is disabled.
// The append is asynchronous — the caller stays on the scheduling hot
// path; the journal's writer goroutine does the file I/O. Caller holds
// s.mu.
func (s *Server) journal(ev *event) {
	if s.jnl == nil || s.replaying {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		s.log.Printf("rm: journal encode: %v", err)
		return
	}
	s.jnl.Append(data)
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
	s.jnl.Snapshot(s.encodeStateLocked())
	s.sinceSnap = 0
}

// applyEvent replays one journaled transition through the shared apply
// functions. Caller holds s.mu (or is in single-threaded recovery).
func (s *Server) applyEvent(ev *event) error {
	switch ev.Kind {
	case evRegister:
		if err := checkNodeID(ev.Node); err != nil {
			return fmt.Errorf("register event: %w", err)
		}
		s.applyRegister(&wire.RegisterNM{
			NodeID: ev.Node, Capacity: ev.Capacity,
			Running: ev.Running, Completed: ev.Completed,
		}, ev.Time)
	case evSubmit:
		if ev.Job == nil {
			return fmt.Errorf("submit event without job")
		}
		if _, ok := s.jobs[ev.Job.ID]; !ok {
			s.applySubmit(ev.Job, ev.Tenant)
		}
	case evLaunch:
		if s.jobs[ev.Task.Job] == nil || s.node(ev.Machine) == nil {
			return fmt.Errorf("launch event for unknown job %d or machine %d", ev.Task.Job, ev.Machine)
		}
		s.chargeLaunch(ev.Task, ev.Machine, ev.Local, ev.Remote)
	case evComplete:
		s.applyComplete(wire.TaskCompletion{Task: ev.Task, Usage: ev.Usage, Duration: ev.Duration}, ev.Node, ev.Time)
	case evDead:
		n := s.node(ev.Node)
		if n == nil {
			return fmt.Errorf("dead event for unknown machine %d", ev.Node)
		}
		s.applyDead(n, ev.Time)
	case evRejoin:
		n := s.node(ev.Node)
		if n == nil {
			return fmt.Errorf("rejoin event for unknown machine %d", ev.Node)
		}
		s.reviveNode(n, ev.Time)
	case evPreempt:
		if s.jobs[ev.Task.Job] == nil {
			return fmt.Errorf("preempt event for unknown job %d", ev.Task.Job)
		}
		s.applyPreempt(ev.Task, ev.GangJob, ev.Time)
	case evGangCommit:
		if s.jobs[ev.GangJob] == nil {
			return fmt.Errorf("gangCommit event for unknown job %d", ev.GangJob)
		}
		s.applyGangCommit(ev.GangJob, ev.Wait, ev.Members)
	case evGangRelease:
		if s.jobs[ev.GangJob] == nil {
			return fmt.Errorf("gangRelease event for unknown job %d", ev.GangJob)
		}
		s.applyGangRelease(ev.GangJob, ev.Held)
	default:
		return fmt.Errorf("unknown event kind %q", ev.Kind)
	}
	s.lastEventTime = ev.Time
	return nil
}

// recover opens the journal, replays snapshot+log, and prepares the
// server for resync: every machine that was live at the crash is marked
// down-pending-resync (ledger kept!) until its NM re-registers, the
// clock is re-based so time continues from the last journaled event,
// and a fresh checkpoint compacts the log. Called from newCore, before
// any goroutine starts.
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
	for i, data := range rec.Records {
		var ev event
		if err := json.Unmarshal(data, &ev); err != nil {
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
	s.recoveredDigest = s.encodeStateLocked()
	recovered := rec.Snapshot != nil || len(rec.Records) > 0
	if recovered {
		s.log.Printf("rm: recovered %d machines, %d jobs from journal (%d records replayed)",
			s.countNodes(nil), len(s.jobs), len(rec.Records))
	}
	// Continue the recovered clock: s.now() must never run backwards
	// past journaled times.
	s.start = time.Now().Add(-time.Duration(s.lastEventTime * float64(time.Second)))
	// Resync: the journal says these machines were live, but their NMs
	// may have moved on (tasks finished, nodes died) while the RM was
	// down. Exclude them from placement — keeping their ledgers — until
	// they re-register with their running sets; the failure detector
	// gives them one NodeTimeout to do so before they are declared
	// plain dead.
	s.awaitResync(s.now())
	// Checkpoint the recovered state so repeated crashes never replay
	// more than one incarnation's events. The resync marking encodes
	// identically to the pre-marking state (Dead normalizes it away).
	s.jnl.Snapshot(s.encodeStateLocked())
	s.sinceSnap = 0
	return nil
}

// rmState is the snapshot/digest encoding of the RM's durable state.
// Everything transient (reported usage, delivery queues, timing stats,
// detector bookkeeping) is excluded; a machine awaiting resync encodes
// as live (Dead normalization below) because the down-pending-resync
// marking is itself transient recovery bookkeeping.
type rmState struct {
	// Now is the RM clock at the newest journaled event.
	Now           float64          `json:"now"`
	Machines      []machineSnap    `json:"machines,omitempty"`
	Jobs          []jobSnap        `json:"jobs,omitempty"`
	Faults        []faults.Record  `json:"faults,omitempty"`
	DroppedFaults uint64           `json:"droppedFaults,omitempty"`
	Estimator     *estimator.State `json:"estimator,omitempty"`
}

type machineSnap struct {
	ID        int              `json:"id"`
	Capacity  resources.Vector `json:"capacity"`
	Allocated resources.Vector `json:"allocated"`
	// Dead is m.Down normalized: true only for confirmed-dead machines,
	// not for live ones awaiting resync after an RM restart.
	Dead      bool     `json:"dead,omitempty"`
	Epoch     int      `json:"epoch,omitempty"`
	DownSince *float64 `json:"downSince,omitempty"`
}

type jobSnap struct {
	Job        *workload.Job           `json:"job"`
	Status     workload.StatusSnapshot `json:"status"`
	Alloc      resources.Vector        `json:"alloc"`
	Launched   []launchSnap            `json:"launched,omitempty"`
	Finished   bool                    `json:"finished,omitempty"`
	Failed     bool                    `json:"failed,omitempty"`
	FinishedAt float64                 `json:"finishedAt,omitempty"`
	// Tenant is the job's admission owner — durable so recovery rebuilds
	// per-tenant accounting (quota state) from snapshots alone.
	Tenant string `json:"tenant,omitempty"`
	// Gang accounting: quorum-committed flag, hoard releases suffered,
	// attempts preempted away. Durable so AM progress replies and the
	// digest survive restarts.
	GangCommitted bool `json:"gangCommitted,omitempty"`
	GangReleases  int  `json:"gangReleases,omitempty"`
	Preempted     int  `json:"preempted,omitempty"`
}

type launchSnap struct {
	Task    workload.TaskID  `json:"task"`
	Machine int              `json:"machine"`
	Local   resources.Vector `json:"local"`
	Remote  []chargeSnap     `json:"remote,omitempty"`
}

type chargeSnap struct {
	Machine int              `json:"machine"`
	Charge  resources.Vector `json:"charge"`
	Epoch   int              `json:"epoch,omitempty"`
}

// encodeStateLocked serializes the durable state deterministically:
// machines and jobs sorted by ID, launches by task ID, estimator stages
// by (key, stage). json.Marshal emits struct fields in declaration
// order and round-trips float64 exactly, so equal states encode to
// equal bytes. Caller holds s.mu.
func (s *Server) encodeStateLocked() []byte {
	st := rmState{
		Now:           s.lastEventTime,
		Faults:        s.faultLog.Records(),
		DroppedFaults: s.faultLog.Dropped(),
	}
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		st.Machines = append(st.Machines, machineSnap{
			ID: n.ID, Capacity: n.Capacity, Allocated: n.Allocated,
			Dead: n.Down && !n.resync, Epoch: n.epoch, DownSince: n.downSince,
		})
	}
	for _, jobID := range s.jobIDs() {
		ji := s.jobs[jobID]
		js := jobSnap{
			Job: ji.state.Job, Status: ji.state.Status.Snapshot(), Alloc: ji.state.Alloc,
			Finished: ji.finished, Failed: ji.failed, FinishedAt: ji.finishedAt,
			Tenant:        ji.tenant,
			GangCommitted: ji.gangCommitted,
			GangReleases:  ji.gangReleases,
			Preempted:     ji.preempted,
		}
		for _, tid := range launchedIDs(ji, -1) {
			rec := ji.launched[tid]
			ls := launchSnap{Task: tid, Machine: rec.machine, Local: rec.local}
			for _, rc := range rec.remote {
				ls.Remote = append(ls.Remote, chargeSnap{Machine: rc.machine, Charge: rc.charge, Epoch: rc.epoch})
			}
			js.Launched = append(js.Launched, ls)
		}
		st.Jobs = append(st.Jobs, js)
	}
	if s.cfg.Estimator != nil {
		est := s.cfg.Estimator.Export()
		st.Estimator = &est
	}
	data, err := json.Marshal(st)
	if err != nil {
		// Every field is a plain data type; failure here is a programming
		// error, not an input condition.
		panic(fmt.Sprintf("rm: encode state: %v", err))
	}
	return data
}

// restoreState rebuilds the RM from a snapshot. Called during recovery
// before any goroutine starts.
func (s *Server) restoreState(data []byte) error {
	var st rmState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	s.lastEventTime = st.Now
	for _, ms := range st.Machines {
		if err := checkNodeID(ms.ID); err != nil {
			return fmt.Errorf("snapshot machine: %w", err)
		}
		s.addNode(ms)
	}
	for _, js := range st.Jobs {
		if js.Job == nil {
			return fmt.Errorf("snapshot job without definition")
		}
		if err := js.Job.Validate(); err != nil {
			return fmt.Errorf("snapshot job %d: %w", js.Job.ID, err)
		}
		ji := &jobInfo{
			state: &scheduler.JobState{
				Job:    js.Job,
				Status: workload.RestoreStatus(js.Job, js.Status),
				Alloc:  js.Alloc,
			},
			launched:      make(map[workload.TaskID]launchRecord, len(js.Launched)),
			finished:      js.Finished,
			failed:        js.Failed,
			finishedAt:    js.FinishedAt,
			tenant:        js.Tenant,
			demand:        jobDemand(js.Job),
			meanVolume:    meanTaskVolume(js.Job),
			gangCommitted: js.GangCommitted,
			gangReleases:  js.GangReleases,
			preempted:     js.Preempted,
		}
		if !js.Finished && s.adm != nil {
			// Re-adopt the unfinished job's tenant accounting so quotas
			// hold across the restart (finished jobs were released live).
			s.adm.adopt(js.Tenant, ji.demand)
		}
		for _, ls := range js.Launched {
			rec := launchRecord{machine: ls.Machine, local: ls.Local}
			known := s.node(ls.Machine) != nil
			for _, rc := range ls.Remote {
				known = known && s.node(rc.Machine) != nil
				rec.remote = append(rec.remote, remoteCharge{machine: rc.Machine, charge: rc.Charge, epoch: rc.Epoch})
			}
			if !known {
				return fmt.Errorf("snapshot job %d: launch %v charges an unregistered machine", js.Job.ID, ls.Task)
			}
			ji.launched[ls.Task] = rec
		}
		s.addJob(ji)
	}
	s.faultLog.Restore(st.Faults, st.DroppedFaults)
	if s.cfg.Estimator != nil && st.Estimator != nil {
		s.cfg.Estimator.Import(*st.Estimator)
	}
	return nil
}

// StateDigest returns the deterministic encoding of the RM's durable
// state — the same bytes a snapshot checkpoint would write. Two RMs
// with equal digests are in equal durable states; tests use it to prove
// journal replay reproduces a crashed RM exactly.
func (s *Server) StateDigest() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeStateLocked()
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
