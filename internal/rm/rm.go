// Package rm implements the cluster-wide resource manager of the
// distributed prototype (§4.4): it accepts node-manager registrations
// and heartbeats, job submissions from job managers, runs the pluggable
// scheduling policy during NM heartbeat processing (as YARN's RM does —
// the Table 7 overhead measurement), maintains allocation ledgers, and
// feeds completed-task measurements to the demand estimator.
//
// Sharded (sharded.go) is the RM's one front door for any shard count
// N ≥ 1: it owns the listener, the wire loop, validation, admission,
// routing, the RM clock and the failure sweeper. Server (this file) is one
// shard's locked state machine: it never touches a socket, never reads
// the wall clock for a decision and starts no goroutine.
//
// With JournalDir set the RM is durable: every state transition is
// journaled to one write-ahead log (internal/journal) shared by the
// shards, off the scheduling hot path, and a restarted RM replays
// checkpoint+log, then reconciles with re-registering node managers (see
// resync.go).
package rm

import (
	"fmt"
	"io"
	"log"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Server is one shard core of a running resource manager: the ledger,
// job table and failure detector of the machines it owns, behind one
// lock. It reads the front door's configuration and journals to its log;
// its own fields hold only what differs per shard.
type Server struct {
	cfg   *ShardedConfig
	sched scheduler.Scheduler  // the shard's policy, gang-wrapped when cfg.Gang is set
	est   *estimator.Estimator // nil: declared demands are used as-is
	index int                  // the shard's position: names its log records, labels its metric series
	clock rmClock              // the front door's RM clock
	log   *log.Logger

	mu    sync.Mutex
	nodes []*node          // dense by machine ID, nil where unowned (ledger.go)
	jobs  map[int]*jobInfo // every job, finished or not

	// The long-lived scheduling view and what triggers a round over it
	// (view.go). view.Machines is dense by machine ID; active parallels
	// view.Jobs, the unfinished jobs in ascending ID order.
	view      scheduler.View
	active    []*jobInfo
	route     routeCache       // the routing summary (router.go)
	largest   resources.Vector // component-wise max machine capacity
	capsStale bool             // view.Total and largest await refreshCaps
	dirty     roundCause       // a Schedule input changed since the last round (causeNone: none did)
	followup  bool             // the last round acted
	unplaced  bool             // the last round left runnable work pending
	rounds    uint64           // rounds run so far
	// mayRound hints dirty || followup || unplaced: stored under s.mu
	// wherever they change, read unlocked to place batch groups only.
	mayRound atomic.Bool

	detector *faults.Detector // nil when failure detection is off
	faultLog *telemetry.Ring[faults.Record]
	metrics  *rmMetrics
	// adm is the tenant accounting shared with the front door, which
	// runs the admission checks and hands every shard core the same
	// instance, so adopt/release and journal replay land in shared
	// tenant state; nil admits everything.
	adm *admission

	wal             *rmLog  // the front door's log; nil when journaling is off
	replaying       bool    // suppress journal writes during replay
	lastEventTime   float64 // clock of the newest journaled event
	sinceSnap       int     // journaled records since the last checkpoint
	recoveredDigest []byte  // state digest right after replay, pre-resync
}

type jobInfo struct {
	state      *scheduler.JobState
	launched   map[workload.TaskID]launchRecord
	finished   bool
	failed     bool // abandoned: a task exhausted its attempt cap
	finishedAt float64
	// tenant owns the job (admission); demand is the admission charge
	// (sum of task peaks) released when the job finishes.
	tenant string
	demand resources.Vector
	// meanVolume is meanTaskVolume of the job, which the router reads on
	// every submission to any shard; a pure function of the definition.
	meanVolume float64
}

// open finishes a shard core whose per-shard fields (cfg, sched, est,
// index, clock, adm) are set: state and metrics. The front door then
// replays its log into the shard, if it keeps one.
func (s *Server) open() error {
	if s.sched == nil {
		return fmt.Errorf("rm: scheduler is required")
	}
	cfg := s.cfg
	if cfg.Gang != nil {
		s.sched = gang.New(s.sched, *cfg.Gang)
	}
	s.log = cfg.Logger
	s.jobs = make(map[int]*jobInfo)
	s.faultLog = faults.NewRing()
	s.markDirty(causeNode)
	s.route = routeCache{seen: make(map[resources.Vector]struct{})}
	if est := s.est; est != nil {
		s.view.EstimateDemand = func(j *scheduler.JobState, t *workload.Task) (resources.Vector, float64) {
			peak, dur, _ := est.Estimate(j.Job, t.ID.Stage, t.Peak, t.PeakDuration())
			// Never let estimates exceed the biggest machine: a wild
			// over-estimate would make the task unplaceable forever.
			return peak.Min(s.largest), dur
		}
	}
	if s.log == nil {
		s.log = log.New(io.Discard, "", 0)
	}
	label := strconv.Itoa(s.index)
	s.metrics = newRMMetrics(cfg.Metrics, label)
	s.registerGauges(cfg.Metrics, label)
	if cfg.NodeTimeout > 0 {
		s.detector = faults.NewDetector(cfg.NodeTimeout.Seconds())
	}
	return nil
}

// now reads the RM clock: seconds of RM time, continued across restarts
// when journaling (see Sharded's clock).
func (s *Server) now() float64 { return s.clock.now() }

func (s *Server) handleRegisterNM(r *wire.RegisterNM) *wire.Message {
	if r == nil {
		return errMsg("missing registerNM payload")
	}
	if err := checkRegister(r); err != nil {
		return errMsg(err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.journal(&event{Kind: evRegister, Time: now, Node: r.NodeID,
		Capacity: r.Capacity, Running: r.Running, Completed: r.Completed})
	kill := s.applyRegister(r, now)
	if s.detector != nil {
		s.detector.Beat(r.NodeID, now)
	}
	s.log.Printf("rm: node %d registered (%v), %d running reported, %d orphans killed",
		r.NodeID, r.Capacity, len(r.Running), len(kill))
	return &wire.Message{Type: wire.TypeNMReply, NMReply: &wire.NMReply{Kill: kill}}
}

// submit applies one validated, front-door-admitted job under the shard
// lock: idempotence/conflict check, journal, apply. reserved marks a
// submission the front door passed through admit — on a duplicate the
// reservation is rolled back here, where the duplicate is discovered.
func (s *Server) submit(j *workload.Job, tenant string, reserved bool) *wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ji, ok := s.jobs[j.ID]; ok {
		// Idempotent resubmission: a job manager that lost its RM link
		// re-submits on reconnect. The same definition is deduplicated
		// (reply with current progress, as if it were a poll); a
		// different job under the same ID is a real conflict.
		if reserved && s.adm != nil {
			s.adm.cancel(tenant, jobDemand(j))
		}
		if sameJob(ji.state.Job, j) {
			return amReply(ji)
		}
		return rejectMsg(&wire.SubmitReject{
			Code:   wire.RejectConflict,
			Reason: fmt.Sprintf("job %d already submitted with a different definition", j.ID),
		})
	}
	if s.adm != nil && !reserved {
		// Nothing reserved for this job (a resubmission that raced its
		// own first submit to this shard, or a core driven directly in
		// tests): account it so release stays balanced.
		s.adm.adopt(tenant, jobDemand(j))
	}
	if j.Weight <= 0 {
		j.Weight = 1
	}
	s.journal(&event{Kind: evSubmit, Time: s.now(), Job: j, Tenant: tenant})
	s.applySubmit(j, tenant)
	s.log.Printf("rm: job %d submitted by tenant %q (%d tasks)", j.ID, tenant, j.NumTasks())
	return &wire.Message{Type: wire.TypeAMReply, AMReply: &wire.AMReply{Total: j.NumTasks()}}
}

// applySubmit registers a validated, weight-normalized job under its
// owning tenant. Shared by the live path and journal replay; during
// replay it also re-adopts the tenant accounting, so quotas hold across
// crash-restarts. Caller holds s.mu.
func (s *Server) applySubmit(j *workload.Job, tenant string) {
	ji := &jobInfo{
		state:      &scheduler.JobState{Job: j, Status: workload.NewStatus(j)},
		launched:   make(map[workload.TaskID]launchRecord),
		tenant:     tenant,
		demand:     jobDemand(j),
		meanVolume: meanTaskVolume(j),
	}
	s.addJob(ji)
	s.markDirty(causeSubmit)
	if s.replaying {
		if s.adm != nil {
			s.adm.adopt(tenant, ji.demand)
		}
		return
	}
	s.metrics.jobsSubmitted.Inc()
}

// handleBeats processes the beats at idxs (non-empty) of a batch frame —
// the ones this shard owns — under one lock hold and one reading of the
// RM clock, writing each node's verdict straight into its entry of out.
// At one clock reading the failure detector scans at most once: whatever
// the first beat's sweep leaves cannot have expired by the same instant,
// so the others return at its early exit. Groups of different shards may
// run concurrently; the entries they write are disjoint.
func (s *Server) handleBeats(beats []wire.NMHeartbeat, idxs []int, out []wire.NMBeatReply) {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	rounds := s.rounds
	failed, delta := 0, 0
	for _, i := range idxs {
		e := &out[i]
		*e = wire.NMBeatReply{NodeID: beats[i].NodeID}
		if e.Error = s.beat(&beats[i], now, &e.Reply); e.Error != "" {
			failed++
		} else if beats[i].Delta {
			delta++
		}
	}
	s.bookBeats(t0, len(idxs), failed, delta, rounds)
}

// bookBeats books a locked section begun at t0 in one update per series:
// n beats (each an equal share of the time), failed refused, delta applied
// delta reports, s.rounds-rounds0 rounds. Caller holds s.mu.
func (s *Server) bookBeats(t0 time.Time, n, failed, delta int, rounds0 uint64) {
	s.metrics.nmHeartbeat.ObserveN(time.Since(t0).Seconds()/float64(n), uint64(n))
	s.metrics.deltaBeats.Add(uint64(delta))
	s.metrics.beatsWithoutRound.Add(uint64(n-failed) - (s.rounds - rounds0))
}

// beat is the body of one NM heartbeat at RM time now: ledger apply, a
// scheduling round if roundDue says so, and the node's queued work
// written into rep. It returns the error text for a node that must
// (re-)register, else "". Caller holds s.mu.
func (s *Server) beat(hb *wire.NMHeartbeat, now float64, rep *wire.NMReply) string {
	id := hb.NodeID
	if !hb.Delta && !validAmount(hb.Used) { // a delta beat's Used is not read
		return fmt.Sprintf("node %d: invalid usage report %v (want 0 ≤ x ≤ %g)", id, hb.Used, resources.MaxAmount)
	}
	if err := checkCompletions(hb.Completed); err != nil {
		return fmt.Sprintf("node %d: %v", id, err)
	}
	n := s.node(id)
	if n == nil {
		return fmt.Sprintf("unregistered node %d", id)
	}
	if n.resync {
		// The RM restarted since this node last registered; its ledger
		// entries await reconciliation, which only a registration (with
		// the node's running set) can provide.
		return fmt.Sprintf("node %d must re-register: resource manager restarted", id)
	}
	if s.detector != nil {
		s.detector.Beat(id, now)
		if n.Down {
			// The node was presumed dead but is merely slow; take it back.
			// Its old tasks were reclaimed (and may rerun elsewhere), so it
			// rejoins with a clean ledger.
			s.journal(&event{Kind: evRejoin, Time: now, Node: id})
			s.reviveNode(n, now)
		}
		s.checkFailures(now)
	}
	if hb.Delta {
		// Delta availability report: Used/Allocated are unchanged since
		// this node's last acked beat, so n.Reported already holds them.
		// If the RM reset its view since then (needFull), keep the reset
		// value and ask for a full report below.
	} else {
		if n.Reported != hb.Used {
			n.Reported = hb.Used
			s.markDirty(causeUsage)
			s.nodesChanged()
		}
		n.needFull = false
	}
	for _, c := range hb.Completed {
		if s.applyComplete(c, id, now) {
			s.journal(&event{Kind: evComplete, Time: now, Node: id,
				Task: c.Task, Usage: c.Usage, Duration: c.Duration})
		}
	}
	if cause := s.roundDue(n); cause != causeNone {
		s.runScheduler(now, cause)
	}
	n.beatRound = s.rounds
	rep.Launch, n.launches = n.launches, nil
	rep.Preempt, n.preempts = n.preempts, nil
	rep.FullReport = n.needFull
	return ""
}

// applyComplete absorbs one task completion from a node, returning
// whether it applied (an unknown or relocated attempt is ignored).
// Shared by the live path and journal replay; caller holds s.mu.
func (s *Server) applyComplete(c wire.TaskCompletion, nodeID int, now float64) bool {
	ji, ok := s.jobs[c.Task.Job]
	if !ok || ji.failed {
		return false
	}
	if rec, ok := ji.launched[c.Task]; !ok || rec.machine != nodeID {
		// No live launch on this node: the node was presumed dead and its
		// attempt re-queued (possibly rerunning elsewhere already).
		return false
	}
	s.releaseLaunch(ji, c.Task)
	ji.state.Status.MarkDone(c.Task)
	s.markDirty(causeCompletion)
	s.jobsChanged()
	if s.est != nil {
		s.est.Observe(ji.state.Job, c.Task.Stage, c.Usage, c.Duration)
	}
	if !s.replaying {
		s.metrics.completions.Inc()
	}
	if ji.state.Status.Finished() {
		ji.finished = true
		ji.finishedAt = now
		s.retire(ji)
		if !s.replaying {
			s.metrics.jobsFinished.Inc()
		}
		s.log.Printf("rm: job %d finished at %.2fs", c.Task.Job, now)
	}
	return true
}

// CheckFailures sweeps for nodes whose heartbeats timed out and marks
// them dead. It runs on every NM heartbeat and on the front door's
// sweeper; exported so tests can force detection deterministically.
func (s *Server) CheckFailures() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkFailures(s.now())
}

// checkFailures is CheckFailures with s.mu held.
func (s *Server) checkFailures(now float64) {
	if s.detector == nil {
		return
	}
	for _, id := range s.detector.Expired(now) {
		s.markDead(id, now)
	}
}

// markDead declares a node failed: it is excluded from placement until
// it rejoins, its queued launches are dropped, its ledger is zeroed, and
// every task launched on it returns to pending as a failed attempt. A
// job whose task exhausts ShardedConfig.MaxTaskAttempts is abandoned.
// Caller holds s.mu.
func (s *Server) markDead(id int, now float64) {
	n := s.node(id)
	if n == nil || (n.Down && !n.resync) {
		return
	}
	s.journal(&event{Kind: evDead, Time: now, Node: id})
	s.applyDead(n, now)
}

// jobIDs returns the job IDs in ascending order. Mutation paths iterate
// jobs in this order so that live execution and journal replay perform
// identical sequences of floating-point ledger updates — the replay
// equivalence check compares state byte for byte. Caller holds s.mu.
func (s *Server) jobIDs() []int {
	ids := make([]int, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// launchedIDs returns ji's launched task IDs on machine id (all
// machines if id < 0), sorted, for the same determinism reason.
func launchedIDs(ji *jobInfo, id int) []workload.TaskID {
	var out []workload.TaskID
	for tid, rec := range ji.launched {
		if id < 0 || rec.machine == id {
			out = append(out, tid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// failJob abandons a job whose task kept dying: remaining ledger charges
// are released, queued launches dropped, and the AM learns via
// AMReply.Failed. Caller holds s.mu.
func (s *Server) failJob(jobID int, ji *jobInfo, now float64) {
	if !ji.finished {
		s.retire(ji) // exactly once, even if failJob re-runs
	}
	ji.failed = true
	ji.finished = true
	ji.finishedAt = now
	for _, tid := range launchedIDs(ji, -1) {
		s.releaseLaunch(ji, tid)
	}
	ji.state.Alloc = resources.Vector{}
	for _, n := range s.nodes {
		if n != nil {
			n.launches = slices.DeleteFunc(n.launches, func(l wire.TaskLaunch) bool { return l.Task.Job == jobID })
		}
	}
	if !s.replaying {
		s.metrics.jobsFailed.Inc()
	}
	s.log.Printf("rm: job %d abandoned after repeated task failures", jobID)
}

// runScheduler executes one scheduling round over the maintained view
// and queues the resulting launches. Caller holds s.mu and has found a
// round due (roundDue), so there is at least one active job.
func (s *Server) runScheduler(now float64, cause roundCause) {
	s.refreshCaps()
	v := &s.view
	v.Time = now
	restoreWeights := s.applyTenantWeights(s.active)
	t0 := time.Now()
	var asgs []scheduler.Assignment
	var gdec *gang.Decision
	if gc, ok := s.sched.(*gang.Coordinator); ok {
		dec := gc.Decide(v, s.runningTasks)
		gdec = &dec
		asgs = dec.Assignments
	} else {
		asgs = s.sched.Schedule(v)
	}
	restoreWeights()
	s.metrics.scheduleRound.Observe(time.Since(t0).Seconds())
	s.metrics.rounds[cause].Inc()
	s.metrics.scans.Observe(s.sched)
	s.metrics.placements.Add(uint64(len(asgs)))
	for _, a := range asgs {
		s.journal(&event{Kind: evLaunch, Time: now, Task: a.Task.ID,
			Machine: a.Machine, Local: a.Local, Remote: a.Remote})
		s.chargeLaunch(a.Task.ID, a.Machine, a.Local, a.Remote)
		n := s.nodes[a.Machine]
		n.launches = append(n.launches, wire.TaskLaunch{
			Task:     a.Task.ID,
			Demand:   a.Task.Peak,
			Duration: a.Task.PeakDuration(),
		})
	}
	acted := len(asgs) > 0
	if gdec != nil {
		s.applyGangDecision(gdec, now)
		acted = acted || len(gdec.Preempted)+len(gdec.CommitWaits)+gdec.Releases > 0
	}
	s.rounds++
	s.dirty, s.followup, s.unplaced = causeNone, acted, s.hasRunnable()
	s.mayRound.Store(s.followup || s.unplaced)
}

// applyTenantWeights layers hierarchical (tenant → job) fairness on the
// existing f-knob: for the duration of one Schedule call, each active
// job's fair-share weight becomes
//
//	base_j × tenantWeight(t) / Σ base of t's active jobs
//
// so tenants split the cluster in proportion to their configured
// weights regardless of how many jobs each queued, and a tenant's share
// is split among its jobs by the per-job weights the f-knob already
// arbitrates. The mutation is strictly transient — the returned restore
// puts the base weights back before anything is journaled or encoded,
// keeping snapshots and digests on base weights (safe because every
// scheduler core re-reads Job.Weight fresh each round). No-op without
// admission. Caller holds s.mu.
func (s *Server) applyTenantWeights(active []*jobInfo) func() {
	if s.adm == nil || len(active) == 0 {
		return func() {}
	}
	base := make([]float64, len(active))
	sums := make(map[string]float64, 4)
	for i, ji := range active {
		base[i] = ji.state.Job.Weight
		sums[ji.tenant] += base[i]
	}
	for i, ji := range active {
		if sum := sums[ji.tenant]; sum > 0 {
			ji.state.Job.Weight = base[i] * s.adm.tenantWeight(ji.tenant) / sum
		}
	}
	return func() {
		for i, ji := range active {
			ji.state.Job.Weight = base[i]
		}
	}
}

// HandleAMHeartbeat reports job progress.
func (s *Server) HandleAMHeartbeat(hb *wire.AMHeartbeat) *wire.Message {
	if hb == nil {
		return errMsg("missing amHeartbeat payload")
	}
	t0 := time.Now()
	s.mu.Lock()
	defer func() {
		s.metrics.amHeartbeat.Observe(time.Since(t0).Seconds())
		s.mu.Unlock()
	}()
	ji, ok := s.jobs[hb.JobID]
	if !ok {
		return errMsg(fmt.Sprintf("unknown job %d", hb.JobID))
	}
	return amReply(ji)
}

// amReply builds the progress reply for one job. Caller holds s.mu.
func amReply(ji *jobInfo) *wire.Message {
	return &wire.Message{Type: wire.TypeAMReply, AMReply: &wire.AMReply{
		Done:       ji.state.Status.DoneTasks(),
		Total:      ji.state.Job.NumTasks(),
		Finished:   ji.finished,
		FinishedAt: ji.finishedAt,
		Failed:     ji.failed,
	}}
}

// ClusterStatus snapshots node liveness and the fault-event log (the
// most recent faults.DefaultRingCap records, and how many were evicted).
func (s *Server) ClusterStatus() wire.ClusterStatusReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := wire.ClusterStatusReply{Faults: s.faultLog.Snapshot(), DroppedFaults: s.faultLog.Dropped()}
	for _, n := range s.nodes {
		switch {
		case n == nil:
		case n.Down:
			st.Dead = append(st.Dead, n.ID)
		default:
			st.Live = append(st.Live, n.ID)
		}
	}
	st.Nodes = len(st.Live) + len(st.Dead)
	return st
}

// JobIDs returns the IDs of every job this server knows (finished or
// not), ascending. The front door uses it to rebuild its job→shard
// routing table after journal recovery.
func (s *Server) JobIDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobIDs()
}

// LiveNodes returns the number of registered nodes not currently
// presumed dead.
func (s *Server) LiveNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countNodes(func(n *node) bool { return !n.Down })
}

// RegisterMachine adds a machine directly, as a first registration
// frame would.
func (s *Server) RegisterMachine(id int, capacity resources.Vector) {
	s.handleRegisterNM(&wire.RegisterNM{NodeID: id, Capacity: capacity})
}

// replyErr flattens a submit reply into an error: nil for acceptance,
// a descriptive error for wire errors and typed rejections.
func replyErr(reply *wire.Message) error {
	switch reply.Type {
	case wire.TypeError:
		return fmt.Errorf("rm: %s", reply.Error)
	case wire.TypeSubmitReject:
		r := reply.SubmitReject
		return fmt.Errorf("rm: submit rejected (%s): %s", r.Code, r.Reason)
	}
	return nil
}

func errMsg(text string) *wire.Message {
	return &wire.Message{Type: wire.TypeError, Error: text}
}

func rejectMsg(r *wire.SubmitReject) *wire.Message {
	return &wire.Message{Type: wire.TypeSubmitReject, SubmitReject: r}
}
