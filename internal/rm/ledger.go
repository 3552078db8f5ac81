package rm

// The shard ledger (DESIGN "The shard ledger"): one table of node records,
// dense by machine ID, and the only code that writes a machine's
// Allocated or Down (CI greps for it). Charges and releases keep one
// floating-point order — job, machine, remote sources in launch order —
// because replay digests compare bits.

import (
	"fmt"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// maxNodeID bounds node IDs: registering ID n costs n slots, so without a
// bound one frame naming 1<<40 allocates until the process dies. It sits
// above the largest fleet anything here runs (100 000 hollow nodes).
const maxNodeID = 1 << 18

func checkNodeID(id int) error {
	if id < 0 || id >= maxNodeID {
		return fmt.Errorf("invalid node id %d (want 0 ≤ id < %d)", id, maxNodeID)
	}
	return nil
}

// validAmount reports whether v may enter the ledger: non-negative and
// resources.Bounded. One NaN capacity or usage compares false against
// everything, so it would poison every sum and score it reaches — the
// routing summary, the view's totals, the core's argmax; a huge finite
// one overflows those sums, or the estimator's variance, to ±Inf, which
// a snapshot then carries into a journal the RM refuses to restart from.
func validAmount(v resources.Vector) bool { return v.Bounded() && v.NonNegative() }

// checkRegister refuses a registration the ledger cannot hold: an
// out-of-range ID, a capacity or a buffered completion that is not a
// validAmount.
func checkRegister(r *wire.RegisterNM) error {
	if err := checkNodeID(r.NodeID); err != nil {
		return err
	}
	if !validAmount(r.Capacity) {
		return fmt.Errorf("invalid capacity %v (want 0 ≤ x ≤ %g)", r.Capacity, resources.MaxAmount)
	}
	return checkCompletions(r.Completed)
}

// checkCompletions refuses a completion whose usage or duration is not a
// validAmount: both feed the demand estimator.
func checkCompletions(cs []wire.TaskCompletion) error {
	for _, c := range cs {
		if !validAmount(c.Usage) || !(c.Duration >= 0) || !resources.Bounded(c.Duration) {
			return fmt.Errorf("invalid completion of %v: usage %v, duration %v (want 0 ≤ x ≤ %g)", c.Task, c.Usage, c.Duration, resources.MaxAmount)
		}
	}
	return nil
}

// node is one registered machine's record.
type node struct {
	scheduler.MachineState          // what view.Machines[ID] points at
	epoch                  int      // deaths so far; see remoteCharge
	downSince              *float64 // when it died, kept only with the failure detector on
	resync                 bool     // left live by the journal: Down until it re-registers
	// needFull: the RM reset its usage view (registration, death, revival),
	// so no delta beat may pin Reported until a full one arrives; replies
	// carry NMReply.FullReport meanwhile.
	needFull bool
	// Delivered on the node's next heartbeat. Transient: after an RM
	// restart a lost launch surfaces at resync as lost, a kill as an orphan.
	launches  []wire.TaskLaunch
	preempts  []wire.TaskPreempt
	beatRound uint64 // s.rounds at the node's last beat (roundDue)
}

type launchRecord struct {
	machine int
	local   resources.Vector
	remote  []remoteCharge
}

// remoteCharge is a scheduler.RemoteCharge stamped with the source
// machine's epoch at launch. applyDead zeroes a machine and bumps its
// epoch, so a charge is subtracted back only if its source has not died
// since — a stale subtraction would eat charges accrued after it rejoined.
type remoteCharge struct {
	machine int
	charge  resources.Vector
	epoch   int
}

// node returns the record of registered node id, or nil.
func (s *Server) node(id int) *node {
	if id < 0 || id >= len(s.nodes) {
		return nil
	}
	return s.nodes[id]
}

// countNodes counts the registered nodes keep accepts (nil: all); s.mu held.
func (s *Server) countNodes(keep func(*node) bool) int {
	k := 0
	for _, n := range s.nodes {
		if n != nil && (keep == nil || keep(n)) {
			k++
		}
	}
	return k
}

// addNode enters a node with durable fields ms (ID checked) into the
// table and the view. Slots below it this shard does not own get a Down
// placeholder, once: Down keeps the cores from placing there and makes
// LiveCharges drop bandwidth charges aimed at them — a sharded RM's tasks
// routinely name input machines owned by sibling shards.
func (s *Server) addNode(ms machineSnap) *node {
	for slot := len(s.nodes); slot <= ms.ID; slot++ {
		s.nodes = append(s.nodes, nil)
		s.view.Machines = append(s.view.Machines, &scheduler.MachineState{ID: slot, Down: true})
	}
	n := &node{MachineState: scheduler.MachineState{
		ID: ms.ID, Capacity: ms.Capacity, Allocated: ms.Allocated, Down: ms.Dead,
	}, epoch: ms.Epoch}
	if s.detector != nil {
		n.downSince = ms.DownSince
	}
	s.nodes[ms.ID] = n
	s.view.Machines[ms.ID] = &n.MachineState
	s.capsStale = true
	s.nodesChanged()
	return n
}

// applyRegister is NM registration's mutation body, shared with journal
// replay: settle the record (new, new capacity, back from resync with its
// ledger, or back from the dead; it owes a full usage report either way),
// absorb the completions it buffered, then reconcile its running set.
// Returns the orphans it must kill. Caller holds s.mu, checked the ID.
func (s *Server) applyRegister(r *wire.RegisterNM, now float64) []workload.TaskID {
	n := s.node(r.NodeID)
	if n == nil {
		n = s.addNode(machineSnap{ID: r.NodeID, Capacity: r.Capacity})
	} else if n.Capacity != r.Capacity {
		n.Capacity = r.Capacity
		s.capsStale = true
	}
	s.markDirty(causeNode)
	s.nodesChanged()
	if n.Down && !n.resync {
		// Its tasks were reclaimed, so whatever it still runs is orphaned.
		s.reviveNode(n, now)
	}
	n.Down, n.resync, n.needFull = false, false, true
	for _, c := range r.Completed { // before reconcile: finished is not lost
		s.applyComplete(c, n.ID, now)
	}
	return s.reconcile(n, r.Running)
}

// chargeLaunch charges one placement to the job, the machine it runs on
// and each remote source. Shared by the live path and journal replay.
func (s *Server) chargeLaunch(tid workload.TaskID, machine int, local resources.Vector, remote []scheduler.RemoteCharge) {
	ji := s.jobs[tid.Job]
	ji.state.Status.MarkRunning(tid)
	ji.state.Alloc = ji.state.Alloc.Add(local)
	m := s.nodes[machine]
	m.Allocated = m.Allocated.Add(local)
	rec := launchRecord{machine: machine, local: local}
	for _, rc := range remote {
		src := s.nodes[rc.Machine]
		src.Allocated = src.Allocated.Add(rc.Charge)
		rec.remote = append(rec.remote, remoteCharge{machine: rc.Machine, charge: rc.Charge, epoch: src.epoch})
	}
	ji.launched[tid] = rec
	s.nodesChanged()
}

// releaseLaunch takes tid's launch off the ledger, whatever ended it:
// the job's charge, the local charge and each remote charge whose source
// has not died since. On a machine applyDead just zeroed the local release
// leaves +0 (0 − c clamped at zero, for c ≥ 0). False: no such launch.
func (s *Server) releaseLaunch(ji *jobInfo, tid workload.TaskID) (launchRecord, bool) {
	rec, ok := ji.launched[tid]
	if !ok {
		return rec, false
	}
	delete(ji.launched, tid)
	s.nodesChanged()
	ji.state.Alloc = ji.state.Alloc.Sub(rec.local).Max(resources.Vector{})
	m := s.nodes[rec.machine]
	m.Allocated = m.Allocated.Sub(rec.local).Max(resources.Vector{})
	for _, rc := range rec.remote {
		if src := s.nodes[rc.machine]; rc.epoch == src.epoch {
			src.Allocated = src.Allocated.Sub(rc.charge).Max(resources.Vector{})
		}
	}
	return rec, true
}

// applyDead is markDead's mutation body, shared with journal replay.
func (s *Server) applyDead(n *node, now float64) {
	n.resync = false // an awaited node that timed out is plain dead
	n.Down = true
	n.Allocated = resources.Vector{}
	n.Reported = resources.Vector{}
	n.needFull = true
	n.epoch++
	if s.detector != nil {
		n.downSince = &now
	}
	n.launches, n.preempts = nil, nil
	s.markDirty(causeNode)
	s.nodesChanged()
	killed := 0
	// failJob takes the job off s.active, which then holds its successor
	// at i, and releases the job's other launches: the IDs left in the
	// list find none to release but still count a failed attempt.
	for i := 0; i < len(s.active); {
		ji := s.active[i]
		jobID := ji.state.Job.ID
		for _, tid := range launchedIDs(ji, n.ID) {
			s.releaseLaunch(ji, tid)
			ji.state.Status.MarkFailed(tid)
			killed++
			if cap := s.cfg.MaxTaskAttempts; cap > 0 && ji.state.Status.Attempts(tid) >= cap {
				s.failJob(jobID, ji, now)
			}
		}
		if !ji.finished {
			i++
		}
	}
	s.faultLog.Append(faults.Record{
		Time: now, Kind: faults.MachineCrash, Machine: n.ID, TasksKilled: killed,
	})
	if !s.replaying {
		s.metrics.deadNodes.Inc()
		s.metrics.reclaims.Add(uint64(killed))
	}
	s.log.Printf("rm: node %d declared dead, %d tasks reclaimed", n.ID, killed)
}

// reviveNode returns a dead node to service with a clean usage view. Its
// Allocated needs no reset: applyDead zeroed it, and nothing charges a
// Down machine.
func (s *Server) reviveNode(n *node, now float64) {
	n.Down = false
	n.Reported = resources.Vector{}
	n.needFull = true
	rec := faults.Record{Time: now, Kind: faults.MachineRecover, Machine: n.ID}
	if n.downSince != nil {
		rec.Downtime = now - *n.downSince
		n.downSince = nil
	}
	s.faultLog.Append(rec)
	if !s.replaying {
		s.metrics.rejoins.Inc()
	}
	s.markDirty(causeNode)
	s.nodesChanged()
	s.log.Printf("rm: node %d rejoined after %.2fs down", n.ID, rec.Downtime)
}

// awaitResync takes every node the journal left live out of placement,
// ledger kept, until it re-registers — within one detector timeout of
// now (recover). Reported is transient; the next heartbeat refills it.
func (s *Server) awaitResync(now float64) {
	s.nodesChanged()
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		if !n.Down {
			n.Down, n.resync = true, true
			if s.detector != nil {
				s.detector.Beat(n.ID, now)
			}
		}
		n.Reported = resources.Vector{}
	}
}

// VerifyLedger checks the accounting invariant — every machine's
// Allocated is its launches' local charges plus the same-epoch remote
// charges on it, every job's Alloc its launches' local charges (within
// float tolerance) — and that the maintained view and the cached routing
// summary equal a rebuild.
func (s *Server) VerifyLedger() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := make([]resources.Vector, len(s.nodes))
	for _, jobID := range s.jobIDs() {
		ji := s.jobs[jobID]
		var wantJob resources.Vector
		for _, tid := range launchedIDs(ji, -1) {
			rec := ji.launched[tid]
			wantJob = wantJob.Add(rec.local)
			want[rec.machine] = want[rec.machine].Add(rec.local)
			for _, rc := range rec.remote {
				if rc.epoch == s.nodes[rc.machine].epoch {
					want[rc.machine] = want[rc.machine].Add(rc.charge)
				}
			}
		}
		if !vecClose(ji.state.Alloc, wantJob) {
			return fmt.Errorf("job %d ledger drift: alloc %v, launches sum to %v", jobID, ji.state.Alloc, wantJob)
		}
	}
	if k := len(s.nodes); len(s.view.Machines) != k || (k > 0 && s.nodes[k-1] == nil) {
		return fmt.Errorf("view drift: %d machine slots for a node table of %d", len(s.view.Machines), k)
	}
	var total, largest resources.Vector
	for id, n := range s.nodes {
		m := s.view.Machines[id]
		switch {
		case n == nil:
			if *m != (scheduler.MachineState{ID: id, Down: true}) {
				return fmt.Errorf("view drift: slot %d is not a Down placeholder: %+v", id, *m)
			}
		case m != &n.MachineState || n.ID != id:
			return fmt.Errorf("view drift: slot %d does not hold machine %d's ledger entry", id, id)
		case !vecClose(n.Allocated, want[id]):
			return fmt.Errorf("machine %d ledger drift: allocated %v, launches sum to %v", id, n.Allocated, want[id])
		default:
			total, largest = total.Add(n.Capacity), largest.Max(n.Capacity)
		}
	}
	if err := s.verifyView(total, largest); err != nil {
		return err
	}
	return s.verifyRoute()
}

// vecClose reports whether two vectors agree within accumulated
// floating-point rounding.
func vecClose(a, b resources.Vector) bool {
	const eps = 1e-6
	for k := 0; k < int(resources.NumKinds); k++ {
		d := a.Get(resources.Kind(k)) - b.Get(resources.Kind(k))
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}
