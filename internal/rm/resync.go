package rm

// Resync reconciliation: after an RM restart (or a plain NM link blip)
// the journal-recovered ledger and a node's actual running set can
// disagree. Registration carries the node's truth (RegisterNM.Running
// and buffered Completed); reconcile resolves the divergence:
//
//   - agree (ledger launch + node runs it)      -> adopt, keep charges
//   - node runs it, ledger doesn't know it      -> orphan, kill on node
//   - ledger launch, node doesn't run it        -> lost, release charges
//     and re-queue (no attempt charged: the task never misbehaved)
//   - ledger launch still in the delivery queue -> in flight, leave it
//
// VerifyLedger then asserts the reconciled ledgers equal the sum of the
// surviving launch records — the invariant every test checks after
// crash/restart storms.

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// applyRegister is the mutation body of NM registration, shared by the
// live path and journal replay: update capacity, settle liveness (fresh
// node, confirmed-dead node returning with a clean slate, or a
// resync-awaited node rejoining with its ledger intact), absorb
// completions buffered while disconnected, then reconcile the node's
// running set against the ledger. Returns the orphaned tasks the node
// must kill. Caller holds s.mu.
func (s *Server) applyRegister(r *wire.RegisterNM, now float64) []workload.TaskID {
	id := r.NodeID
	m, known := s.machines[id]
	if !known {
		m = &scheduler.MachineState{ID: id, Capacity: r.Capacity}
		s.addMachine(m)
	} else if m.Capacity != r.Capacity {
		m.Capacity = r.Capacity
		s.capsStale = true
	}
	s.markDirty(causeNode)
	wasResync := s.resync[id]
	delete(s.resync, id)
	// Whatever usage view the RM holds predates this (re)registration;
	// delta beats must not extend it. The node's first post-register
	// heartbeat is a full report anyway (DeltaTracker starts with no
	// baseline), which clears the mark.
	s.needFull[id] = true
	if m.Down {
		if wasResync {
			// The RM restarted; the node did not. Its ledger entries were
			// preserved through recovery exactly for this moment.
			m.Down = false
		} else {
			// A confirmed-dead node returning is a fresh NM: its tasks were
			// already reclaimed and re-queued, so it starts with an empty
			// ledger and everything it still runs is orphaned.
			m.Allocated = resources.Vector{}
			m.Reported = resources.Vector{}
			s.rejoin(id, now)
		}
	}
	// Completions the node buffered while disconnected, applied before
	// loss decisions so a finished task is not mistaken for a lost one.
	for _, c := range r.Completed {
		s.applyComplete(c, id, now)
	}
	return s.reconcile(id, r.Running)
}

// reconcile resolves ledger-vs-node divergence for one node given the
// node's reported running set. Caller holds s.mu.
func (s *Server) reconcile(id int, running []workload.TaskID) []workload.TaskID {
	runningSet := make(map[workload.TaskID]bool, len(running))
	for _, tid := range running {
		runningSet[tid] = true
	}
	// Orphans: the node runs them, the ledger has no matching live
	// launch (reclaimed and possibly rerunning elsewhere, or their job
	// was abandoned). Sorted for deterministic replay and kill order.
	var kill []workload.TaskID
	sortedRunning := append([]workload.TaskID(nil), running...)
	sort.Slice(sortedRunning, func(i, j int) bool { return sortedRunning[i].Less(sortedRunning[j]) })
	for _, tid := range sortedRunning {
		ji, ok := s.jobs[tid.Job]
		if !ok || ji.failed {
			kill = append(kill, tid)
			continue
		}
		rec, ok := ji.launched[tid]
		if !ok || rec.machine != id {
			kill = append(kill, tid)
		}
	}
	// Lost launches: the ledger charges them to this node but the node
	// does not run them and they are not awaiting delivery. Release the
	// charges and re-queue WITHOUT counting a failed attempt — the task
	// never ran and died; the launch just never happened. This keeps
	// repeated RM restarts from exhausting MaxTaskAttempts.
	inFlight := make(map[workload.TaskID]bool)
	for _, l := range s.pending[id] {
		inFlight[l.Task] = true
	}
	lost := 0
	for _, ji := range s.active {
		for _, tid := range launchedIDs(ji, id) {
			if runningSet[tid] || inFlight[tid] {
				continue
			}
			rec := ji.launched[tid]
			delete(ji.launched, tid)
			ji.state.Alloc = ji.state.Alloc.Sub(rec.local).Max(resources.Vector{})
			s.machines[id].Allocated = s.machines[id].Allocated.Sub(rec.local).Max(resources.Vector{})
			s.subRemote(rec.remote)
			ji.state.Status.Requeue(tid)
			lost++
		}
	}
	if !s.replaying {
		s.metrics.orphansKilled.Add(uint64(len(kill)))
		s.metrics.lostRequeued.Add(uint64(lost))
	}
	if len(kill) > 0 || lost > 0 {
		s.log.Printf("rm: resync node %d: %d adopted, %d orphans killed, %d lost launches re-queued",
			id, len(running)-len(kill), len(kill), lost)
	}
	return kill
}

// ResyncPending returns how many recovered machines still await NM
// re-registration.
func (s *Server) ResyncPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resync)
}

// VerifyLedger checks the RM's accounting invariant: every machine's
// Allocated equals the sum of local charges of launches placed on it
// plus the still-valid (same-epoch) remote charges pointing at it, and
// every job's Alloc equals the sum of its launches' local charges
// (within float tolerance); and the maintained scheduling view equals a
// from-scratch rebuild (verifyView). Returns nil when both hold.
func (s *Server) VerifyLedger() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	wantMachine := make(map[int]resources.Vector, len(s.machines))
	for _, jobID := range s.jobIDs() {
		ji := s.jobs[jobID]
		var wantJob resources.Vector
		for _, tid := range launchedIDs(ji, -1) {
			rec := ji.launched[tid]
			wantJob = wantJob.Add(rec.local)
			wantMachine[rec.machine] = wantMachine[rec.machine].Add(rec.local)
			for _, rc := range rec.remote {
				if rc.epoch == s.epochs[rc.machine] {
					wantMachine[rc.machine] = wantMachine[rc.machine].Add(rc.charge)
				}
			}
		}
		if !vecClose(ji.state.Alloc, wantJob) {
			return fmt.Errorf("job %d ledger drift: alloc %v, launches sum to %v", jobID, ji.state.Alloc, wantJob)
		}
	}
	for id, m := range s.machines {
		if !vecClose(m.Allocated, wantMachine[id]) {
			return fmt.Errorf("machine %d ledger drift: allocated %v, launches sum to %v", id, m.Allocated, wantMachine[id])
		}
	}
	return s.verifyView()
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

// sameJob reports whether two job definitions are identical — the
// idempotent-resubmission test. Jobs travel as JSON, so JSON equality
// is definition equality.
func sameJob(a, b *workload.Job) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}
