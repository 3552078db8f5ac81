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
	"sort"

	"github.com/tetris-sched/tetris/internal/workload"
)

// reconcile resolves ledger-vs-node divergence for one node given the
// node's reported running set. Caller holds s.mu.
func (s *Server) reconcile(n *node, running []workload.TaskID) []workload.TaskID {
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
		if !ok || rec.machine != n.ID {
			kill = append(kill, tid)
		}
	}
	// Lost launches: the ledger charges them to this node but the node
	// does not run them and they are not awaiting delivery. Release the
	// charges and re-queue WITHOUT counting a failed attempt — the task
	// never ran and died; the launch just never happened. This keeps
	// repeated RM restarts from exhausting MaxTaskAttempts.
	inFlight := make(map[workload.TaskID]bool)
	for _, l := range n.launches {
		inFlight[l.Task] = true
	}
	lost := 0
	for _, ji := range s.active {
		for _, tid := range launchedIDs(ji, n.ID) {
			if runningSet[tid] || inFlight[tid] {
				continue
			}
			s.releaseLaunch(ji, tid)
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
			n.ID, len(running)-len(kill), len(kill), lost)
	}
	return kill
}

// ResyncPending returns how many recovered machines still await NM
// re-registration.
func (s *Server) ResyncPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countNodes(func(n *node) bool { return n.resync })
}
