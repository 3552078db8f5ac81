package rm

// TestChaosShardNodeChurn extends the chaos suite to the routed path of
// the two-level RM: machines inside ONE shard are killed and recovered
// mid-run while jobs flow through the router. The properties under test
// are the sharded analogues of the single-server chaos invariants:
//
//   - per-shard ledgers verify clean after every churn event and at the
//     end (conservation holds inside each partition independently);
//   - zero lost attempts: every task of every job eventually completes
//     despite its machine dying mid-flight (reclaim re-queues it);
//   - zero duplicated attempts: each job finishes with Done equal to
//     its task count exactly — a completion is absorbed once, and a
//     reclaimed task's stale completion from a dead incarnation is
//     never double-counted;
//   - the blast radius stays inside the churned shard: the untouched
//     shard records no fault events.

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
)

func TestChaosShardNodeChurn(t *testing.T) {
	const (
		shards   = 2
		nodes    = 6 // nodes 0,2,4 → shard 0; nodes 1,3,5 → shard 1
		jobs     = 8
		tasksPer = 4
		churns   = 5
	)
	g := newShardedServer(t, shards, ShardedConfig{
		// Huge timeout keeps the background sweeper inert; the test
		// drives every death by hand so the schedule is deterministic.
		NodeTimeout: time.Hour,
	})
	registerFleet(t, g, nodes)
	for id := 0; id < jobs; id++ {
		if err := g.SubmitJob(simpleJob(id, tasksPer)); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(42))
	churned := g.Shard(1)
	alive := map[int]bool{}
	for id := 0; id < nodes; id++ {
		alive[id] = true
	}
	// In-flight completions per node; dropped when the node dies, like
	// a real crash losing its executor state.
	inflight := make(map[int][]wire.TaskCompletion)
	executed := 0

	verify := func(when string) {
		t.Helper()
		for i := 0; i < shards; i++ {
			if err := g.Shard(i).VerifyLedger(); err != nil {
				t.Fatalf("%s: shard %d ledger: %v", when, i, err)
			}
		}
	}

	step := func() (progress bool) {
		for id := 0; id < nodes; id++ {
			if !alive[id] {
				continue
			}
			done := inflight[id]
			inflight[id] = nil
			reply := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id, Completed: done})
			if reply.Type == wire.TypeError {
				t.Fatalf("node %d heartbeat: %s", id, reply.Error)
			}
			if len(done) > 0 || len(reply.NMReply.Launch) > 0 {
				progress = true
			}
			for _, l := range reply.NMReply.Launch {
				executed++
				inflight[id] = append(inflight[id], wire.TaskCompletion{
					Task: l.Task, Usage: l.Demand, Duration: l.Duration})
			}
		}
		return progress
	}

	// Warm up: get work onto every node, then churn shard 1's nodes
	// while the fleet keeps heartbeating.
	step()
	for c := 0; c < churns; c++ {
		// Kill one live shard-1 node (odd IDs), losing its in-flight work.
		victims := []int{}
		for id := 1; id < nodes; id += 2 {
			if alive[id] {
				victims = append(victims, id)
			}
		}
		if len(victims) > 0 {
			v := victims[rng.Intn(len(victims))]
			alive[v] = false
			inflight[v] = nil
			churned.mu.Lock()
			churned.markDead(v, churned.now())
			churned.mu.Unlock()
			verify("after kill")
		}
		step()
		step()
		// Recover: a fresh NM on the same machine re-registers empty.
		for id := 1; id < nodes; id += 2 {
			if !alive[id] {
				alive[id] = true
				g.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
				verify("after recover")
				break
			}
		}
		step()
	}
	// Drain: everything alive again; run until quiescent.
	for id := range alive {
		alive[id] = true
	}
	for round := 0; step(); round++ {
		if round > 2000 {
			t.Fatal("fleet did not drain after churn")
		}
	}
	verify("at end")

	total := 0
	for id := 0; id < jobs; id++ {
		am := g.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: id})
		if am.AMReply == nil {
			t.Fatalf("job %d: no AM reply", id)
		}
		if am.AMReply.Failed {
			t.Fatalf("job %d failed (unlimited attempts: churn must not abandon work)", id)
		}
		if !am.AMReply.Finished {
			t.Fatalf("job %d lost attempts: done %d/%d", id, am.AMReply.Done, am.AMReply.Total)
		}
		// Done == Total is the zero-duplication check: a double-counted
		// completion would overshoot (Status counts absorbed completions).
		if am.AMReply.Done != am.AMReply.Total {
			t.Fatalf("job %d: done %d, want exactly %d", id, am.AMReply.Done, am.AMReply.Total)
		}
		total += am.AMReply.Done
	}
	if want := jobs * tasksPer; total != want {
		t.Fatalf("completed %d tasks, want %d", total, want)
	}
	// Re-executions of reclaimed tasks are expected; silent re-runs of
	// never-killed tasks are not. Executions can never be below the task
	// count, and each churn kills at most one node's worth of work.
	if executed < jobs*tasksPer {
		t.Fatalf("executed %d launches for %d tasks — attempts lost", executed, jobs*tasksPer)
	}

	// Blast radius: the untouched shard saw no faults.
	if ev := g.Shard(0).ClusterStatus().Faults; len(ev) != 0 {
		t.Fatalf("shard 0 recorded fault events despite churn confined to shard 1: %+v", ev)
	}
	if ev := churned.ClusterStatus().Faults; len(ev) == 0 {
		t.Fatal("shard 1 recorded no fault events despite churn")
	}
	// The merged status must agree with per-shard views.
	st := g.ClusterStatus()
	if st.Nodes != nodes || len(st.Live) != nodes {
		t.Fatalf("merged status after full recovery = %+v", st)
	}
}
