package rm

// Gang chaos suite: machines die mid-gang, the RM crashes and restarts
// from its journal mid gang-commit, and gangs flow through the sharded
// router while their shard churns. The invariants are the gang
// analogues of the chaos suite's conservation properties:
//
//   - all-or-nothing admission survives churn: the inner scheduler
//     never runs a proper subset of a gang — whenever any gang member
//     occupies a machine (and no machine has died since the last
//     commit), at least a quorum does;
//   - a machine death mid-gang reclaims the dead members like any other
//     attempt (no lost or duplicated attempts), and the coordinator
//     re-places the missing members as a group, so the gang still runs
//     to completion;
//   - the journal replays gang state bit-identically: an RM killed
//     right after a gang commit — or after preemptions, or mid-hoard —
//     recovers a byte-identical state digest;
//   - under the two-level RM the gang pins to one shard, per-shard
//     ledgers verify through the churn, and the blast radius of a
//     killed machine stays inside its shard.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// gangChaosJob builds a single-stage gang job: members homogeneous,
// high priority, quorum = all members.
func gangChaosJob(id, members int, cores, memGB float64) *workload.Job {
	j := &workload.Job{ID: id, Name: fmt.Sprintf("gang-%d", id), Weight: 1, Gang: true, Priority: 9}
	st := &workload.Stage{Name: "train"}
	for i := 0; i < members; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
			Peak: resources.New(cores, memGB, 0, 0, 0, 0),
			Work: workload.Work{CPUSeconds: 20},
		})
	}
	j.Stages = []*workload.Stage{st}
	return j
}

// fillerJob builds a low-priority preemptible singleton job.
func fillerJob(id, n int) *workload.Job {
	j := simpleJob(id, n)
	j.Preemptible = true
	j.Priority = 0
	return j
}

// gangOccupancy returns the gang job's currently launched member count
// plus its finished tasks, and whether its quorum holds launches — the
// durable trace of a commit — under s.mu.
func gangOccupancy(s *Server, jobID int) (occupied int, committed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ji := s.jobs[jobID]
	if ji == nil {
		return 0, false
	}
	n := len(launchedIDs(ji, -1))
	return n + ji.state.Status.DoneTasks(), n >= ji.state.Job.GangQuorum()
}

// TestGangChaosMachineDeathMidGang drives a 1-shard RM in-process: a gang
// that needs most of the cluster waits behind preemptible fillers,
// commits all-or-nothing, then loses a machine mid-run. The dead
// members must be reclaimed and re-placed as a group, every job must
// finish with zero lost or duplicated attempts, and at no point before
// the death may a proper subset of the gang occupy machines.
func TestGangChaosMachineDeathMidGang(t *testing.T) {
	// The RM estimator doubles demands it has no history for, so a
	// (4-core, 8 GB) member is charged (8, 16) — two per 16/32 machine.
	const (
		nodes      = 4
		gangID     = 0
		members    = 6 // 3 machines' worth under the 2× overestimate
		numFillers = 3
		fillerLen  = 6
	)
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NewEstimator: estimator.New,
		Gang:         gang.Config{HoldSec: 3600, PreemptSec: 3600}, // timers inert: pure placement
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := 0; id < nodes; id++ {
		s.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
	}
	for id := 1; id <= numFillers; id++ {
		if err := s.SubmitJob(fillerJob(id, fillerLen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SubmitJob(gangChaosJob(gangID, members, 4, 8)); err != nil {
		t.Fatal(err)
	}

	alive := map[int]bool{}
	for id := 0; id < nodes; id++ {
		alive[id] = true
	}
	inflight := make(map[int][]wire.TaskCompletion)
	step := func() (progress bool) {
		for id := 0; id < nodes; id++ {
			if !alive[id] {
				continue
			}
			done := inflight[id]
			inflight[id] = nil
			reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id, Completed: done})
			if reply.Type == wire.TypeError {
				t.Fatalf("node %d heartbeat: %s", id, reply.Error)
			}
			if len(done) > 0 || len(reply.NMReply.Launch) > 0 || len(reply.NMReply.Preempt) > 0 {
				progress = true
			}
			for _, l := range reply.NMReply.Launch {
				inflight[id] = append(inflight[id], wire.TaskCompletion{
					Task: l.Task, Usage: l.Demand, Duration: l.Duration})
			}
			// Preempt frames kill queued completions for those attempts:
			// the node would have stopped the container before it finished.
			for _, p := range reply.NMReply.Preempt {
				kept := inflight[id][:0]
				for _, c := range inflight[id] {
					if c.Task != p.Task {
						kept = append(kept, c)
					}
				}
				inflight[id] = kept
			}
		}
		return progress
	}

	// Phase 1: drive until the gang commits. Before any machine death, a
	// gang member on a machine implies a quorum on machines.
	committed := false
	for round := 0; !committed; round++ {
		if round > 500 {
			t.Fatal("gang never committed")
		}
		step()
		occ, c := gangOccupancy(s.Shard(0), gangID)
		if occ > 0 && occ < members {
			t.Fatalf("round %d: partial gang on machines: %d of %d members (no death occurred)",
				round, occ, members)
		}
		committed = c
	}
	if err := s.VerifyLedger(); err != nil {
		t.Fatalf("post-commit ledger: %v", err)
	}

	// Phase 2: kill a machine hosting gang members, losing its in-flight
	// work. The reclaim must re-queue exactly the dead members.
	core := s.Shard(0)
	core.mu.Lock()
	ji := core.jobs[gangID]
	victim := -1
	if tids := launchedIDs(ji, -1); len(tids) > 0 {
		victim = ji.launch(tids[0]).machine
	}
	core.mu.Unlock()
	if victim < 0 {
		t.Fatal("gang committed but no member is launched")
	}
	alive[victim] = false
	inflight[victim] = nil
	killNode(s, victim)
	if err := s.VerifyLedger(); err != nil {
		t.Fatalf("post-death ledger: %v", err)
	}

	// Phase 3: recover the machine, drain everything.
	alive[victim] = true
	s.RegisterMachine(victim, resources.New(16, 32, 200, 200, 1000, 1000))
	for round := 0; step(); round++ {
		if round > 2000 {
			t.Fatal("cluster did not drain after machine death")
		}
	}

	// Every job finished with Done == Total exactly: zero lost attempts
	// (finished) and zero duplicated completions (Status panics on a
	// duplicate MarkDone, and Done cannot overshoot Total).
	for id := 0; id <= numFillers; id++ {
		rep := s.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: id})
		if rep.AMReply == nil || rep.AMReply.Failed {
			t.Fatalf("job %d failed or unknown", id)
		}
		if !rep.AMReply.Finished || rep.AMReply.Done != rep.AMReply.Total {
			t.Fatalf("job %d: done %d/%d, finished=%v",
				id, rep.AMReply.Done, rep.AMReply.Total, rep.AMReply.Finished)
		}
	}
	if err := s.VerifyLedger(); err != nil {
		t.Fatalf("final ledger: %v", err)
	}
}

// TestGangChaosRestartMidCommit kills a journal-backed RM at three gang
// lifecycle points — after preemptions fired for a starving gang, right
// after the gang committed, and after the workload drained — and
// requires the replayed state digest to match the pre-crash digest byte
// for byte each time.
func TestGangChaosRestartMidCommit(t *testing.T) {
	const (
		nodes   = 3
		gangID  = 0
		members = 4 // two machines' worth under the 2× overestimate
	)
	addr := reserveAddr(t)
	journalDir := t.TempDir()
	newCfg := func() ShardedConfig {
		return ShardedConfig{
			Shards:       1,
			NewScheduler: tetrisScheduler,
			NewEstimator: estimator.New,
			// A tiny preemption bound with an inert hold timer: the gang
			// preempts the fillers almost immediately, generating evPreempt
			// and the quorum's evLaunch frames for the journal to replay.
			Gang:          gang.Config{HoldSec: 3600, PreemptSec: 1e-9},
			JournalDir:    journalDir,
			SnapshotEvery: 16, // force checkpoints that must carry gang state
		}
	}
	boot := func() *Sharded {
		var (
			s   *Sharded
			err error
		)
		for attempt := 0; attempt < 50; attempt++ {
			if s, err = NewSharded(addr, newCfg()); err == nil {
				return s
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("rm would not (re)start on %s: %v", addr, err)
		return nil
	}
	s := boot()
	defer func() { s.Close() }()

	for id := 0; id < nodes; id++ {
		s.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
	}
	// Fillers that saturate the cluster and, absent completions, never
	// leave: the gang can only get in by preempting them.
	for id := 1; id <= 2; id++ {
		if err := s.SubmitJob(fillerJob(id, 10)); err != nil { // 10 × 2 cores each
			t.Fatal(err)
		}
	}

	inflight := make(map[int][]wire.TaskCompletion)
	beat := func(withCompletions bool) {
		for id := 0; id < nodes; id++ {
			var done []wire.TaskCompletion
			if withCompletions {
				done = inflight[id]
				inflight[id] = nil
			}
			reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id, Completed: done})
			if reply.Type == wire.TypeError {
				t.Fatalf("node %d heartbeat: %s", id, reply.Error)
			}
			for _, l := range reply.NMReply.Launch {
				inflight[id] = append(inflight[id], wire.TaskCompletion{
					Task: l.Task, Usage: l.Demand, Duration: l.Duration})
			}
			for _, p := range reply.NMReply.Preempt {
				kept := inflight[id][:0]
				for _, c := range inflight[id] {
					if c.Task != p.Task {
						kept = append(kept, c)
					}
				}
				inflight[id] = kept
			}
		}
	}
	crashRestart := func(when string) {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", when, err)
		}
		want := s.Shard(0).StateDigest()
		s = boot()
		if got := s.Shard(0).RecoveredDigest(); !bytes.Equal(want, got) {
			t.Fatalf("%s: replayed state diverges\n pre-crash: %s\n recovered: %s", when, want, got)
		}
		// Resync: every node re-registers its still-running attempts (the
		// in-flight set) so the restarted RM adopts them instead of
		// declaring them lost.
		for id := 0; id < nodes; id++ {
			var running []workload.TaskID
			for _, c := range inflight[id] {
				running = append(running, c.Task)
			}
			rep := s.Shard(0).handleRegisterNM(&wire.RegisterNM{
				NodeID:   id,
				Capacity: resources.New(16, 32, 200, 200, 1000, 1000),
				Running:  running,
			})
			if rep.Type == wire.TypeError {
				t.Fatalf("%s: node %d re-register: %s", when, id, rep.Error)
			}
		}
	}

	// Fill the cluster with fillers (no completions reported yet).
	beat(false)
	if err := s.SubmitJob(gangChaosJob(gangID, members, 4, 8)); err != nil {
		t.Fatal(err)
	}

	// Drive until the gang has preempted fillers and committed. Holding
	// completions back makes preemption the only path in. Both are read
	// from durable state: a preempted filler's failed attempts, and the
	// quorum's launch records.
	preempted := false
	for round := 0; ; round++ {
		if round > 500 {
			t.Fatalf("gang never committed under preemption (preempted=%v)", preempted)
		}
		beat(false)
		s.Shard(0).mu.Lock()
		var evictions int
		for id := 1; id <= 2; id++ {
			if ji := s.Shard(0).jobs[id]; ji != nil {
				evictions += ji.state.Status.TotalFailures()
			}
		}
		s.Shard(0).mu.Unlock()
		_, committed := gangOccupancy(s.Shard(0), gangID)
		if evictions > 0 && !preempted {
			preempted = true
			crashRestart("after first preemptions")
		}
		if committed {
			break
		}
	}
	if !preempted {
		t.Fatal("gang committed without preempting — the scenario did not exercise evPreempt replay")
	}
	crashRestart("mid gang-commit")

	// Drain: release completions so every surviving attempt finishes.
	for round := 0; ; round++ {
		if round > 2000 {
			t.Fatal("workload did not drain after restart")
		}
		beat(true)
		allDone := true
		s.Shard(0).mu.Lock()
		for id := 0; id <= 2; id++ {
			if ji := s.Shard(0).jobs[id]; ji == nil || !ji.finished {
				allDone = false
			}
		}
		s.Shard(0).mu.Unlock()
		if allDone {
			break
		}
	}
	crashRestart("after drain")
	if err := s.VerifyLedger(); err != nil {
		t.Fatalf("final ledger: %v", err)
	}
}

// TestGangChaosShardChurn routes a gang through a 2-shard RM while
// its shard's machines churn. The gang must pin to one shard, survive
// the death of a machine hosting its members, and finish together with
// the fillers with zero lost or duplicated attempts; the untouched
// shard must record no fault events.
func TestGangChaosShardChurn(t *testing.T) {
	const (
		shards   = 2
		nodes    = 6 // even IDs → shard 0, odd IDs → shard 1
		gangID   = 0
		members  = 5 // 5 × (8,16) estimated = 40 of a shard's 48 cores
		fillers  = 4
		tasksPer = 4
	)
	g := newShardedServer(t, shards, ShardedConfig{
		NodeTimeout: time.Hour,
		Gang:        gang.Config{HoldSec: 3600, PreemptSec: 3600},
	})
	registerFleet(t, g, nodes)
	if err := g.SubmitJob(gangChaosJob(gangID, members, 4, 8)); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= fillers; id++ {
		if err := g.SubmitJob(simpleJob(id, tasksPer)); err != nil {
			t.Fatal(err)
		}
	}

	// The gang must live on exactly one shard.
	owner := -1
	for i := 0; i < shards; i++ {
		sh := g.Shard(i)
		sh.mu.Lock()
		if sh.jobs[gangID] != nil {
			if owner >= 0 {
				t.Fatalf("gang split across shards %d and %d", owner, i)
			}
			owner = i
		}
		sh.mu.Unlock()
	}
	if owner < 0 {
		t.Fatal("gang routed nowhere")
	}

	alive := map[int]bool{}
	for id := 0; id < nodes; id++ {
		alive[id] = true
	}
	inflight := make(map[int][]wire.TaskCompletion)
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
				inflight[id] = append(inflight[id], wire.TaskCompletion{
					Task: l.Task, Usage: l.Demand, Duration: l.Duration})
			}
		}
		return progress
	}

	// Drive until the gang commits on its shard.
	ownerShard := g.Shard(owner)
	for round := 0; ; round++ {
		if round > 500 {
			t.Fatal("gang never committed on its shard")
		}
		step()
		occ, committed := gangOccupancy(ownerShard, gangID)
		if occ > 0 && occ < members {
			t.Fatalf("round %d: partial gang on shard %d: %d of %d members", round, owner, occ, members)
		}
		if committed {
			break
		}
	}

	// Kill a machine hosting gang members (necessarily in the owner
	// shard), then recover it and drain.
	ownerShard.mu.Lock()
	victim := -1
	if ji := ownerShard.jobs[gangID]; len(launchedIDs(ji, -1)) > 0 {
		victim = ji.launch(launchedIDs(ji, -1)[0]).machine
	}
	ownerShard.mu.Unlock()
	if victim < 0 {
		t.Fatal("committed gang has no launched members")
	}
	alive[victim] = false
	inflight[victim] = nil
	killNode(g, victim)
	for i := 0; i < shards; i++ {
		if err := g.Shard(i).VerifyLedger(); err != nil {
			t.Fatalf("post-kill shard %d ledger: %v", i, err)
		}
	}

	step()
	step()
	alive[victim] = true
	g.RegisterMachine(victim, resources.New(16, 32, 200, 200, 1000, 1000))
	for round := 0; step(); round++ {
		if round > 2000 {
			t.Fatal("fleet did not drain after churn")
		}
	}

	for id := 0; id <= fillers; id++ {
		rep := g.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: id})
		if rep.AMReply == nil || rep.AMReply.Failed {
			t.Fatalf("job %d failed or unknown", id)
		}
		if !rep.AMReply.Finished || rep.AMReply.Done != rep.AMReply.Total {
			t.Fatalf("job %d: done %d/%d, finished=%v",
				id, rep.AMReply.Done, rep.AMReply.Total, rep.AMReply.Finished)
		}
	}
	for i := 0; i < shards; i++ {
		if err := g.Shard(i).VerifyLedger(); err != nil {
			t.Fatalf("final shard %d ledger: %v", i, err)
		}
	}
	// Blast radius: the shard that never hosted the gang's dead machine
	// saw no fault events.
	if ev := g.Shard(1 - owner).ClusterStatus().Faults; len(ev) != 0 {
		t.Fatalf("shard %d recorded fault events for shard %d's churn: %+v", 1-owner, owner, ev)
	}
}

// TestPreemptedBeforeDelivery: a filler launched on a node that has not
// beaten since, then preempted for a gang, never reaches the node. The
// node's next reply carries neither the filler's launch nor a kill for
// it — a kill applied before the launch would leave running an attempt
// the RM already released and requeued — and does carry the gang.
func TestPreemptedBeforeDelivery(t *testing.T) {
	const small, big = 0, 1
	clock := new(virtualClock)
	g := newVirtualSharded(t, ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		Gang:         gang.Config{HoldSec: 3600, PreemptSec: 10},
	}, clock)
	g.RegisterMachine(small, resources.New(1, 2, 100, 100, 100, 100)) // fits no task
	g.RegisterMachine(big, resources.New(4, 8, 100, 100, 100, 100))   // fits the filler or the gang
	filler := fillerJob(1, 1)
	if err := g.SubmitJob(filler); err != nil {
		t.Fatal(err)
	}
	beat := func(id int) *wire.NMReply {
		t.Helper()
		r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id})
		if r.Type == wire.TypeError {
			t.Fatalf("node %d: %s", id, r.Error)
		}
		return r.NMReply
	}
	beat(small) // places the filler on the big node, which does not beat
	if err := g.SubmitJob(gangChaosJob(2, 2, 2, 4)); err != nil {
		t.Fatal(err)
	}
	beat(small) // the gang starts waiting: one of its two members fits
	clock.advance(11 * time.Second)
	beat(small) // past PreemptSec: the gang evicts the filler
	if n := g.Shard(0).metrics.preemptions.Value(); n != 1 {
		t.Fatalf("%d preemptions, want 1", n)
	}

	rep := beat(big)
	members := 0
	for _, l := range rep.Launch {
		if l.Task.Job == filler.ID {
			t.Errorf("reply launches the preempted filler %v", l.Task)
		} else {
			members++
		}
	}
	for _, p := range rep.Preempt {
		t.Errorf("reply kills %v, which the node never received", p.Task)
	}
	if members != 2 {
		t.Errorf("reply launches %d gang members, want 2: %+v", members, rep.Launch)
	}
	if err := g.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}
