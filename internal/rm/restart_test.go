package rm

// Crash-restart recovery tests: journal replay equivalence, snapshot
// checkpointing, and resync reconciliation. These drive the RM handlers
// in-process (no sockets) so every byte of state is deterministic.

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// journaledServer creates an RM journaling to dir. The huge node
// timeout keeps the background sweeper inert so tests stay
// deterministic.
func journaledServer(t *testing.T, dir string, snapEvery int) *Sharded {
	t.Helper()
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:          1,
		NewScheduler:    tetrisScheduler,
		NewEstimator:    estimator.New,
		NodeTimeout:     time.Hour,
		MaxTaskAttempts: 10,
		JournalDir:      dir,
		SnapshotEvery:   snapEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// failedAttempts returns the failed task attempts charged to a job.
func failedAttempts(g *Sharded, jobID int) int {
	s := g.Shard(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[jobID].state.Status.TotalFailures()
}

func completionsFor(launch []wire.TaskLaunch) []wire.TaskCompletion {
	var out []wire.TaskCompletion
	for _, l := range launch {
		out = append(out, wire.TaskCompletion{Task: l.Task, Usage: l.Demand, Duration: 7.5})
	}
	return out
}

// TestJournalReplayEquivalence exercises the core durability claim: a
// restarted RM replaying its journal reaches a state byte-identical to
// the live pre-crash state — across launches, completions (which feed
// the estimator's floating-point accumulators), a node death with task
// reclamation, and a rejoin.
func TestJournalReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	s := journaledServer(t, dir, 0)
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, cap)
	s.RegisterMachine(1, cap)
	if err := s.SubmitJob(simpleJob(0, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitJob(simpleJob(1, 4)); err != nil {
		t.Fatal(err)
	}
	r0 := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	r1 := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1})
	if len(r0.NMReply.Launch)+len(r1.NMReply.Launch) == 0 {
		t.Fatal("nothing launched")
	}
	// Complete node 1's tasks (estimator observes), kill node 0 (tasks
	// reclaimed as failed attempts), then let it rejoin via heartbeat.
	s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1, Completed: completionsFor(r1.NMReply.Launch)})
	killNode(s, 0)
	r0 = s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0}) // rejoin + relaunch
	s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: completionsFor(r0.NMReply.Launch)})

	if err := s.VerifyLedger(); err != nil {
		t.Fatalf("live ledger: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	want := s.Shard(0).StateDigest()

	s2 := journaledServer(t, dir, 0)
	got := s2.Shard(0).RecoveredDigest()
	if !bytes.Equal(want, got) {
		t.Fatalf("replayed state diverges from pre-crash state:\n pre-crash: %s\n recovered: %s", want, got)
	}
	if err := s2.VerifyLedger(); err != nil {
		t.Fatalf("recovered ledger: %v", err)
	}
	if s2.ResyncPending() == 0 {
		t.Fatal("recovered machines not awaiting resync")
	}
}

// TestSnapshotCheckpointAndTruncate verifies that checkpoints kick in
// at the configured cadence, truncate the log, and that recovery from
// snapshot+suffix is still exact.
func TestSnapshotCheckpointAndTruncate(t *testing.T) {
	dir := t.TempDir()
	s := journaledServer(t, dir, 5) // checkpoint every 5 records
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, cap)
	for id := 0; id < 6; id++ {
		if err := s.SubmitJob(simpleJob(id, 2)); err != nil {
			t.Fatal(err)
		}
		r := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
		s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: completionsFor(r.NMReply.Launch)})
	}
	appends, snaps, ok := s.JournalStats()
	if !ok || appends == 0 {
		t.Fatalf("journal inactive: appends=%d ok=%v", appends, ok)
	}
	if snaps == 0 {
		t.Fatalf("no snapshot after %d appends with cadence 5", appends)
	}
	s.Close()
	want := s.Shard(0).StateDigest()

	s2 := journaledServer(t, dir, 5)
	if got := s2.Shard(0).RecoveredDigest(); !bytes.Equal(want, got) {
		t.Fatalf("snapshot+log recovery diverges:\n pre-crash: %s\n recovered: %s", want, got)
	}
}

// viewSummary reads what a scheduling round would see of the shard's
// capacity and job list: the ID-ordered capacity total and the active
// job IDs.
func viewSummary(s *Server) (total resources.Vector, active []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshCaps()
	for _, j := range s.view.Jobs {
		active = append(active, j.Job.ID)
	}
	return s.view.Total, active
}

// TestRecoveryAfterOutOfOrderRegistration: nodes register and jobs
// arrive out of ID order, one job finishes, the RM closes and recovers.
// A log replay meets the machines in the live order, a snapshot restore
// in ID order; either way the recovered shard's capacity total must
// equal the live one's bit for bit (it is summed in ID order on both
// sides, not in arrival order), and so must its active list and state.
func TestRecoveryAfterOutOfOrderRegistration(t *testing.T) {
	for _, tc := range []struct {
		name      string
		snapEvery int
	}{{"log replay", 0}, {"snapshot restore", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := journaledServer(t, dir, tc.snapEvery)
			nodes := []int{5, 0, 3, 7, 1, 6, 2, 4}
			for _, id := range nodes {
				f := float64(id)
				// Non-dyadic capacities: the order of summation shows in the
				// last bits.
				s.RegisterMachine(id, resources.New(16.1+0.3*f, 32.7+0.1*f, 200.3, 199.9, 1000.7, 999.1))
			}
			for _, id := range []int{9, 2, 5} {
				if err := s.SubmitJob(simpleJob(id, 6)); err != nil {
					t.Fatal(err)
				}
			}
			launched := make(map[int][]wire.TaskLaunch) // job → launches
			for round := 0; round < 2; round++ {
				for _, id := range nodes {
					r := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id})
					for _, l := range r.NMReply.Launch {
						launched[l.JobID] = append(launched[l.JobID], l)
					}
				}
			}
			if len(launched[2]) != 6 {
				t.Fatalf("job 2 launched %d of 6 tasks", len(launched[2]))
			}
			byNode := make(map[int][]wire.TaskLaunch)
			s.Shard(0).mu.Lock()
			for _, l := range launched[2] {
				node := s.Shard(0).jobs[2].launched[l.Task].machine
				byNode[node] = append(byNode[node], l)
			}
			s.Shard(0).mu.Unlock()
			for node, ls := range byNode {
				s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: node, Completed: completionsFor(ls)})
			}
			if err := s.VerifyLedger(); err != nil {
				t.Fatalf("live ledger: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			wantTotal, wantActive := viewSummary(s.Shard(0))
			if !slices.Equal(wantActive, []int{5, 9}) {
				t.Fatalf("live active list %v, want [5 9]", wantActive)
			}

			s2 := journaledServer(t, dir, tc.snapEvery)
			if got, want := s2.Shard(0).RecoveredDigest(), s.Shard(0).StateDigest(); !bytes.Equal(want, got) {
				t.Fatalf("recovered state diverges:\n pre-crash: %s\n recovered: %s", want, got)
			}
			gotTotal, gotActive := viewSummary(s2.Shard(0))
			if !gotTotal.SameBits(wantTotal) {
				t.Errorf("recovered capacity total %v differs in bits from the live %v", gotTotal, wantTotal)
			}
			if !slices.Equal(gotActive, wantActive) {
				t.Errorf("recovered active list %v, live %v", gotActive, wantActive)
			}
			if err := s2.VerifyLedger(); err != nil {
				t.Errorf("recovered ledger: %v", err)
			}
		})
	}
}

// TestResyncReconciliation covers the three reconciliation outcomes:
// adopted tasks keep their ledger charges, completions buffered during
// the RM outage apply, and orphans (tasks of a job the ledger does not
// know) are killed.
func TestResyncReconciliation(t *testing.T) {
	dir := t.TempDir()
	s := journaledServer(t, dir, 0)
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, cap)
	if err := s.SubmitJob(simpleJob(0, 3)); err != nil {
		t.Fatal(err)
	}
	r := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	launch := r.NMReply.Launch
	if len(launch) != 3 {
		t.Fatalf("launched %d tasks, want 3", len(launch))
	}
	s.Close()

	s2 := journaledServer(t, dir, 0)
	// Heartbeats from a not-yet-reconciled node are rejected: only a
	// registration carries the running set the RM needs.
	if rep := s2.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0}); rep.Type != wire.TypeError {
		t.Fatal("heartbeat accepted from resync-pending node")
	}
	// The node re-registers still running tasks 0 and 1; task 2 finished
	// during the outage; an alien task (job 99) is also running.
	alien := workload.TaskID{Job: 99, Stage: 0, Index: 0}
	rep := s2.Shard(0).handleRegisterNM(&wire.RegisterNM{
		NodeID: 0, Capacity: cap,
		Running:   []workload.TaskID{launch[0].Task, launch[1].Task, alien},
		Completed: []wire.TaskCompletion{{Task: launch[2].Task, Usage: launch[2].Demand, Duration: 7.5}},
	})
	if rep.Type == wire.TypeError {
		t.Fatalf("re-register rejected: %s", rep.Error)
	}
	if len(rep.NMReply.Kill) != 1 || rep.NMReply.Kill[0] != alien {
		t.Fatalf("kill list = %v, want just %v", rep.NMReply.Kill, alien)
	}
	if s2.ResyncPending() != 0 {
		t.Fatal("resync not cleared by re-registration")
	}
	if err := s2.VerifyLedger(); err != nil {
		t.Fatalf("post-resync ledger: %v", err)
	}
	// The adopted tasks finish normally; no attempt was ever charged.
	hb := s2.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: []wire.TaskCompletion{
		{Task: launch[0].Task, Usage: launch[0].Demand, Duration: 7.5},
		{Task: launch[1].Task, Usage: launch[1].Demand, Duration: 7.5},
	}})
	if hb.Type == wire.TypeError {
		t.Fatalf("heartbeat after resync: %s", hb.Error)
	}
	am := s2.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: 0})
	if am.AMReply == nil || !am.AMReply.Finished || am.AMReply.Failed {
		t.Fatalf("job not finished after resync completions: %+v", am)
	}
	if attempts := failedAttempts(s2, 0); attempts != 0 {
		t.Fatalf("resync charged %d failed attempts, want 0", attempts)
	}
}

// TestResyncLostLaunchesRequeued verifies launches the node never
// received (they were queued, not delivered, when the RM died) are
// re-queued without burning a task attempt, and run to completion after
// the restart.
func TestResyncLostLaunchesRequeued(t *testing.T) {
	dir := t.TempDir()
	s := journaledServer(t, dir, 0)
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, cap)
	if err := s.SubmitJob(simpleJob(0, 3)); err != nil {
		t.Fatal(err)
	}
	// Launches are journaled at scheduling time; the RM dies before the
	// node's heartbeat could deliver them.
	s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	s.Close()

	s2 := journaledServer(t, dir, 0)
	// The node re-registers running nothing: every journaled launch was
	// lost in flight.
	rep := s2.Shard(0).handleRegisterNM(&wire.RegisterNM{NodeID: 0, Capacity: cap})
	if rep.Type == wire.TypeError {
		t.Fatalf("re-register rejected: %s", rep.Error)
	}
	if len(rep.NMReply.Kill) != 0 {
		t.Fatalf("unexpected kills: %v", rep.NMReply.Kill)
	}
	if err := s2.VerifyLedger(); err != nil {
		t.Fatalf("post-resync ledger: %v", err)
	}
	// The next heartbeat re-launches them; completing them finishes the
	// job with zero failed attempts.
	r := s2.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	if len(r.NMReply.Launch) != 3 {
		t.Fatalf("re-launched %d tasks, want 3", len(r.NMReply.Launch))
	}
	s2.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: completionsFor(r.NMReply.Launch)})
	am := s2.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: 0})
	if am.AMReply == nil || !am.AMReply.Finished {
		t.Fatalf("job not finished: %+v", am)
	}
	if attempts := failedAttempts(s2, 0); attempts != 0 {
		t.Fatalf("lost launches charged %d failed attempts, want 0", attempts)
	}
}

// TestResyncTimeoutReclaims verifies a recovered node that never
// re-registers is eventually declared plain dead: its preserved ledger
// is reclaimed and its tasks return to pending (as failed attempts, as
// for any machine loss).
func TestResyncTimeoutReclaims(t *testing.T) {
	dir := t.TempDir()
	s := journaledServer(t, dir, 0)
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, cap)
	if err := s.SubmitJob(simpleJob(0, 3)); err != nil {
		t.Fatal(err)
	}
	r := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	if len(r.NMReply.Launch) != 3 {
		t.Fatalf("launched %d tasks, want 3", len(r.NMReply.Launch))
	}
	s.Close()

	s2, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NodeTimeout:  50 * time.Millisecond,
		JournalDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ResyncPending() != 1 {
		t.Fatalf("ResyncPending = %d, want 1", s2.ResyncPending())
	}
	// The node never re-registers; the failure detector gives up on it.
	deadline := time.Now().Add(2 * time.Second)
	for s2.ResyncPending() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		s2.CheckFailures()
	}
	if s2.ResyncPending() != 0 {
		t.Fatal("resync-pending node never declared dead")
	}
	if got := s2.LiveNodes(); got != 0 {
		t.Fatalf("LiveNodes = %d, want 0", got)
	}
	if err := s2.VerifyLedger(); err != nil {
		t.Fatalf("ledger after reclaim: %v", err)
	}
	if attempts := failedAttempts(s2, 0); attempts != 3 {
		t.Fatalf("reclaim charged %d failed attempts, want 3", attempts)
	}
}

// TestIdempotentResubmitAcrossRestart verifies a reconnecting AM can
// re-submit its job to a journal-recovered RM and get progress instead
// of an error — while a conflicting definition under the same ID is
// still rejected.
func TestIdempotentResubmitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := journaledServer(t, dir, 0)
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, cap)
	if err := s.SubmitJob(simpleJob(0, 2)); err != nil {
		t.Fatal(err)
	}
	r := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: completionsFor(r.NMReply.Launch)})
	s.Close()

	s2 := journaledServer(t, dir, 0)
	rep := s2.handleSubmitJob(&wire.SubmitJob{Job: simpleJob(0, 2)})
	if rep.Type == wire.TypeError {
		t.Fatalf("idempotent resubmission rejected: %s", rep.Error)
	}
	if rep.AMReply == nil || !rep.AMReply.Finished || rep.AMReply.Done != 2 {
		t.Fatalf("resubmission lost progress: %+v", rep.AMReply)
	}
	if err := s2.SubmitJob(simpleJob(0, 3)); err == nil {
		t.Fatal("conflicting definition accepted under reused ID")
	}
}

// TestRestartOneClockAcrossShards: a restarted multi-shard RM continues
// one clock from the newest event any shard journaled. Were each shard to
// resume from its own last event, shard 0 (last event at ≈ 0 s) would run
// ≈ 0.3 s behind shard 1 for the life of the process, and the merged
// fault log would list node 0's later crash first.
func TestRestartOneClockAcrossShards(t *testing.T) {
	dir := t.TempDir()
	g, err := journaledSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	g.RegisterMachine(0, capV)
	time.Sleep(300 * time.Millisecond)
	g.RegisterMachine(1, capV)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g, err = journaledSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	killNode(g, 1)
	killNode(g, 0)
	ev := g.ClusterStatus().Faults
	if len(ev) != 2 || ev[0].Machine != 1 || ev[1].Machine != 0 {
		t.Fatalf("merged fault log = %+v, want node 1's crash, then node 0's", ev)
	}
}
