package rm

import (
	"runtime"
	"strings"
	"testing"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

func tetrisScheduler() scheduler.Scheduler {
	return scheduler.NewTetris(scheduler.DefaultTetrisConfig())
}

func newServer(t *testing.T) *Sharded {
	t.Helper()
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NewEstimator: estimator.New,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func simpleJob(id, n int) *workload.Job {
	j := &workload.Job{ID: id, Weight: 1}
	st := &workload.Stage{Name: "s"}
	for i := 0; i < n; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
			Peak: resources.New(2, 4, 0, 0, 0, 0),
			Work: workload.Work{CPUSeconds: 20},
		})
	}
	j.Stages = []*workload.Stage{st}
	return j
}

func TestRequiresScheduler(t *testing.T) {
	if _, err := NewSharded("127.0.0.1:0", ShardedConfig{Shards: 1}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if err := (&Server{cfg: &ShardedConfig{}}).open(); err == nil {
		t.Error("shard core accepted a nil scheduler")
	}
}

func TestRegisterAndHeartbeatLifecycle(t *testing.T) {
	s := newServer(t)
	s.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	if err := s.SubmitJob(simpleJob(0, 3)); err != nil {
		t.Fatal(err)
	}

	// First heartbeat: machine is empty, the scheduler should hand out
	// all three tasks (they fit: 6 cores / 12 GB).
	reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	if reply.Type == wire.TypeError {
		t.Fatalf("heartbeat error: %s", reply.Error)
	}
	if got := len(reply.NMReply.Launch); got != 3 {
		t.Fatalf("launched %d tasks, want 3", got)
	}
	for _, l := range reply.NMReply.Launch {
		if l.Duration != 10 { // 20 core-seconds at 2 cores
			t.Errorf("launch duration = %v, want 10", l.Duration)
		}
	}

	// Second heartbeat without completions: nothing more to launch.
	reply = s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	if got := len(reply.NMReply.Launch); got != 0 {
		t.Fatalf("relaunched %d tasks", got)
	}

	// Complete all three: job must finish.
	var completions []wire.TaskCompletion
	for i := 0; i < 3; i++ {
		completions = append(completions, wire.TaskCompletion{
			Task:     workload.TaskID{Job: 0, Stage: 0, Index: i},
			Usage:    resources.New(2, 4, 0, 0, 0, 0),
			Duration: 10,
		})
	}
	s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: completions})

	am := s.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: 0})
	if am.AMReply == nil || !am.AMReply.Finished || am.AMReply.Done != 3 {
		t.Fatalf("AM reply = %+v", am)
	}

	nmMean, _, amMean, _ := s.HeartbeatStats()
	if nmMean <= 0 || amMean <= 0 {
		t.Error("heartbeat stats not recorded")
	}
}

func TestUnregisteredNodeRejected(t *testing.T) {
	s := newServer(t)
	reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 7})
	if reply.Type != wire.TypeError {
		t.Error("heartbeat from unregistered node accepted")
	}
}

// TestRegisterRefusesOutOfRangeNodeID: the node table is dense by ID, so
// registering an ID far past the fleet would first allocate a slot for
// every ID below it — at the parent RegisterNM{NodeID: 1<<40} never
// answered. Live registration, journal replay and snapshot restore refuse
// it as they refuse a negative ID: no slot, next to no allocation.
func TestRegisterRefusesOutOfRangeNodeID(t *testing.T) {
	g, err := NewShardedInProcess(ShardedConfig{Shards: 2, NewScheduler: tetrisScheduler})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	g.RegisterMachine(5, capV)
	slots := func() (n int) {
		for i := 0; i < g.NumShards(); i++ {
			s := g.Shard(i)
			s.mu.Lock()
			n += len(s.view.Machines)
			s.mu.Unlock()
		}
		return n
	}
	want := slots()
	for _, id := range []int{-1, maxNodeID, 1 << 40} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reply, _ := g.Call(&wire.Message{Type: wire.TypeRegisterNM, RegisterNM: &wire.RegisterNM{NodeID: id, Capacity: capV}})
		runtime.ReadMemStats(&after)
		if reply.Type != wire.TypeError || !strings.Contains(reply.Error, "invalid node id") {
			t.Errorf("register node %d: %+v, want an invalid-node-id error", id, reply)
		}
		if got := slots(); got != want {
			t.Errorf("register node %d: %d machine slots, want %d", id, got, want)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Errorf("register node %d allocated %d bytes", id, b)
		}
	}

	core := g.Shard(0)
	core.mu.Lock()
	errReplay := core.applyEvent(&event{Kind: evRegister, Node: 1 << 40, Capacity: capV})
	// A snapshot of one machine, node 1<<40, and nothing else.
	snap := wire.AppendFloat([]byte{snapshotTag}, 0)
	snap = wire.AppendCount(snap, 1)
	snap = wire.AppendInt(snap, 1<<40)
	snap = wire.AppendVector(snap, &capV)
	snap = wire.AppendVector(snap, &resources.Vector{})
	snap = append(snap, 0, 0)          // flags, epoch
	snap = append(snap, 0, 0, 0, 0, 0) // no jobs, faults, drops or estimator stages
	errRestore := restoreDigest(core, snap)
	core.mu.Unlock()
	if errReplay == nil || errRestore == nil {
		t.Errorf("replay: %v, restore: %v; want both refused", errReplay, errRestore)
	}
	if got := slots(); got != want {
		t.Errorf("after replay and restore: %d machine slots, want %d", got, want)
	}
}

// TestSubmitRefusesOutOfRangeInputMachine: the scheduler's locality index
// is dense by machine ID, so a job with an input block on a machine far
// past the fleet would make every later round on its shard allocate a
// slot for each ID below it. Live and batch submission reject it as
// invalid, and journal replay refuses it, as node registration does.
func TestSubmitRefusesOutOfRangeInputMachine(t *testing.T) {
	g, err := NewShardedInProcess(ShardedConfig{Shards: 2, NewScheduler: tetrisScheduler})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	far := func(id int) *workload.Job {
		j := simpleJob(id, 1)
		task := j.Stages[0].Tasks[0]
		task.Peak = task.Peak.With(resources.DiskRead, 50)
		task.Inputs = []workload.InputBlock{{Machine: 1 << 40, SizeMB: 10}}
		return j
	}

	reply := g.handleSubmitJob(&wire.SubmitJob{Job: far(1), Tenant: "t"})
	if reply.Type != wire.TypeSubmitReject || reply.SubmitReject.Code != wire.RejectInvalid {
		t.Errorf("submit: %+v, want %s", reply, wire.RejectInvalid)
	}
	results, err := g.SubmitBatch("t", []*workload.Job{far(2)})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Reject == nil || results[0].Reject.Code != wire.RejectInvalid {
		t.Errorf("batch submit: %+v, want %s", results[0].Reject, wire.RejectInvalid)
	}
	core := g.Shard(0)
	core.mu.Lock()
	errReplay := core.applyEvent(&event{Kind: evSubmit, Job: far(3), Tenant: "t"})
	jobs := len(core.jobs)
	core.mu.Unlock()
	if errReplay == nil {
		t.Error("replay accepted a job with an input on machine 1<<40")
	}
	if jobs != 0 {
		t.Errorf("shard 0 holds %d jobs, want 0", jobs)
	}
}

func TestDuplicateJobRejected(t *testing.T) {
	s := newServer(t)
	if err := s.SubmitJob(simpleJob(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Re-submitting the identical definition is idempotent (a reconnecting
	// AM must be able to retry safely)...
	if err := s.SubmitJob(simpleJob(1, 1)); err != nil {
		t.Errorf("idempotent resubmission rejected: %v", err)
	}
	// ...but a different job under the same ID is a real conflict.
	if err := s.SubmitJob(simpleJob(1, 2)); err == nil {
		t.Error("conflicting job definition accepted under reused ID")
	}
}

func TestInvalidJobRejected(t *testing.T) {
	s := newServer(t)
	bad := simpleJob(2, 1)
	bad.Stages[0].Deps = []int{0}
	if err := s.SubmitJob(bad); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestUnknownAMJob(t *testing.T) {
	s := newServer(t)
	if reply := s.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: 99}); reply.Type != wire.TypeError {
		t.Error("unknown job poll accepted")
	}
}

func TestSchedulerRespectsReportedUsage(t *testing.T) {
	s := newServer(t)
	s.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	if err := s.SubmitJob(simpleJob(0, 8)); err != nil {
		t.Fatal(err)
	}
	// Node reports 13 of 16 cores busy (e.g. ingestion): only one task
	// fits (estimated demand 2×1.5 = 3 cores under first-wave
	// over-estimation).
	reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{
		NodeID: 0,
		Used:   resources.Vector{}.With(resources.CPU, 13),
	})
	if got := len(reply.NMReply.Launch); got != 1 {
		t.Fatalf("launched %d tasks onto a busy machine, want 1", got)
	}
}

func TestBarrierAcrossHeartbeats(t *testing.T) {
	s := newServer(t)
	s.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	j := simpleJob(0, 2)
	red := &workload.Stage{Name: "r", Deps: []int{0}}
	red.Tasks = append(red.Tasks, &workload.Task{
		ID:   workload.TaskID{Job: 0, Stage: 1, Index: 0},
		Peak: resources.New(1, 1, 0, 0, 0, 0),
		Work: workload.Work{CPUSeconds: 5},
	})
	j.Stages = append(j.Stages, red)
	if err := s.SubmitJob(j); err != nil {
		t.Fatal(err)
	}
	reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	if got := len(reply.NMReply.Launch); got != 2 {
		t.Fatalf("launched %d, want only the 2 maps (barrier)", got)
	}
	// Complete the maps; the reducer unlocks.
	var comps []wire.TaskCompletion
	for i := 0; i < 2; i++ {
		comps = append(comps, wire.TaskCompletion{Task: workload.TaskID{Job: 0, Stage: 0, Index: i}})
	}
	reply = s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: comps})
	if got := len(reply.NMReply.Launch); got != 1 || reply.NMReply.Launch[0].Task.Stage != 1 {
		t.Fatalf("after barrier: launch = %+v", reply.NMReply.Launch)
	}
}

func TestLaunchQueuedForOtherNode(t *testing.T) {
	// No estimator: declared demands are used as-is, so the full packing
	// is visible in the very first round.
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, cap)
	s.RegisterMachine(1, cap)
	// 16 tasks of 4 cores: 4 per machine.
	if err := s.SubmitJob(simpleJobBig(0, 16)); err != nil {
		t.Fatal(err)
	}
	r0 := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	// The scheduling round on node 0's heartbeat also assigned tasks to
	// node 1; they are delivered on node 1's heartbeat.
	r1 := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1})
	if len(r0.NMReply.Launch)+len(r1.NMReply.Launch) != 8 {
		t.Fatalf("launched %d+%d, want 8 total (4 cores × 4 per machine)",
			len(r0.NMReply.Launch), len(r1.NMReply.Launch))
	}
}

func TestOverestimationThrottlesFirstWave(t *testing.T) {
	// With the estimator active and no completions yet, demands are
	// inflated 1.5× (§4.1: over-estimation is preferred to
	// under-estimation), so fewer tasks are launched in the first wave.
	s := newServer(t)
	s.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	if err := s.SubmitJob(simpleJobBig(0, 16)); err != nil {
		t.Fatal(err)
	}
	reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	// Declared (4,8) → estimated (6,12): 2 fit (cores 12 ≤ 16, mem 24 ≤ 32).
	if got := len(reply.NMReply.Launch); got != 2 {
		t.Fatalf("first wave = %d tasks, want 2 under 1.5× over-estimation", got)
	}
	// After 3 completions the in-stage statistics take over and the
	// next wave packs at the true demands.
	var comps []wire.TaskCompletion
	for i := 0; i < 2; i++ {
		comps = append(comps, wire.TaskCompletion{
			Task:     reply.NMReply.Launch[i].Task,
			Usage:    resources.New(4, 8, 0, 0, 0, 0),
			Duration: 5,
		})
	}
	reply = s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: comps})
	got := len(reply.NMReply.Launch)
	if got < 2 {
		t.Fatalf("second wave = %d tasks, want ≥ 2 as estimates improve", got)
	}
}

func simpleJobBig(id, n int) *workload.Job {
	j := &workload.Job{ID: id, Weight: 1}
	st := &workload.Stage{Name: "s"}
	for i := 0; i < n; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
			Peak: resources.New(4, 8, 0, 0, 0, 0),
			Work: workload.Work{CPUSeconds: 20},
		})
	}
	j.Stages = []*workload.Stage{st}
	return j
}

// TestGangAllOrNothingByDefault: an RM built with no gang settings still
// admits a gang all-or-nothing. Two of the gang's three 6-core members
// fit beside the fillers mostlyBusy starts, so a task-at-a-time round
// would launch them; none may launch until a filler completes and the
// whole quorum fits, and then all three launch in one round.
func TestGangAllOrNothingByDefault(t *testing.T) {
	g := newVirtualSharded(t, ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler}, new(virtualClock))
	mostlyBusy(t, g)
	const gangID = 2
	if err := g.SubmitJob(gangChaosJob(gangID, 3, 6, 12)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sweep(t, g, 2, true)
		if occupied, _ := gangOccupancy(g.Shard(0), gangID); occupied != 0 {
			t.Fatalf("sweep %d: %d gang members launched before the quorum fits", i, occupied)
		}
	}

	// Complete the filler task on machine 0: it now has room for two
	// members, machine 1 for the third.
	s := g.Shard(0)
	s.mu.Lock()
	var filler workload.TaskID
	for _, tid := range launchedIDs(s.jobs[1], 0) {
		filler = tid
	}
	s.mu.Unlock()
	done := wire.TaskCompletion{Task: filler, Usage: resources.New(10, 20, 0, 0, 0, 0), Duration: 1}
	if r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Delta: true, Completed: []wire.TaskCompletion{done}}); r.Type == wire.TypeError {
		t.Fatal(r.Error)
	}
	if occupied, committed := gangOccupancy(s, gangID); occupied != 3 || !committed {
		t.Fatalf("the round after the quorum fits launched %d members (committed %v), want all 3", occupied, committed)
	}
	if err := g.VerifyLedger(); err != nil {
		t.Error(err)
	}
}
