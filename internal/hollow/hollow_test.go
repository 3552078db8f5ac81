package hollow

import (
	"context"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/workload"
)

func tetrisScheduler() scheduler.Scheduler {
	return scheduler.NewTetris(scheduler.DefaultTetrisConfig())
}

// mkChurnPlan crashes machines 2 and 7 at 0.5s and recovers them at
// 1.5s — both windows comfortably longer than the RM's NodeTimeout so
// the detector confirms each death before the node returns.
func mkChurnPlan() *faults.Plan {
	return &faults.Plan{Events: []faults.Event{
		{Time: 0.5, Kind: faults.MachineCrash, Machine: 2},
		{Time: 0.5, Kind: faults.MachineCrash, Machine: 7},
		{Time: 1.5, Kind: faults.MachineRecover, Machine: 2},
		{Time: 1.5, Kind: faults.MachineRecover, Machine: 7},
	}}
}

func mkJob(id, nTasks int, cores, mem, durSec float64) *workload.Job {
	j := &workload.Job{ID: id, Weight: 1}
	st := &workload.Stage{Name: "map"}
	for i := 0; i < nTasks; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
			Peak: resources.New(cores, mem, 0, 0, 0, 0),
			Work: workload.Work{CPUSeconds: cores * durSec},
		})
	}
	j.Stages = []*workload.Stage{st}
	return j
}

// TestHollowFleetEndToEnd runs a small fleet plus a hollow AM pool
// against a real RM in-process: jobs must finish through synthetic
// task execution, delta heartbeats must compress the steady state, and
// the RM's ledger must balance afterwards.
func TestHollowFleetEndToEnd(t *testing.T) {
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	fleet, err := New(Config{
		RMAddr:      srv.Addr(),
		Nodes:       40,
		Conns:       3,
		Heartbeat:   25 * time.Millisecond,
		Compression: 50,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetCtx, stopFleet := context.WithCancel(ctx)
	fleetDone := make(chan struct{})
	go func() {
		defer close(fleetDone)
		fleet.Run(fleetCtx)
	}()

	jobs := []*workload.Job{
		mkJob(1, 30, 2, 4, 20),
		mkJob(2, 20, 4, 8, 30),
		mkJob(3, 10, 1, 2, 10),
	}
	rep := RunAMs(ctx, AMConfig{
		RMAddr:    srv.Addr(),
		Jobs:      jobs,
		AMs:       3,
		Poll:      30 * time.Millisecond,
		TimeScale: 50,
		Seed:      7,
	})
	stopFleet()
	<-fleetDone

	if rep.Finished != len(jobs) || rep.Failed != 0 {
		t.Fatalf("AM pool: %d finished, %d failed, want %d finished (report %+v)",
			rep.Finished, rep.Failed, len(jobs), rep)
	}
	fr := fleet.Report()
	if fr.Registers < 40 {
		t.Errorf("Registers = %d, want >= 40 (every node once)", fr.Registers)
	}
	if fr.Beats == 0 || fr.RTTSamples == 0 {
		t.Errorf("no heartbeats measured: %+v", fr)
	}
	if fr.DeltaBeats == 0 {
		t.Errorf("no heartbeat compressed to a delta report: %+v", fr)
	}
	wantTasks := uint64(60)
	if fr.TasksCompleted < wantTasks {
		t.Errorf("TasksCompleted = %d, want %d", fr.TasksCompleted, wantTasks)
	}
	if fr.BytesSent == 0 || fr.BytesRecv == 0 {
		t.Errorf("wire byte counters empty: %+v", fr)
	}
	if fr.RTTp50 <= 0 || fr.RTTp99 < fr.RTTp50 {
		t.Errorf("RTT quantiles inconsistent: p50=%v p99=%v", fr.RTTp50, fr.RTTp99)
	}
	if err := srv.VerifyLedger(); err != nil {
		t.Errorf("ledger after hollow run: %v", err)
	}
}

// TestHollowBinaryBatchedFleet runs the fleet in its scale
// configuration — binary frames carrying batched delta heartbeats —
// against a real RM, with planned churn so batch replies carry
// per-node "unregistered node" errors mid-run (the crashed nodes must
// re-register through the batched path). Jobs still finish and the
// ledger still balances, demonstrating batching changes framing only,
// not semantics.
func TestHollowBinaryBatchedFleet(t *testing.T) {
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NodeTimeout:  150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	fleet, err := New(Config{
		RMAddr:      srv.Addr(),
		Nodes:       40,
		Conns:       3,
		Heartbeat:   25 * time.Millisecond,
		Compression: 50,
		Seed:        11,
		Batch:       8,
		Plan:        mkChurnPlan(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetCtx, stopFleet := context.WithCancel(ctx)
	fleetDone := make(chan struct{})
	go func() {
		defer close(fleetDone)
		fleet.Run(fleetCtx)
	}()

	jobs := []*workload.Job{
		mkJob(1, 30, 2, 4, 20),
		mkJob(2, 20, 4, 8, 30),
		mkJob(3, 10, 1, 2, 10),
	}
	rep := RunAMs(ctx, AMConfig{
		RMAddr:    srv.Addr(),
		Jobs:      jobs,
		AMs:       3,
		Poll:      30 * time.Millisecond,
		TimeScale: 50,
		Seed:      11,
	})
	// Jobs can drain before the churn windows close; keep the fleet up
	// until the crashed nodes have re-registered through the batched
	// path and the RM sees the full fleet live again.
	deadline := time.Now().Add(20 * time.Second)
	for {
		fr := fleet.Report()
		if fr.Crashes >= 2 && fr.Registers >= 42 && srv.LiveNodes() == 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("fleet did not reconverge: report %+v, live %d", fr, srv.LiveNodes())
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	stopFleet()
	<-fleetDone

	if rep.Finished != len(jobs) || rep.Failed != 0 {
		t.Fatalf("AM pool: %d finished, %d failed, want %d finished (report %+v)",
			rep.Finished, rep.Failed, len(jobs), rep)
	}
	fr := fleet.Report()
	if fr.Registers < 42 {
		t.Errorf("Registers = %d, want >= 42 (every node once + crashed nodes again)", fr.Registers)
	}
	if fr.Crashes < 2 {
		t.Errorf("Crashes = %d, want >= 2 (planned windows entered)", fr.Crashes)
	}
	if fr.Beats == 0 || fr.RTTSamples == 0 {
		t.Errorf("no heartbeats measured: %+v", fr)
	}
	if fr.DeltaBeats == 0 {
		t.Errorf("no heartbeat compressed to a delta report through batches: %+v", fr)
	}
	if fr.TasksCompleted < 60 {
		t.Errorf("TasksCompleted = %d, want >= 60", fr.TasksCompleted)
	}
	if err := srv.VerifyLedger(); err != nil {
		t.Errorf("ledger after binary batched run: %v", err)
	}
}

// TestHollowChurn lets the RM's failure detector kill planned-crash
// nodes and verifies they re-register after their windows and that the
// cluster converges back to fully live.
func TestHollowChurn(t *testing.T) {
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NodeTimeout:  150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	plan := mkChurnPlan()
	fleet, err := New(Config{
		RMAddr:    srv.Addr(),
		Nodes:     12,
		Conns:     2,
		Heartbeat: 25 * time.Millisecond,
		Seed:      3,
		Plan:      plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetCtx, stopFleet := context.WithCancel(ctx)
	fleetDone := make(chan struct{})
	go func() {
		defer close(fleetDone)
		fleet.Run(fleetCtx)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for {
		fr := fleet.Report()
		if fr.Crashes >= 2 && fr.Registers >= 14 && srv.LiveNodes() == 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge: report %+v, live %d", fr, srv.LiveNodes())
		}
		time.Sleep(50 * time.Millisecond)
	}
	stopFleet()
	<-fleetDone
	if err := srv.VerifyLedger(); err != nil {
		t.Errorf("ledger after churn: %v", err)
	}
}
