// End-to-end tests of the distributed prototype: RM, NMs and AMs over
// loopback TCP with synthetic (time-compressed) task execution.
package nm_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/am"
	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/testutil"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

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

func tetrisScheduler() scheduler.Scheduler {
	return scheduler.NewTetris(scheduler.DefaultTetrisConfig())
}

func TestEndToEndSingleJob(t *testing.T) {
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NewEstimator: estimator.New,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	capVec := resources.New(16, 32, 200, 200, 1000, 1000)
	reg := telemetry.NewRegistry()
	var wg sync.WaitGroup
	nodes := make([]*nm.Node, 2)
	for i := range nodes {
		nodes[i] = nm.New(nm.Config{
			NodeID:      i,
			Capacity:    capVec,
			RMAddr:      srv.Addr(),
			Heartbeat:   20 * time.Millisecond,
			Compression: 100,
			Metrics:     reg,
		})
		wg.Add(1)
		go func(n *nm.Node) {
			defer wg.Done()
			n.Run(ctx) // exits on cancel
		}(nodes[i])
	}

	// 8 tasks × 2 cores × 10 s (0.1 s compressed each), 2 machines.
	res, err := am.Run(ctx, am.Config{
		RMAddr: srv.Addr(),
		Job:    mkJob(0, 8, 2, 4, 10),
		Poll:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("am.Run: %v", err)
	}
	if res.Wall <= 0 {
		t.Errorf("result = %+v", res)
	}
	if launched := launchedTotal(reg); launched != 8 {
		t.Errorf("nodes launched %d tasks, want 8", launched)
	}
	cancel()
	wg.Wait()
}

// launchedTotal reads the task attempts started by the nodes recording
// into reg.
func launchedTotal(reg *telemetry.Registry) uint64 {
	return reg.Counter("tetris_nm_tasks_launched_total", "").Value()
}

func TestEndToEndConcurrentJobs(t *testing.T) {
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	capVec := resources.New(16, 32, 200, 200, 1000, 1000)
	var nmWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		n := nm.New(nm.Config{
			NodeID: i, Capacity: capVec, RMAddr: srv.Addr(),
			Heartbeat: 20 * time.Millisecond, Compression: 100,
		})
		nmWG.Add(1)
		go func() {
			defer nmWG.Done()
			n.Run(ctx)
		}()
	}

	var amWG sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		amWG.Add(1)
		go func(i int) {
			defer amWG.Done()
			_, errs[i] = am.Run(ctx, am.Config{
				RMAddr: srv.Addr(),
				Job:    mkJob(i, 6, 1, 2, 8),
				Poll:   20 * time.Millisecond,
			})
		}(i)
	}
	amWG.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	cancel()
	nmWG.Wait()
}

func TestNMCancellation(t *testing.T) {
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:       1,
		NewScheduler: func() scheduler.Scheduler { return scheduler.NewSlotFair() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	n := nm.New(nm.Config{NodeID: 0, Capacity: resources.New(4, 8, 0, 0, 0, 0), RMAddr: srv.Addr()})
	done := make(chan error, 1)
	go func() { done <- n.Run(ctx) }()
	testutil.WaitFor(t, 5*time.Second, "NM registered with RM", func() bool {
		return srv.LiveNodes() == 1
	})
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NM did not exit on cancel")
	}
}

// TestEndToEndNodeFailure is the chaos e2e: RM plus three NMs, one NM is
// killed mid-job. The RM must detect the death, reclaim the node's tasks
// onto the survivors, and the job must still finish; when a fresh NM
// rejoins under the dead node's ID, the live-machine count recovers.
func TestEndToEndNodeFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short mode")
	}
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NodeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	capVec := resources.New(16, 32, 200, 200, 1000, 1000)
	mkNode := func(id int, reg *telemetry.Registry) *nm.Node {
		return nm.New(nm.Config{
			NodeID: id, Capacity: capVec, RMAddr: srv.Addr(),
			Heartbeat: 20 * time.Millisecond, Compression: 100, Metrics: reg,
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		n := mkNode(i, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Run(ctx)
		}()
	}
	victimCtx, killVictim := context.WithCancel(ctx)
	victimMetrics := telemetry.NewRegistry()
	victim := mkNode(2, victimMetrics)
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim.Run(victimCtx)
	}()
	testutil.WaitFor(t, 10*time.Second, "3 nodes registered", func() bool {
		return srv.LiveNodes() == 3
	})

	// 24 tasks × 2 cores × 100 s (1 s compressed): memory caps each node
	// at 8 tasks, so the first wave spans all three nodes — the victim is
	// guaranteed work — and the kill lands mid-job.
	amDone := make(chan error, 1)
	go func() {
		_, err := am.Run(ctx, am.Config{
			RMAddr: srv.Addr(),
			Job:    mkJob(0, 24, 2, 4, 100),
			Poll:   20 * time.Millisecond,
		})
		amDone <- err
	}()

	// Kill the victim once it is actually running tasks.
	testutil.WaitFor(t, 20*time.Second, "victim node received tasks", func() bool {
		return launchedTotal(victimMetrics) > 0
	})
	killVictim()
	testutil.WaitFor(t, 10*time.Second, "RM detected the dead node", func() bool {
		return srv.LiveNodes() == 2
	})

	// A replacement NM rejoins under the same node ID.
	replacement := mkNode(2, nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		replacement.Run(ctx)
	}()
	testutil.WaitFor(t, 10*time.Second, "replacement node rejoined", func() bool {
		return srv.LiveNodes() == 3
	})

	select {
	case err := <-amDone:
		if err != nil {
			t.Fatalf("job did not survive the node failure: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("job did not finish in time after the node failure")
	}

	ev := srv.ClusterStatus().Faults
	var crashes, recoveries int
	for _, e := range ev {
		switch e.Kind {
		case faults.MachineCrash:
			crashes++
		case faults.MachineRecover:
			recoveries++
		}
	}
	if crashes == 0 || recoveries == 0 {
		t.Errorf("fault log = %+v, want at least one crash and one recovery", ev)
	}
	cancel()
	wg.Wait()
}

// TestRejectedHeartbeatKeepsCompletions: the RM answers the heartbeat that
// carries a task's completion with "must re-register" (it restarted, or
// declared the node dead, in between). It applied nothing of that beat, so
// the completion must come again — with the re-registration or a later
// beat — or resync re-runs a task that finished.
func TestRejectedHeartbeatKeepsCompletions(t *testing.T) {
	task := workload.TaskID{Job: 1, Stage: 0, Index: 0}
	carries := func(done []wire.TaskCompletion) bool {
		for _, c := range done {
			if c.Task == task {
				return true
			}
		}
		return false
	}
	var (
		mu                 sync.Mutex
		launched, rejected bool
		delivered          = make(chan string, 1)
	)
	ok := func(r *wire.NMReply) *wire.Message { return &wire.Message{Type: wire.TypeNMReply, NMReply: r} }
	beat := func(e wire.NMBeatReply) *wire.Message {
		return &wire.Message{Type: wire.TypeHeartbeatBatchReply,
			HeartbeatBatchReply: &wire.HeartbeatBatchReply{Replies: []wire.NMBeatReply{e}}}
	}
	handle := func(m *wire.Message) *wire.Message {
		mu.Lock()
		defer mu.Unlock()
		switch m.Type {
		case wire.TypeRegisterNM:
			if carries(m.RegisterNM.Completed) {
				delivered <- "registration"
			}
			return ok(&wire.NMReply{})
		case wire.TypeHeartbeatBatch:
			hb := &m.HeartbeatBatch.Beats[0] // a node's beat is a batch of one
			if carries(hb.Completed) {
				if !rejected {
					rejected = true
					return beat(wire.NMBeatReply{NodeID: hb.NodeID, Error: "node 0 must re-register: resource manager restarted"})
				}
				delivered <- "heartbeat"
			}
			if !launched {
				launched = true
				return beat(wire.NMBeatReply{NodeID: hb.NodeID, Reply: wire.NMReply{Launch: []wire.TaskLaunch{{
					Task: task, Demand: resources.New(1, 1, 0, 0, 0, 0), Duration: 1,
				}}}})
			}
			return beat(wire.NMBeatReply{NodeID: hb.NodeID})
		}
		return &wire.Message{Type: wire.TypeError, Error: "unexpected " + m.Type}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				framer := wire.NewServerFramer()
				for {
					m, err := framer.Read(conn)
					if err != nil || framer.Write(conn, handle(m)) != nil {
						return
					}
				}
			}()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := nm.New(nm.Config{
		NodeID: 0, Capacity: resources.New(4, 8, 0, 0, 0, 0), RMAddr: ln.Addr().String(),
		Heartbeat: 10 * time.Millisecond, Compression: 100,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Run(ctx)
	}()
	select {
	case how := <-delivered:
		t.Logf("completion redelivered with the next %s", how)
	case <-time.After(5 * time.Second):
		t.Error("the completion carried by a rejected heartbeat never reached the RM again")
	}
	cancel()
	<-done
}

func TestAMRejectsNilJob(t *testing.T) {
	if _, err := am.Run(context.Background(), am.Config{RMAddr: "127.0.0.1:1"}); err == nil {
		t.Error("nil job accepted")
	}
}

func TestAMDialFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := am.Run(ctx, am.Config{RMAddr: "127.0.0.1:1", Job: mkJob(0, 1, 1, 1, 1)})
	if err == nil {
		t.Error("dial to dead RM succeeded")
	}
}
