package rm

import (
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/testutil"
	"github.com/tetris-sched/tetris/internal/wire"
)

// faultServer creates an RM with failure detection on. The huge timeout
// keeps the background sweeper inert so tests drive detection by hand
// (markDead) and stay deterministic.
func faultServer(t *testing.T, maxAttempts int) *Sharded {
	t.Helper()
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:          1,
		NewScheduler:    tetrisScheduler,
		NodeTimeout:     time.Hour,
		MaxTaskAttempts: maxAttempts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// killNode declares a node dead on its shard core, as the failure
// detector would.
func killNode(g *Sharded, id int) {
	s := g.nodeShard(id)
	s.mu.Lock()
	s.markDead(id, s.now())
	s.mu.Unlock()
}

func TestDeadNodeReclaimedAndRejoin(t *testing.T) {
	s := faultServer(t, 0)
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, cap)
	s.RegisterMachine(1, cap)
	if err := s.SubmitJob(simpleJob(0, 12)); err != nil {
		t.Fatal(err)
	}
	r0 := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	r1 := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1})
	on0 := len(r0.NMReply.Launch)
	if on0 == 0 || on0+len(r1.NMReply.Launch) != 12 {
		t.Fatalf("launched %d+%d tasks, want all 12 split across both nodes",
			on0, len(r1.NMReply.Launch))
	}

	killNode(s, 0)

	if got := s.LiveNodes(); got != 1 {
		t.Fatalf("LiveNodes = %d after death, want 1", got)
	}
	ev := s.FaultEvents()
	if len(ev) != 1 || ev[0].Kind != faults.MachineCrash || ev[0].Machine != 0 || ev[0].TasksKilled != on0 {
		t.Fatalf("fault log = %+v, want one crash of node 0 killing %d tasks", ev, on0)
	}
	st := s.ClusterStatus()
	if st.Nodes != 2 || len(st.Live) != 1 || len(st.Dead) != 1 || st.Dead[0] != 0 {
		t.Fatalf("cluster status = %+v", st)
	}

	// The reclaimed tasks are pending again: node 1's next heartbeat
	// picks some of them up within its remaining capacity.
	r1b := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1})
	if len(r1b.NMReply.Launch) == 0 {
		t.Error("reclaimed tasks were not re-placed on the surviving node")
	}
	// The surviving node's ledger must stay within capacity.
	core := s.Shard(0)
	core.mu.Lock()
	alloc := core.nodes[1].Allocated
	core.mu.Unlock()
	if !alloc.FitsIn(cap) {
		t.Errorf("node 1 over-allocated after reclaim: %v > %v", alloc, cap)
	}

	// Node 0 re-registers (fresh NM on the same machine): it rejoins
	// empty and becomes placeable again.
	s.RegisterMachine(0, cap)
	if got := s.LiveNodes(); got != 2 {
		t.Fatalf("LiveNodes = %d after rejoin, want 2", got)
	}
	ev = s.FaultEvents()
	last := ev[len(ev)-1]
	if last.Kind != faults.MachineRecover || last.Machine != 0 || last.Downtime < 0 {
		t.Fatalf("last fault event = %+v, want recovery of node 0", last)
	}
}

func TestSlowNodeRejoinsOnHeartbeat(t *testing.T) {
	s := faultServer(t, 0)
	s.RegisterMachine(0, resources.New(16, 32, 0, 0, 0, 0))
	killNode(s, 0)
	if got := s.LiveNodes(); got != 0 {
		t.Fatalf("LiveNodes = %d, want 0", got)
	}
	// A heartbeat from the presumed-dead node (it was slow, not down)
	// takes it back with a clean ledger.
	if reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0}); reply.Type == wire.TypeError {
		t.Fatalf("heartbeat from rejoining node rejected: %s", reply.Error)
	}
	if got := s.LiveNodes(); got != 1 {
		t.Fatalf("LiveNodes = %d after heartbeat rejoin, want 1", got)
	}
}

func TestAttemptCapAbandonsJob(t *testing.T) {
	s := faultServer(t, 1)
	s.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	if err := s.SubmitJob(simpleJob(0, 1)); err != nil {
		t.Fatal(err)
	}
	if r := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0}); len(r.NMReply.Launch) != 1 {
		t.Fatalf("launch = %+v, want the single task", r.NMReply)
	}
	killNode(s, 0)

	am := s.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: 0})
	if am.AMReply == nil || !am.AMReply.Finished || !am.AMReply.Failed {
		t.Fatalf("AM reply = %+v, want finished+failed after attempt cap", am)
	}
}

func TestHeartbeatTimeoutDetection(t *testing.T) {
	// Real-time path: a node that stops heartbeating is declared dead by
	// the background sweeper.
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       1,
		NewScheduler: func() scheduler.Scheduler { return scheduler.NewSlotFair() },
		NodeTimeout:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.RegisterMachine(0, resources.New(4, 8, 0, 0, 0, 0))
	if got := s.LiveNodes(); got != 1 {
		t.Fatalf("LiveNodes = %d, want 1", got)
	}
	testutil.WaitFor(t, 5*time.Second, "silent node declared dead", func() bool {
		return s.LiveNodes() == 0
	})
}
