package rm

// Tests for the heartbeat front door (Sharded.call, handleBatch): a nil
// payload is refused, a frame's shard groups leave the serving goroutine
// only when two shards may run a round, and a warm per-connection scratch
// answers an idle frame without allocating.

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
)

// beatFrame is the frame a node manager's beat travels in: a batch of one.
func beatFrame(hb wire.NMHeartbeat) *wire.Message {
	return &wire.Message{Type: wire.TypeHeartbeatBatch, HeartbeatBatch: &wire.HeartbeatBatch{Beats: []wire.NMHeartbeat{hb}}}
}

// beatReply reads a one-beat frame's reply the way HandleNMHeartbeat
// answers: the entry's NMReply, or a TypeError for a refused beat or frame.
func beatReply(m *wire.Message) *wire.Message {
	if m.Type != wire.TypeHeartbeatBatchReply || len(m.HeartbeatBatchReply.Replies) != 1 {
		return m
	}
	e := &m.HeartbeatBatchReply.Replies[0]
	if e.Error != "" {
		return errMsg(e.Error)
	}
	return &wire.Message{Type: wire.TypeNMReply, NMReply: &e.Reply}
}

// TestCallNilPayloads: every request type Call dispatches, sent with a
// nil payload, gets a TypeError reply instead of a panic, and so does the
// retired single-beat type. A cluster-status request carries no payload,
// so it is not in the table.
func TestCallNilPayloads(t *testing.T) {
	g := newShardedServer(t, 2, ShardedConfig{})
	for _, typ := range []string{
		wire.TypeRegisterNM, wire.TypeHeartbeatBatch,
		wire.TypeSubmitJob, wire.TypeSubmitBatch, wire.TypeAMHeartbeat, "nm-heartbeat",
	} {
		reply, err := g.Call(&wire.Message{Type: typ})
		if err != nil || reply.Type != wire.TypeError || reply.Error == "" {
			t.Errorf("%s with a nil payload: reply %+v, err %v; want a TypeError reply", typ, reply, err)
		}
	}
	if r := g.HandleHeartbeatBatch(nil); r.Type != wire.TypeError {
		t.Errorf("HandleHeartbeatBatch(nil) = %+v, want a TypeError reply", r)
	}
	if r := g.HandleNMHeartbeat(nil); r.Type != wire.TypeError {
		t.Errorf("HandleNMHeartbeat(nil) = %+v, want a TypeError reply", r)
	}
}

// offloadedGroups sums tetris_rm_batch_groups_offloaded_total over shards.
func offloadedGroups(reg *telemetry.Registry, shards int) uint64 {
	var n uint64
	for i := 0; i < shards; i++ {
		n += reg.Counter(telemetry.Label("tetris_rm_batch_groups_offloaded_total", "shard", strconv.Itoa(i)), "").Value()
	}
	return n
}

// TestBatchFanOutOnlyForRounds: a 4-shard RM on the virtual clock answers
// each frame through the serve loop's handler and one reused scratch,
// while a twin on the same clock takes the same beats one at a time
// through HandleNMHeartbeat. After every frame both gave every node the
// same answer and every shard's state digest is equal. An idle fleet's
// frames hand no group to a helper goroutine; a frame after submissions
// to two shards, or with completions on two shards, hands over at least
// one.
func TestBatchFanOutOnlyForRounds(t *testing.T) {
	const shards, nodes = 4, 8
	clock := new(virtualClock)
	reg := telemetry.NewRegistry()
	batched := newVirtualSharded(t, ShardedConfig{Shards: shards, NewScheduler: qualityScheduler, Metrics: reg}, clock)
	twin := newVirtualSharded(t, ShardedConfig{Shards: shards, NewScheduler: qualityScheduler}, clock)
	for _, g := range []*Sharded{batched, twin} {
		for id := 0; id < nodes; id++ {
			g.RegisterMachine(id, resources.New(4, 8, 100, 100, 100, 100))
		}
	}

	var sc replyScratch
	full := make([]bool, nodes)                  // the RM asked the node for a full report
	launched := make([][]wire.TaskLaunch, nodes) // launches the next beat completes
	for id := range full {
		full[id] = true
	}
	// frame sends one beat per node, each completing what the node was
	// handed in the previous frame, and returns the groups it offloaded
	// and how many shards' beats carried a completion. Node bad, if any,
	// sends a usage report the RM refuses.
	step := 0
	frame := func(bad int) (offloaded uint64, completing int) {
		t.Helper()
		clock.advance(time.Second)
		step++
		b := &wire.HeartbeatBatch{}
		withDone := make(map[int]bool)
		for id := 0; id < nodes; id++ {
			hb := wire.NMHeartbeat{NodeID: id, Delta: !full[id], Completed: completionsFor(launched[id])}
			if id == bad {
				hb.Delta, hb.Used = false, resources.New(-1, 0, 0, 0, 0, 0)
			} else if len(hb.Completed) > 0 {
				withDone[batched.shardIndex(id)] = true
			}
			b.Beats = append(b.Beats, hb)
		}
		before := offloadedGroups(reg, shards)
		reply := batched.call(&wire.Message{Type: wire.TypeHeartbeatBatch, HeartbeatBatch: b}, &sc)
		offloaded = offloadedGroups(reg, shards) - before
		if reply.Type != wire.TypeHeartbeatBatchReply || len(reply.HeartbeatBatchReply.Replies) != nodes {
			t.Fatalf("step %d: batch reply %+v", step, reply)
		}
		for i, e := range reply.HeartbeatBatchReply.Replies {
			one := twin.HandleNMHeartbeat(&b.Beats[i])
			want := wire.NMReply{} // an error entry carries no reply
			if one.Type == wire.TypeNMReply {
				want = *one.NMReply
			}
			if e.NodeID != b.Beats[i].NodeID || e.Error != one.Error || !reflect.DeepEqual(e.Reply, want) {
				t.Fatalf("step %d, node %d: batch entry %+v, beat by beat %+v", step, b.Beats[i].NodeID, e, one)
			}
			if (e.Error != "") != (e.NodeID == bad) {
				t.Fatalf("step %d, node %d: error %q", step, e.NodeID, e.Error)
			} else if e.Error != "" {
				continue // the node sends its completions again
			}
			full[e.NodeID] = e.Reply.FullReport
			launched[e.NodeID] = e.Reply.Launch
		}
		for i := 0; i < shards; i++ {
			if !bytes.Equal(batched.Shard(i).StateDigest(), twin.Shard(i).StateDigest()) {
				t.Fatalf("step %d: shard %d state differs from the beat-by-beat twin", step, i)
			}
		}
		return offloaded, len(withDone)
	}
	idle := func(phase string) {
		t.Helper()
		frame(-1) // takes the last round, if one is due
		for k := 0; k < 5; k++ {
			if off, _ := frame(-1); off != 0 {
				t.Errorf("%s: idle frame %d offloaded %d groups, want none", phase, k, off)
			}
		}
	}

	idle("before any job")
	owners := make(map[int]bool)
	for id := 0; id < 8; id++ {
		for _, g := range []*Sharded{batched, twin} {
			if err := g.SubmitJob(simpleJob(id, 6)); err != nil {
				t.Fatal(err)
			}
		}
		shard, _ := batched.JobShard(id)
		owners[shard] = true
	}
	if len(owners) < 2 {
		t.Fatalf("jobs landed on %d shard(s), want at least 2", len(owners))
	}
	if off, _ := frame(-1); off == 0 {
		t.Errorf("the frame after submissions to %d shards offloaded nothing", len(owners))
	}
	if len(launched[0]) == 0 {
		t.Fatal("node 0 was handed no launch")
	}
	frame(0) // a refused beat where the last frame's entry held launches
	sawCompleting := false
	for k := 0; finishedJobs(batched) < 8; k++ {
		if k == 200 {
			t.Fatalf("%d of 8 jobs finished after %d frames", finishedJobs(batched), k)
		}
		off, completing := frame(-1)
		if completing >= 2 {
			sawCompleting = true
			if off == 0 {
				t.Errorf("step %d: completions on %d shards, no group offloaded", step, completing)
			}
		}
	}
	if !sawCompleting {
		t.Error("no frame carried completions on two shards")
	}
	idle("after every job finished")
	for _, g := range []*Sharded{batched, twin} {
		if err := g.VerifyLedger(); err != nil {
			t.Fatal(err)
		}
	}
}

// serveIdleFrame is the serve loop's handler on a 64-beat idle frame
// with a warm per-connection scratch.
func serveIdleFrame(t testing.TB) (send func() *wire.Message) {
	g, frame := idleFleet(t, 2000)
	m := &wire.Message{Type: wire.TypeHeartbeatBatch, HeartbeatBatch: frame}
	var sc replyScratch
	g.call(m, &sc)
	return func() *wire.Message { return g.call(m, &sc) }
}

// TestServeFrameAllocs: through the serve loop's handler, with a warm
// per-connection scratch, a 64-beat idle frame allocates nothing.
func TestServeFrameAllocs(t *testing.T) {
	send := serveIdleFrame(t)
	if n := testing.AllocsPerRun(50, func() {
		r := send()
		if r.Type != wire.TypeHeartbeatBatchReply || len(r.HeartbeatBatchReply.Replies) != 64 {
			t.Fatalf("reply %+v", r)
		}
	}); n != 0 {
		t.Errorf("an idle frame through the serve handler allocates %v times, want 0", n)
	}
}

// TestHandleNMHeartbeatAllocs: the in-process single beat — a group of
// one over the batch path — answers an idle beat in one allocation, the
// reply and its payload together.
func TestHandleNMHeartbeatAllocs(t *testing.T) {
	g, frame := idleFleet(t, 200)
	hb := frame.Beats[0]
	if n := testing.AllocsPerRun(50, func() {
		if r := g.HandleNMHeartbeat(&hb); r.Type != wire.TypeNMReply || len(r.NMReply.Launch) > 0 {
			t.Fatalf("not an idle beat: %+v", r)
		}
	}); n != 1 {
		t.Errorf("an idle beat through HandleNMHeartbeat allocates %v times, want 1", n)
	}
}

// BenchmarkServeIdleFrame is BenchmarkIdleBeatFrame through the serve
// loop's handler, whose per-connection scratch holds the reply.
func BenchmarkServeIdleFrame(b *testing.B) {
	send := serveIdleFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
