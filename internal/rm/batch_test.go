package rm

// Tests for the heartbeat front door (Sharded.call, handleBatch): a nil
// payload is refused, a frame's shard groups leave the serving goroutine
// only when two shards may run a round, and a warm per-connection scratch
// answers an idle frame without allocating.

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
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

// TestNodeTwiceInAFrame: a frame may carry one node twice, with beats in
// between whose rounds queue more launches to it. Each of the node's
// entries holds exactly the launches queued for it by then, and still
// does after the frame returns: no beat refills a queue buffer an earlier
// entry of the same frame holds.
func TestNodeTwiceInAFrame(t *testing.T) {
	g, err := NewShardedInProcess(ShardedConfig{Shards: 1, NewScheduler: qualityScheduler})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Node 1 fits one small task and no big one; node 0 fits every big
	// one and no small one (it has no disk-write bandwidth).
	g.RegisterMachine(0, resources.New(32, 64, 200, 0, 1000, 1000))
	g.RegisterMachine(1, resources.New(2, 4, 200, 10, 1000, 1000))
	task := func(job, stage, index int, peak resources.Vector) *workload.Task {
		return &workload.Task{ID: workload.TaskID{Job: job, Stage: stage, Index: index}, Peak: peak, Work: workload.Work{CPUSeconds: 20}}
	}
	small, big := resources.New(2, 4, 0, 10, 0, 0), resources.New(4, 8, 0, 0, 0, 0)
	// Jobs 0 and 1: one small task, then behind a barrier two big ones.
	// Job 2: two big tasks.
	for id := 0; id < 2; id++ {
		j := &workload.Job{ID: id, Weight: 1, Stages: []*workload.Stage{
			{Name: "small", Tasks: []*workload.Task{task(id, 0, 0, small)}},
			{Name: "big", Tasks: []*workload.Task{task(id, 1, 0, big), task(id, 1, 1, big)}, Deps: []int{0}},
		}}
		if err := g.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SubmitJob(&workload.Job{ID: 2, Weight: 1, Stages: []*workload.Stage{
		{Name: "big", Tasks: []*workload.Task{task(2, 0, 0, big), task(2, 0, 1, big)}},
	}}); err != nil {
		t.Fatal(err)
	}
	// Job 2's tasks wait in node 0's queue; node 1 takes a small task.
	r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1})
	if r.Type != wire.TypeNMReply || len(r.NMReply.Launch) != 1 {
		t.Fatalf("node 1's first beat: %+v, want one launch", r)
	}
	first := r.NMReply.Launch[0]

	// Node 0 collects job 2's launches; node 1 completes the first small
	// task, whose job's big tasks go to node 0's queue, and takes the
	// second; node 0 collects; node 1 completes the second small task,
	// whose job's big tasks go to node 0's queue; node 0 collects.
	b := &wire.HeartbeatBatch{Beats: []wire.NMHeartbeat{
		{NodeID: 0},
		{NodeID: 1, Delta: true, Completed: completionsFor([]wire.TaskLaunch{first})},
		{NodeID: 0, Delta: true},
	}}
	second := 1 - first.Task.Job
	b.Beats = append(b.Beats,
		wire.NMHeartbeat{NodeID: 1, Delta: true, Completed: []wire.TaskCompletion{{
			Task: workload.TaskID{Job: second}, Usage: small, Duration: 1}}},
		wire.NMHeartbeat{NodeID: 0, Delta: true})
	reply := g.HandleHeartbeatBatch(b)
	if reply.Type != wire.TypeHeartbeatBatchReply {
		t.Fatalf("frame reply %+v", reply)
	}
	es := reply.HeartbeatBatchReply.Replies
	for _, e := range es {
		if e.Error != "" {
			t.Fatalf("node %d: %s", e.NodeID, e.Error)
		}
	}
	if l := es[1].Reply.Launch; len(l) != 1 || l[0].Task != (workload.TaskID{Job: second}) {
		t.Fatalf("node 1's first entry launched %+v, want the second small task", l)
	}
	bigs := func(job, stage int) []workload.TaskID {
		return []workload.TaskID{{Job: job, Stage: stage}, {Job: job, Stage: stage, Index: 1}}
	}
	want := map[int][]workload.TaskID{0: bigs(2, 0), 2: bigs(first.Task.Job, 1), 4: bigs(second, 1)}
	for i, tids := range want {
		var got []workload.TaskID
		for _, l := range es[i].Reply.Launch {
			got = append(got, l.Task)
		}
		slices.SortFunc(got, func(a, b workload.TaskID) int {
			return cmp.Or(cmp.Compare(a.Job, b.Job), cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Index, b.Index))
		})
		if !reflect.DeepEqual(got, tids) {
			t.Errorf("node 0's entry %d holds %v after the frame, want %v", i, got, tids)
		}
	}
	if err := g.VerifyLedger(); err != nil {
		t.Error(err)
	}
}

// placingNode is a 1-shard RM whose one node runs a full load of a
// job's tasks: each beat completes the node's oldest task, and the round
// that completion triggers launches the next pending one.
type placingNode struct {
	g       *Sharded
	jobs    int // jobs submitted
	hb      wire.NMHeartbeat
	done    [1]wire.TaskCompletion
	running []wire.TaskLaunch // oldest first
}

// newPlacingNode starts the node on a job of tasks tasks; the node holds
// eight, so tasks-8 placing beats follow.
func newPlacingNode(t testing.TB, tasks int) *placingNode {
	t.Helper()
	g, err := NewShardedInProcess(ShardedConfig{Shards: 1, NewScheduler: qualityScheduler})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	g.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	if err := g.SubmitJob(simpleJob(0, tasks)); err != nil {
		t.Fatal(err)
	}
	p := &placingNode{g: g, jobs: 1, running: make([]wire.TaskLaunch, 0, 16)}
	r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	if r.Type != wire.TypeNMReply || len(r.NMReply.Launch) != 8 {
		t.Fatalf("first beat: %+v, want 8 launches", r)
	}
	p.running = append(p.running, r.NMReply.Launch...)
	return p
}

// next returns a delta beat completing the node's oldest running task.
func (p *placingNode) next() *wire.NMHeartbeat {
	l := p.running[0]
	p.running = append(p.running[:0], p.running[1:]...)
	p.done[0] = wire.TaskCompletion{Task: l.Task, Usage: l.Demand, Duration: 1}
	p.hb = wire.NMHeartbeat{NodeID: 0, Delta: true, Completed: p.done[:]}
	return &p.hb
}

// restock submits a job of tasks tasks once the last one has none
// pending, then beats eight times: the last job's running tasks complete
// and eight of the new one's launch, so tasks-8 placing beats follow.
func (p *placingNode) restock(t testing.TB, tasks int) {
	if err := p.g.SubmitJob(simpleJob(p.jobs, tasks)); err != nil {
		t.Fatal(err)
	}
	p.jobs++
	for range 8 {
		p.took(t, p.g.HandleNMHeartbeat(p.next()).NMReply)
	}
}

// took books the one launch a placing beat's reply must carry.
func (p *placingNode) took(t testing.TB, rep *wire.NMReply) {
	if len(rep.Launch) != 1 {
		t.Fatalf("a placing beat launched %d tasks, want 1", len(rep.Launch))
	}
	p.running = append(p.running, rep.Launch[0])
}

// TestServeFrameAllocs: through the serve loop's handler, with a warm
// per-connection scratch, a 64-beat idle frame allocates nothing, and so
// does a frame whose beat completes a task and takes a launch back.
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

	p := newPlacingNode(t, 100)
	frame := &wire.HeartbeatBatch{Beats: make([]wire.NMHeartbeat, 1)}
	m := &wire.Message{Type: wire.TypeHeartbeatBatch, HeartbeatBatch: frame}
	var sc replyScratch
	if n := testing.AllocsPerRun(50, func() {
		frame.Beats[0] = *p.next()
		r := p.g.call(m, &sc)
		if r.Type != wire.TypeHeartbeatBatchReply || r.HeartbeatBatchReply.Replies[0].Error != "" {
			t.Fatalf("reply %+v", r)
		}
		p.took(t, &r.HeartbeatBatchReply.Replies[0].Reply)
	}); n != 0 {
		t.Errorf("a placing frame through the serve handler allocates %v times, want 0", n)
	}
}

// TestHandleNMHeartbeatAllocs: the in-process single beat allocates
// nothing, idle or placing (a completion in, a launch out): its reply
// lives in the node's reply slot and its launches in the node's queue
// buffers.
func TestHandleNMHeartbeatAllocs(t *testing.T) {
	g, frame := idleFleet(t, 200)
	hb := frame.Beats[0]
	if n := testing.AllocsPerRun(50, func() {
		if r := g.HandleNMHeartbeat(&hb); r.Type != wire.TypeNMReply || len(r.NMReply.Launch) > 0 {
			t.Fatalf("not an idle beat: %+v", r)
		}
	}); n != 0 {
		t.Errorf("an idle beat through HandleNMHeartbeat allocates %v times, want 0", n)
	}

	p := newPlacingNode(t, 100)
	if n := testing.AllocsPerRun(50, func() {
		r := p.g.HandleNMHeartbeat(p.next())
		if r.Type != wire.TypeNMReply {
			t.Fatalf("reply %+v", r)
		}
		p.took(t, r.NMReply)
	}); n != 0 {
		t.Errorf("a placing beat through HandleNMHeartbeat allocates %v times, want 0", n)
	}
	if err := p.g.VerifyLedger(); err != nil {
		t.Error(err)
	}
}

// BenchmarkPlacingBeat is one in-process beat that completes a task and
// gets a launch back through HandleNMHeartbeat, on a warm 1-shard RM. A
// job's submission, first launches (which make its launch ledger) and
// finish run with the timer stopped, every 1 016 beats.
func BenchmarkPlacingBeat(b *testing.B) {
	const tasks = 1024
	p := newPlacingNode(b, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(tasks-8) == 0 {
			b.StopTimer()
			p.restock(b, tasks)
			b.StartTimer()
		}
		p.took(b, p.g.HandleNMHeartbeat(p.next()).NMReply)
	}
}

// TestHandleAMHeartbeatAllocs: a job-progress poll answers in one
// allocation, the reply and its payload together.
func TestHandleAMHeartbeatAllocs(t *testing.T) {
	g := newShardedServer(t, 2, ShardedConfig{})
	if err := g.SubmitJob(simpleJob(3, 4)); err != nil {
		t.Fatal(err)
	}
	hb := wire.AMHeartbeat{JobID: 3}
	if n := testing.AllocsPerRun(50, func() {
		if r := g.HandleAMHeartbeat(&hb); r.Type != wire.TypeAMReply || r.AMReply.Total != 4 {
			t.Fatalf("reply %+v", r)
		}
	}); n != 1 {
		t.Errorf("a job-progress poll allocates %v times, want 1", n)
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
