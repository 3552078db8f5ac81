// Package hollow implements a Kubemark-style hollow-node fleet: it
// multiplexes thousands of protocol-faithful node managers — and, via
// RunAMs, hundreds of job managers — from one process against a real
// resource manager, so scheduler-side scale limits can be measured
// without a cluster. Hollow nodes speak the exact internal/wire
// protocol (register, heartbeat, delta availability reports, resync
// re-registration) but execute tasks synthetically: a launched task is
// a due-time entry drained at heartbeat time, not a goroutine holding
// resources through sleeps, so a fleet's cost is per-beat, not
// per-task, and 10k nodes fit in one process.
//
// Fidelity boundaries (see DESIGN.md §11): task completions quantize
// to the heartbeat interval, usage reports jump to the task's declared
// peak instantly (no tracker ramp), and token-bucket enforcement is
// skipped — the RM-facing control plane is real, the node-local data
// plane is not.
package hollow

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Config parameterizes a hollow-node fleet.
type Config struct {
	// RMAddr is the resource manager's address (required).
	RMAddr string
	// Nodes is the fleet size (required).
	Nodes int
	// Conns is the number of TCP connections the fleet multiplexes its
	// nodes over (default: one per 512 nodes, at least 1). The RM keys
	// every frame on the NodeID in its payload, so nodes sharing a
	// connection are indistinguishable from nodes with their own.
	Conns int
	// Capacity is each hollow node's machine capacity (default the
	// 16-core reference machine used across the test suite).
	Capacity resources.Vector
	// Heartbeat is the per-node heartbeat interval (default 1s — a
	// realistic cluster cadence; the loopback tests' 50ms would melt a
	// single-process 10k-node fleet).
	Heartbeat time.Duration
	// Compression divides task durations, exactly like a real NM's
	// time compression (default 50).
	Compression float64
	// Seed drives the fleet's determinism: beat-order stagger, reconnect
	// jitter, and RTT sampling (default 1).
	Seed int64
	// DeltaHeartbeats sends delta availability reports (wire.DeltaTracker)
	// when a node's usage is unchanged since its last acked beat.
	DeltaHeartbeats bool
	// Codec selects the wire encoding for fleet traffic: wire.CodecJSON
	// (the default) speaks JSON frames, wire.CodecBinary zero-copy
	// binary frames (DESIGN.md §15). The RM replies in kind.
	Codec wire.Codec
	// Batch coalesces up to this many nodes' heartbeats into one
	// TypeHeartbeatBatch frame per shared connection. Each node still
	// beats once per Heartbeat — the tick stretches by the batch factor —
	// and the reply carries one entry per beat, so per-node ack semantics
	// (DeltaTracker baseline advance) are unchanged. 0 or 1 sends
	// individual heartbeat frames, the pre-batching behavior.
	Batch int
	// Plan optionally injects node churn: MachineCrash/MachineRecover
	// events (times in wall seconds from Run) silence a node past the
	// RM's failure detector and then re-register it empty, exercising
	// dead-node reclaim at scale. Slowdown and straggler fields are
	// ignored — hollow nodes have no rates to degrade.
	Plan *faults.Plan
	// Logger for diagnostics; nil discards.
	Logger *log.Logger
}

// Report is a fleet's cumulative measurement snapshot, safe to read
// while the fleet runs.
type Report struct {
	Beats          uint64 // heartbeats exchanged (excludes registrations)
	DeltaBeats     uint64 // heartbeats sent as delta reports
	FullRequested  uint64 // replies carrying NMReply.FullReport
	Registers      uint64 // successful (re)registrations
	Redials        uint64 // connection-level failures survived
	Crashes        uint64 // plan-injected node crash windows entered
	TasksLaunched  uint64
	TasksCompleted uint64
	TasksKilled    uint64 // orphans killed on RM instruction
	TasksPreempted uint64 // attempts killed by gang preemption
	BytesSent      uint64 // NM-side wire bytes written, all connections
	BytesRecv      uint64 // NM-side wire bytes read, all connections
	RTTSamples     int64  // heartbeat round-trips measured
	RTTp50         float64
	RTTp99         float64
}

// window is one planned down interval, as offsets from fleet start.
type window struct{ from, to time.Duration }

// node is one hollow node manager's state. Owned by its shard
// goroutine; no locking needed.
type node struct {
	id         int
	capacity   resources.Vector
	delta      wire.DeltaTracker
	registered bool
	used       resources.Vector
	running    map[workload.TaskID]runningTask
	completed  []wire.TaskCompletion // buffered until deliverable
	windows    []window              // pending crash windows, time order
	down       bool
}

type runningTask struct {
	launch wire.TaskLaunch
	due    time.Time
}

// shard owns a subset of the fleet's nodes and one connection.
type shard struct {
	f      *Fleet
	nodes  []*node
	rng    *rand.Rand
	cursor int

	// Reused across batched ticks so steady-state batching does not
	// allocate per frame.
	batchBeats []wire.NMHeartbeat
	batchNodes []*node
}

// Fleet is a hollow-node fleet. Create with New, drive with Run.
type Fleet struct {
	cfg    Config
	log    *log.Logger
	shards []*shard
	start  time.Time

	beats          atomic.Uint64
	deltaBeats     atomic.Uint64
	fullRequested  atomic.Uint64
	registers      atomic.Uint64
	redials        atomic.Uint64
	crashes        atomic.Uint64
	tasksLaunched  atomic.Uint64
	tasksCompleted atomic.Uint64
	tasksKilled    atomic.Uint64
	tasksPreempted atomic.Uint64
	bytesSent      atomic.Uint64
	bytesRecv      atomic.Uint64
	rtt            *reservoir
}

// New builds a fleet (not yet connected; call Run).
func New(cfg Config) (*Fleet, error) {
	if cfg.RMAddr == "" {
		return nil, fmt.Errorf("hollow: RMAddr is required")
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("hollow: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Conns <= 0 {
		cfg.Conns = (cfg.Nodes + 511) / 512
	}
	if cfg.Conns > cfg.Nodes {
		cfg.Conns = cfg.Nodes
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Compression == 0 {
		cfg.Compression = 50
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Batch < 0 {
		cfg.Batch = 0
	}
	if cfg.Capacity == (resources.Vector{}) {
		cfg.Capacity = resources.New(16, 32, 200, 200, 1000, 1000)
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(discard{}, "", 0)
	}
	f := &Fleet{
		cfg: cfg,
		log: cfg.Logger,
		rtt: newReservoir(8192, cfg.Seed),
	}
	windows := crashWindows(cfg.Plan)
	nodes := make([]*node, cfg.Nodes)
	for i := range nodes {
		nodes[i] = &node{
			id:       i,
			capacity: cfg.Capacity,
			running:  make(map[workload.TaskID]runningTask),
			windows:  windows[i],
		}
	}
	// Shard nodes round-robin, then shuffle each shard's beat order with
	// the fleet seed: the stagger pattern is deterministic per seed but
	// not aligned with node IDs, so churn windows (planned by ID) don't
	// all land on the same connection phase.
	f.shards = make([]*shard, cfg.Conns)
	for i := range f.shards {
		f.shards[i] = &shard{f: f, rng: rand.New(rand.NewSource(cfg.Seed + int64(i)))}
	}
	for i, n := range nodes {
		sh := f.shards[i%cfg.Conns]
		sh.nodes = append(sh.nodes, n)
	}
	for _, sh := range f.shards {
		sh.rng.Shuffle(len(sh.nodes), func(i, j int) {
			sh.nodes[i], sh.nodes[j] = sh.nodes[j], sh.nodes[i]
		})
	}
	return f, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// crashWindows extracts per-machine down intervals from a fault plan.
// An unmatched crash stays down forever.
func crashWindows(p *faults.Plan) map[int][]window {
	out := make(map[int][]window)
	if p == nil {
		return out
	}
	open := make(map[int]time.Duration)
	for _, e := range p.Events {
		switch e.Kind {
		case faults.MachineCrash:
			open[e.Machine] = time.Duration(e.Time * float64(time.Second))
		case faults.MachineRecover:
			if from, ok := open[e.Machine]; ok {
				out[e.Machine] = append(out[e.Machine], window{from, time.Duration(e.Time * float64(time.Second))})
				delete(open, e.Machine)
			}
		}
	}
	for m, from := range open {
		out[m] = append(out[m], window{from, time.Duration(math.MaxInt64)})
	}
	for _, ws := range out {
		sort.Slice(ws, func(i, j int) bool { return ws[i].from < ws[j].from })
	}
	return out
}

// Run connects the fleet and beats until ctx is canceled. Connection
// failures redial with backoff; the error is only ever ctx's.
func (f *Fleet) Run(ctx context.Context) error {
	f.start = time.Now()
	var wg sync.WaitGroup
	for i, sh := range f.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sh.run(ctx, i)
		}(i, sh)
	}
	wg.Wait()
	return ctx.Err()
}

// Report snapshots the fleet's counters.
func (f *Fleet) Report() Report {
	return Report{
		Beats:          f.beats.Load(),
		DeltaBeats:     f.deltaBeats.Load(),
		FullRequested:  f.fullRequested.Load(),
		Registers:      f.registers.Load(),
		Redials:        f.redials.Load(),
		Crashes:        f.crashes.Load(),
		TasksLaunched:  f.tasksLaunched.Load(),
		TasksCompleted: f.tasksCompleted.Load(),
		TasksKilled:    f.tasksKilled.Load(),
		TasksPreempted: f.tasksPreempted.Load(),
		BytesSent:      f.bytesSent.Load(),
		BytesRecv:      f.bytesRecv.Load(),
		RTTSamples:     f.rtt.count(),
		RTTp50:         f.rtt.quantile(0.50),
		RTTp99:         f.rtt.quantile(0.99),
	}
}

// run is one shard's lifetime: sessions separated by backoff. A session
// ends only on transport failure (or ctx); every node on the shard then
// re-registers, flowing through the RM's resync reconciliation exactly
// like a real NM surviving a link blip.
func (sh *shard) run(ctx context.Context, idx int) {
	bo := faults.NewBackoff(50*time.Millisecond, 2*time.Second, sh.f.cfg.Seed+int64(idx)+1)
	for ctx.Err() == nil {
		worked, err := sh.session(ctx)
		if ctx.Err() != nil {
			return
		}
		sh.f.redials.Add(1)
		sh.f.log.Printf("hollow: shard %d link lost (%v), redialing", idx, err)
		for _, n := range sh.nodes {
			n.registered = false
			n.delta.Reset()
		}
		if worked {
			bo.Reset()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(bo.Next()):
		}
	}
}

// session dials one connection and beats the shard's nodes round-robin,
// pacing so every node beats once per Heartbeat. worked reports whether
// at least one exchange succeeded (refreshing the redial budget).
func (sh *shard) session(ctx context.Context) (worked bool, err error) {
	d := net.Dialer{}
	raw, err := d.DialContext(ctx, "tcp", sh.f.cfg.RMAddr)
	if err != nil {
		return false, err
	}
	conn := &countingConn{Conn: raw, sent: &sh.f.bytesSent, recv: &sh.f.bytesRecv}
	defer raw.Close()
	stop := context.AfterFunc(ctx, func() { raw.SetDeadline(time.Now()) })
	defer stop()

	// One framer per session owns the frame buffers and decode scratch,
	// so steady-state beats allocate nothing on the fleet side either.
	framer := wire.NewFramer(sh.f.cfg.Codec)

	// Each tick advances batch-many nodes (one, unbatched), so every
	// node still beats once per Heartbeat: the tick stretches by the
	// batch factor instead of the frame rate multiplying.
	batch := sh.f.cfg.Batch
	if batch > len(sh.nodes) {
		batch = len(sh.nodes)
	}
	if batch < 1 {
		batch = 1
	}
	per := sh.f.cfg.Heartbeat * time.Duration(batch) / time.Duration(len(sh.nodes))
	if per < 50*time.Microsecond {
		per = 50 * time.Microsecond
	}
	ticker := time.NewTicker(per)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return worked, ctx.Err()
		case <-ticker.C:
		}
		if batch > 1 {
			if err := sh.beatBatch(conn, framer, batch); err != nil {
				return worked, err
			}
		} else {
			n := sh.nodes[sh.cursor]
			sh.cursor = (sh.cursor + 1) % len(sh.nodes)
			if err := sh.beat(conn, framer, n); err != nil {
				return worked, err
			}
		}
		worked = true
	}
}

// churn applies any planned crash window to the node; true means the
// node is silent this slot. Inside a window the node says nothing (the
// RM's failure detector will declare it dead); entering one loses all
// node state, like a machine power cycle.
func (sh *shard) churn(n *node, since time.Duration) bool {
	for len(n.windows) > 0 && since >= n.windows[0].to {
		n.windows = n.windows[1:]
		n.down = false
	}
	if len(n.windows) > 0 && since >= n.windows[0].from {
		if !n.down {
			n.down = true
			n.registered = false
			n.used = resources.Vector{}
			n.running = make(map[workload.TaskID]runningTask)
			n.completed = nil
			n.delta.Reset()
			sh.f.crashes.Add(1)
		}
		return true
	}
	return false
}

// prepareBeat builds the node's next heartbeat: synthetic execution
// drains due tasks in deterministic ID order, then the delta tracker
// compresses the availability report when eligible. The returned beat's
// Completed slice must be requeued if the exchange fails.
func (sh *shard) prepareBeat(n *node, now time.Time) wire.NMHeartbeat {
	n.drainDue(now, &sh.f.tasksCompleted)
	hb := wire.NMHeartbeat{
		NodeID:    n.id,
		Used:      n.used,
		Allocated: n.used,
		Completed: n.completed,
	}
	n.completed = nil
	if sh.f.cfg.DeltaHeartbeats {
		if full := n.delta.Mark(&hb); !full {
			sh.f.deltaBeats.Add(1)
		}
	}
	return hb
}

// applyReply applies a successful heartbeat reply's instructions to the
// node: delta ack, orphan kills, gang preemptions, launches.
func (sh *shard) applyReply(n *node, r *wire.NMReply, now time.Time) {
	if sh.f.cfg.DeltaHeartbeats {
		n.delta.Ack(r)
		if r != nil && r.FullReport {
			sh.f.fullRequested.Add(1)
		}
	}
	if r == nil {
		return
	}
	n.handleKills(r.Kill, &sh.f.tasksKilled)
	n.handlePreempts(r.Preempt, &sh.f.tasksPreempted)
	for _, l := range r.Launch {
		n.launch(l, now, sh.f.cfg.Compression)
		sh.f.tasksLaunched.Add(1)
	}
}

// beat advances one node by one heartbeat slot: apply any planned crash
// window, (re)register if needed, otherwise exchange one heartbeat.
// Returns transport errors only; protocol-level rejections mark the
// node for re-registration and continue.
func (sh *shard) beat(conn net.Conn, framer *wire.Framer, n *node) error {
	now := time.Now()
	if sh.churn(n, now.Sub(sh.f.start)) {
		return nil
	}
	if !n.registered {
		return sh.register(conn, framer, n)
	}

	hb := sh.prepareBeat(n, now)
	t0 := time.Now()
	if err := framer.Write(conn, &wire.Message{Type: wire.TypeNMHeartbeat, NMHeartbeat: &hb}); err != nil {
		n.requeue(hb.Completed)
		return err
	}
	reply, err := framer.Read(conn)
	if err != nil {
		n.requeue(hb.Completed)
		return err
	}
	sh.f.rtt.observe(time.Since(t0).Seconds())
	sh.f.beats.Add(1)
	if reply.Type == wire.TypeError {
		// "unregistered node" / "must re-register": the RM lost or reset
		// its view of this node; re-register on the next slot.
		n.requeue(hb.Completed)
		n.registered = false
		n.delta.Reset()
		return nil
	}
	sh.applyReply(n, reply.NMReply, now)
	return nil
}

// beatBatch advances the next batch-many nodes by one heartbeat slot,
// coalescing their heartbeats into one TypeHeartbeatBatch frame. Nodes
// in a churn window stay silent; unregistered nodes take their slot as
// an individual registration frame (rare, and its reply must land
// before the node can join a batch). The batch reply carries one entry
// per beat in beat order — exactly what each node would have received
// on its own connection — so per-node ack semantics are preserved.
func (sh *shard) beatBatch(conn net.Conn, framer *wire.Framer, batch int) error {
	now := time.Now()
	since := now.Sub(sh.f.start)
	beats := sh.batchBeats[:0]
	members := sh.batchNodes[:0]
	defer func() { sh.batchBeats, sh.batchNodes = beats[:0], members[:0] }()
	for i := 0; i < batch; i++ {
		n := sh.nodes[sh.cursor]
		sh.cursor = (sh.cursor + 1) % len(sh.nodes)
		if sh.churn(n, since) {
			continue
		}
		if !n.registered {
			if err := sh.register(conn, framer, n); err != nil {
				return err
			}
			continue
		}
		beats = append(beats, sh.prepareBeat(n, now))
		members = append(members, n)
	}
	if len(beats) == 0 {
		return nil
	}
	requeueAll := func() {
		for i, n := range members {
			n.requeue(beats[i].Completed)
		}
	}
	t0 := time.Now()
	if err := framer.Write(conn, &wire.Message{Type: wire.TypeHeartbeatBatch,
		HeartbeatBatch: &wire.HeartbeatBatch{Beats: beats}}); err != nil {
		requeueAll()
		return err
	}
	reply, err := framer.Read(conn)
	if err != nil {
		requeueAll()
		return err
	}
	sh.f.rtt.observe(time.Since(t0).Seconds())
	sh.f.beats.Add(uint64(len(beats)))
	br := reply.HeartbeatBatchReply
	if reply.Type != wire.TypeHeartbeatBatchReply || br == nil || len(br.Replies) != len(beats) {
		// A peer that answers a batch with anything but a matching batch
		// reply is not speaking the protocol; treat it like a broken
		// transport and redial.
		requeueAll()
		got := 0
		if br != nil {
			got = len(br.Replies)
		}
		return fmt.Errorf("hollow: batch reply mismatch: type %q with %d entries for %d beats",
			reply.Type, got, len(beats))
	}
	for i, n := range members {
		e := &br.Replies[i]
		if e.NodeID != n.id {
			requeueAll()
			return fmt.Errorf("hollow: batch reply entry %d is for node %d, want %d", i, e.NodeID, n.id)
		}
		if e.Error != "" {
			// Per-node protocol rejection ("unregistered node"): only this
			// node re-registers; the rest of the batch proceeds.
			n.requeue(beats[i].Completed)
			n.registered = false
			n.delta.Reset()
			continue
		}
		sh.applyReply(n, &e.Reply, now)
	}
	return nil
}

// register performs one registration exchange, carrying the node's
// running set and buffered completions for resync reconciliation.
func (sh *shard) register(conn net.Conn, framer *wire.Framer, n *node) error {
	running := make([]workload.TaskID, 0, len(n.running))
	for tid := range n.running {
		running = append(running, tid)
	}
	sort.Slice(running, func(i, j int) bool { return taskIDLess(running[i], running[j]) })
	done := n.completed
	n.completed = nil
	if err := framer.Write(conn, &wire.Message{Type: wire.TypeRegisterNM, RegisterNM: &wire.RegisterNM{
		NodeID: n.id, Capacity: n.capacity, Running: running, Completed: done,
	}}); err != nil {
		n.requeue(done)
		return err
	}
	reply, err := framer.Read(conn)
	if err != nil {
		n.requeue(done)
		return err
	}
	if reply.Type == wire.TypeError {
		// Definitive rejection; leave the node unregistered and keep
		// trying — the harness has no separate fatal path.
		sh.f.log.Printf("hollow: node %d registration rejected: %s", n.id, reply.Error)
		return nil
	}
	if reply.NMReply != nil {
		n.handleKills(reply.NMReply.Kill, &sh.f.tasksKilled)
	}
	n.registered = true
	n.delta.Reset()
	sh.f.registers.Add(1)
	return nil
}

// drainDue completes every running task whose due time passed,
// buffering completions for the next deliverable beat.
func (n *node) drainDue(now time.Time, completed *atomic.Uint64) {
	var due []workload.TaskID
	for tid, rt := range n.running {
		if !now.Before(rt.due) {
			due = append(due, tid)
		}
	}
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, j int) bool { return taskIDLess(due[i], due[j]) })
	for _, tid := range due {
		rt := n.running[tid]
		delete(n.running, tid)
		n.used = n.used.Sub(rt.launch.Demand).Max(resources.Vector{})
		n.completed = append(n.completed, wire.TaskCompletion{
			Task:     tid,
			Usage:    rt.launch.Demand,
			Duration: rt.launch.Duration,
		})
		completed.Add(1)
	}
}

// launch records a synthetic task: no goroutine, no sleep — just a
// usage charge and a due time checked at beat time.
func (n *node) launch(l wire.TaskLaunch, now time.Time, compression float64) {
	if _, dup := n.running[l.Task]; dup {
		return
	}
	wall := time.Duration(l.Duration / compression * float64(time.Second))
	n.running[l.Task] = runningTask{launch: l, due: now.Add(wall)}
	n.used = n.used.Add(l.Demand)
}

// handleKills drops orphaned tasks without reporting completions.
func (n *node) handleKills(kill []workload.TaskID, killed *atomic.Uint64) {
	for _, tid := range kill {
		rt, ok := n.running[tid]
		if !ok {
			continue
		}
		delete(n.running, tid)
		n.used = n.used.Sub(rt.launch.Demand).Max(resources.Vector{})
		killed.Add(1)
	}
}

// handlePreempts drops gang-evicted tasks without reporting
// completions: the RM already requeued the attempt as failed.
func (n *node) handlePreempts(preempt []wire.TaskPreempt, preempted *atomic.Uint64) {
	for _, p := range preempt {
		rt, ok := n.running[p.Task]
		if !ok {
			continue
		}
		delete(n.running, p.Task)
		n.used = n.used.Sub(rt.launch.Demand).Max(resources.Vector{})
		preempted.Add(1)
	}
}

// requeue puts undelivered completions back at the buffer head.
func (n *node) requeue(done []wire.TaskCompletion) {
	if len(done) > 0 {
		n.completed = append(done, n.completed...)
	}
}

func taskIDLess(a, b workload.TaskID) bool {
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	return a.Index < b.Index
}
