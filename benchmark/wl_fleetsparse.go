package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// countingConn counts the bytes a fleet connection moves.
type countingConn struct {
	net.Conn
	in, out int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}

// fleetClient drives the nodes [lo, hi) from one goroutine, as one of
// internal/hollow's shared sessions does: heartbeats go out in batches
// of `batch` nodes per frame, full on a node's first beat and delta
// after (wire.DeltaTracker), and the next frame is sent when the
// previous reply has been read. exchange is the transport: a framed TCP
// connection, or a direct handler call in the traced in-process twin.
type fleetClient struct {
	lo, hi, batch int
	exchange      func(*wire.Message) (*wire.Message, error)
	clock         *nodeClock
	trackers      []wire.DeltaTracker
	tr            *tracer
	span          string // name of the span around exchange

	beats, frames int
	errs          []string
	rttNs         []float64
	workNs        []float64 // frames that carried a completion or brought a launch
	// Captured traffic for the wire probe (traced socket run only).
	capture  bool
	requests []*wire.Message
	replies  []*wire.Message
}

func newFleetClient(lo, hi int, sz fleetSparseSizes) *fleetClient {
	return &fleetClient{
		lo: lo, hi: hi, batch: sz.Batch,
		clock:    newNodeClock(sz.DurationDiv, sz.MaxDuration),
		trackers: make([]wire.DeltaTracker, hi-lo),
	}
}

// sweep sends one heartbeat for each of the client's nodes.
func (f *fleetClient) sweep(sweep int) error {
	for lo := f.lo; lo < f.hi; lo += f.batch {
		hi := lo + f.batch
		if hi > f.hi {
			hi = f.hi
		}
		beats := make([]wire.NMHeartbeat, hi-lo)
		work := false
		for i := range beats {
			node := lo + i
			beats[i] = wire.NMHeartbeat{NodeID: node, Completed: f.clock.take(sweep, node)}
			work = work || len(beats[i].Completed) > 0
			f.trackers[node-f.lo].Mark(&beats[i])
		}
		req := &wire.Message{Type: wire.TypeHeartbeatBatch, HeartbeatBatch: &wire.HeartbeatBatch{Beats: beats}}
		var start int64
		if f.tr != nil {
			start = f.tr.now()
		}
		t0 := time.Now()
		reply, err := f.exchange(req)
		dt := time.Since(t0)
		if err != nil {
			return fmt.Errorf("sweep %d nodes %d-%d: %w", sweep, lo, hi-1, err)
		}
		if f.tr != nil && f.span != "" {
			f.tr.child(f.span, start, start+int64(dt))
		}
		f.rttNs = append(f.rttNs, float64(dt))
		f.frames++
		if reply.Type != wire.TypeHeartbeatBatchReply || len(reply.HeartbeatBatchReply.Replies) != len(beats) {
			return fmt.Errorf("sweep %d nodes %d-%d: bad reply %q: %s", sweep, lo, hi-1, reply.Type, reply.Error)
		}
		if f.capture {
			f.requests = append(f.requests, req)
			f.replies = append(f.replies, copyBatchReply(reply))
		}
		for i := range reply.HeartbeatBatchReply.Replies {
			r := &reply.HeartbeatBatchReply.Replies[i]
			f.beats++
			if r.Error != "" {
				f.errs = append(f.errs, fmt.Sprintf("sweep %d node %d: %s", sweep, r.NodeID, r.Error))
				f.trackers[r.NodeID-f.lo].Reset()
				continue
			}
			f.trackers[r.NodeID-f.lo].Ack(&r.Reply)
			f.clock.absorb(sweep, r.NodeID, r.Reply.Launch)
			work = work || len(r.Reply.Launch) > 0
		}
		if work {
			f.workNs = append(f.workNs, float64(dt))
		}
	}
	f.clock.forget(sweep)
	return nil
}

// copyBatchReply detaches a reply from the Framer scratch it aliases.
func copyBatchReply(m *wire.Message) *wire.Message {
	src := m.HeartbeatBatchReply.Replies
	dst := make([]wire.NMBeatReply, len(src))
	for i, r := range src {
		r.Reply.Launch = append([]wire.TaskLaunch(nil), r.Reply.Launch...)
		r.Reply.Kill = append([]workload.TaskID(nil), r.Reply.Kill...)
		r.Reply.Preempt = append([]wire.TaskPreempt(nil), r.Reply.Preempt...)
		dst[i] = r
	}
	return &wire.Message{Type: m.Type, HeartbeatBatchReply: &wire.HeartbeatBatchReply{Replies: dst}}
}

// fleet is the whole driver side of fleet-sparse: the clients, the jobs
// and when each is submitted.
type fleet struct {
	sz      fleetSparseSizes
	g       *rm.Sharded
	clients []*fleetClient
	jobs    []*workload.Job
	arrival map[int]float64
}

func newFleet(g *rm.Sharded, jobs []*workload.Job, sz fleetSparseSizes) *fleet {
	f := &fleet{sz: sz, g: g, jobs: jobs, arrival: make(map[int]float64, len(jobs))}
	per := (sz.Nodes + sz.Conns - 1) / sz.Conns
	for lo := 0; lo < sz.Nodes; lo += per {
		hi := lo + per
		if hi > sz.Nodes {
			hi = sz.Nodes
		}
		f.clients = append(f.clients, newFleetClient(lo, hi, sz))
	}
	for i, j := range jobs {
		f.arrival[j.ID] = float64(1 + i*sz.SubmitSweeps/len(jobs))
	}
	return f
}

// sweepAll runs one sweep on every client, each on its own goroutine when
// parallel is set, and waits for all of them.
func (f *fleet) sweepAll(sweep int, parallel bool) error {
	errs := make([]error, len(f.clients))
	if !parallel {
		for i, cl := range f.clients {
			errs[i] = cl.sweep(sweep)
		}
	} else {
		var wg sync.WaitGroup
		for i, cl := range f.clients {
			wg.Add(1)
			go func(i int, cl *fleetClient) {
				defer wg.Done()
				errs[i] = cl.sweep(sweep)
			}(i, cl)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run is the timed closed loop: before each sweep the jobs due that sweep
// are submitted, then every client sweeps its nodes; it ends after the
// fixed number of sweeps once every task has completed.
func (f *fleet) run(ep *episode, total int, parallel bool, tr *tracer) error {
	next := 0
	var guard stallGuard
	for sweep := 1; ; sweep++ {
		tr.setOp(sweep)
		for ; next < len(f.jobs) && f.arrival[f.jobs[next].ID] <= float64(sweep); next++ {
			j := f.jobs[next]
			ep.attempted++
			if err := f.g.SubmitJob(j); err != nil {
				ep.fail("submit job %d: %v", j.ID, err)
			}
		}
		if err := f.sweepAll(sweep, parallel); err != nil {
			return err
		}
		if done := f.completions(); sweep >= f.sz.Sweeps && done == total {
			return nil
		} else if next == len(f.jobs) && guard.stalled(f.clocks()...) {
			return errStalled(sweep, done, total)
		}
	}
}

func (f *fleet) completions() int {
	n := 0
	for _, cl := range f.clients {
		n += cl.clock.completions
	}
	return n
}

func (f *fleet) clocks() []*nodeClock {
	out := make([]*nodeClock, len(f.clients))
	for i, cl := range f.clients {
		out[i] = cl.clock
	}
	return out
}

// finish gates the fleet's outcome and fills the episode's counts.
func (f *fleet) finish(ep *episode, tr *tracer) {
	for _, cl := range f.clients {
		ep.attempted += cl.beats
		for _, e := range cl.errs {
			ep.fail("%s", e)
		}
	}
	checkRM(ep, f.g, f.jobs, tr)
	finish := checkJobs(ep, f.jobs, f.clocks()...)
	ep.makespanVS, ep.meanJCTVS = qualityOf(finish, func(id int) float64 { return f.arrival[id] })
}

// fleetJobs generates fleet-sparse's trickle of §5.1 suite jobs, thinned
// and arranged from the seed; they are submitted in ID order.
func fleetJobs(seed, population int64, sz fleetSparseSizes) []*workload.Job {
	wl := trace.GenerateSuite(trace.Config{Seed: population, NumJobs: sz.Jobs, NumMachines: sz.Nodes})
	thin(wl, sz.TaskFraction)
	arrange(wl, seed)
	return wl.Jobs
}

// runFleetSparse is one episode of fleet-sparse: a 4-shard RM listening
// on loopback, a fleet of mostly idle nodes registered and heartbeating
// over two TCP connections in batched binary frames, and a few jobs
// trickling in so some replies carry launches and some beats
// completions. Its operation latency is the write→read round trip of one
// frame.
//
// The socket hides the RM's handlers from the driver, so the traced
// episode then repeats the same closed loop against an in-process twin
// of the RM, calling HandleHeartbeatBatch directly from one goroutine:
// that run supplies the rm.nm_beat and scheduler spans.
func runFleetSparse(c *runCtx) (*episode, error) {
	sz := c.sz.FleetSparse
	ep := &episode{layer: newLayer()}

	setup := time.Now()
	sp := c.tr.begin("trace.generate")
	jobs := fleetJobs(c.seed, c.sz.PopulationSeed, sz)
	c.tr.end(sp)
	total := 0
	for _, j := range jobs {
		total += j.NumTasks()
	}
	g, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{Shards: sz.Shards, NewScheduler: newTetris})
	if err != nil {
		return nil, err
	}
	defer g.Close()
	f := newFleet(g, jobs, sz)
	var conns []*countingConn
	for _, cl := range f.clients {
		raw, err := net.Dial("tcp", g.Addr())
		if err != nil {
			return nil, err
		}
		defer raw.Close()
		conn := &countingConn{Conn: raw}
		conns = append(conns, conn)
		framer := wire.NewFramer(wire.CodecBinary)
		cl.exchange = func(m *wire.Message) (*wire.Message, error) {
			if err := framer.Write(conn, m); err != nil {
				return nil, err
			}
			return framer.Read(conn)
		}
		cl.tr, cl.span, cl.capture = c.tr, "wire.rtt", c.tr != nil
	}
	sp = c.tr.begin("rm.register")
	err = f.registerOverWire()
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := f.sweepAll(0, true); err != nil { // first sweep: full reports, untimed
		return nil, err
	}
	routeProbe(ep.layer, g, jobs, c.tr)
	ep.setupS = time.Since(setup).Seconds()

	var bytesOut, bytesIn int64
	for _, conn := range conns {
		bytesOut -= conn.out
		bytesIn -= conn.in
	}
	for _, cl := range f.clients {
		cl.beats, cl.frames, cl.rttNs, cl.workNs, cl.requests, cl.replies = 0, 0, nil, nil, nil, nil
	}
	region := beginRegion()
	err = f.run(ep, total, true, c.tr)
	region.end(ep)
	if err != nil {
		return nil, err
	}
	for _, conn := range conns {
		bytesOut += conn.out
		bytesIn += conn.in
	}
	f.finish(ep, nil)
	ep.tasks = f.completions()
	var requests, replies []*wire.Message
	frames := 0
	for _, cl := range f.clients {
		ep.beats += cl.beats
		ep.opNs = append(ep.opNs, cl.rttNs...)
		frames += cl.frames
		requests = append(requests, cl.requests...)
		replies = append(replies, cl.replies...)
	}

	if c.tr != nil {
		sorted := sortedCopy(ep.opNs)
		p50, _ := percentile(sorted, 0.5)
		p99, _ := percentile(sorted, 0.99)
		ep.layer["wire.frame_rtt_p50_us"] = p50 / 1e3
		ep.layer["wire.frame_rtt_p99_us"] = p99 / 1e3
		ep.layer["wire.frames"] = float64(frames)
		ep.layer["wire.bytes_per_beat_out"] = float64(bytesOut) / float64(ep.beats)
		ep.layer["wire.bytes_per_beat_in"] = float64(bytesIn) / float64(ep.beats)
		if err := wireProbe(ep.layer, requests, replies); err != nil {
			return nil, err
		}
		if err := fleetTwin(c, ep, total); err != nil {
			return nil, fmt.Errorf("in-process twin: %w", err)
		}
	}
	return ep, nil
}

// registerOverWire registers every node with a RegisterNM frame on its
// client's connection, the clients in parallel.
func (f *fleet) registerOverWire() error {
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for i, cl := range f.clients {
		wg.Add(1)
		go func(i int, cl *fleetClient) {
			defer wg.Done()
			for node := cl.lo; node < cl.hi; node++ {
				reply, err := cl.exchange(&wire.Message{Type: wire.TypeRegisterNM,
					RegisterNM: &wire.RegisterNM{NodeID: node, Capacity: cluster.FacebookProfile()}})
				if err == nil && reply.Type == wire.TypeError {
					err = fmt.Errorf("%s", reply.Error)
				}
				if err != nil {
					errs[i] = fmt.Errorf("register node %d: %w", node, err)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fleetTwin repeats the fleet's closed loop against an in-process RM of
// the same configuration from a single goroutine, with a span around
// every HandleHeartbeatBatch call and probed schedulers underneath. Its
// timed region is the one the trace's span accounting covers.
func fleetTwin(c *runCtx, ep *episode, total int) error {
	sz := c.sz.FleetSparse
	// Its own copy of the jobs, so the two RMs share nothing.
	jobs := fleetJobs(c.seed, c.sz.PopulationSeed, sz)
	probes := &schedProbes{tr: c.tr}
	g, err := rm.NewShardedInProcess(rm.ShardedConfig{Shards: sz.Shards, NewScheduler: probes.newScheduler})
	if err != nil {
		return err
	}
	defer g.Close()
	f := newFleet(g, jobs, sz)
	for _, cl := range f.clients {
		cl.exchange = func(m *wire.Message) (*wire.Message, error) {
			sp := c.tr.begin("rm.nm_beat")
			reply := g.HandleHeartbeatBatch(m.HeartbeatBatch)
			c.tr.end(sp)
			return reply, nil
		}
	}
	registerInProcess(g, sz.Nodes, cluster.FacebookProfile(), nil)
	if err := f.sweepAll(0, false); err != nil {
		return err
	}
	twin := &episode{}
	probes.reset()
	c.tr.markTimed()
	t0 := time.Now()
	err = f.run(twin, total, false, c.tr)
	ep.spanWallS = time.Since(t0).Seconds()
	c.tr.markDone()
	if err != nil {
		return err
	}
	f.finish(twin, c.tr)
	ep.attempted += twin.attempted
	ep.failed += twin.failed
	ep.errs = append(ep.errs, twin.errs...)

	var st beatStats
	for _, cl := range f.clients {
		st.workNs = append(st.workNs, cl.workNs...)
	}
	schedulerLayer(ep.layer, probes.probes)
	spanLayers(ep, c.tr)
	beatLayer(ep.layer, &st, f.clocks()...)
	return nil
}
