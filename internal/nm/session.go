package nm

// The node side of the §4.4 protocol, once. The real node manager
// (nm.go) and the hollow fleet (internal/hollow) both run it with
// Synthetic executors; they differ in how many Agents share a Link.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Caller is the transport a session runs over: one request, one reply.
// *wire.Conn is the socket; rm.Sharded.Call is the same RM with nothing
// in between.
type Caller interface {
	Call(m *wire.Message) (*wire.Message, error)
}

// Agent is one node's protocol state. One built from its three exported
// fields has never registered and owes the RM nothing — what a machine
// power cycle leaves.
type Agent struct {
	ID       int
	Capacity resources.Vector
	Exec     *Synthetic

	delta      wire.DeltaTracker
	registered bool
	// undelivered holds, oldest first, the completions taken from Exec
	// that no reply has acknowledged. Every frame carries all of it and
	// only an acknowledgement empties it, so a frame that fails — however
	// it fails — loses nothing.
	undelivered []wire.TaskCompletion
}

// RefusedError is a registration the RM rejected. Redialing sends the
// same registration again, so it ends Run.
type RefusedError struct {
	NodeID int
	Reason string
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("node %d: registration refused: %s", e.NodeID, e.Reason)
}

// Metrics is the session's metric set. Links sharing one set — the
// loopback cluster's nodes, a hollow fleet's connections — aggregate.
type Metrics struct {
	HeartbeatRTT  *telemetry.Histogram
	Reconnects    *telemetry.Counter
	Registered    *telemetry.Counter
	Heartbeats    *telemetry.Counter
	DeltaBeats    *telemetry.Counter
	FullRequested *telemetry.Counter
	Launched      *telemetry.Counter
	Completed     *telemetry.Counter
	Killed        *telemetry.Counter
	Preempted     *telemetry.Counter
	BytesSent     *telemetry.Counter
	BytesRecv     *telemetry.Counter
	Running       *telemetry.Gauge
}

// NewMetrics registers the set on reg; nil records into a private
// registry, exposing nothing.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Metrics{
		HeartbeatRTT:  reg.Histogram("tetris_nm_heartbeat_rtt_seconds", "NM heartbeat round-trip time to the RM."),
		Reconnects:    reg.Counter("tetris_nm_reconnects_total", "Reconnect attempts after a lost RM link."),
		Registered:    reg.Counter("tetris_nm_registrations_total", "Successful RM registrations."),
		Heartbeats:    reg.Counter("tetris_nm_heartbeats_total", "Heartbeats the RM answered (registrations excluded)."),
		DeltaBeats:    reg.Counter("tetris_nm_delta_heartbeats_total", "Heartbeats sent as delta availability reports."),
		FullRequested: reg.Counter("tetris_nm_full_reports_requested_total", "Heartbeat replies asking for a full availability report."),
		Launched:      reg.Counter("tetris_nm_tasks_launched_total", "Task attempts started on this process's nodes."),
		Completed:     reg.Counter("tetris_nm_tasks_completed_total", "Task attempts finished and reported."),
		Killed:        reg.Counter("tetris_nm_orphans_killed_total", "Orphaned attempts killed on RM instruction."),
		Preempted:     reg.Counter("tetris_nm_tasks_preempted_total", "Attempts killed by gang preemption."),
		BytesSent:     reg.Counter("tetris_nm_wire_bytes_sent_total", "Bytes written to RM connections."),
		BytesRecv:     reg.Counter("tetris_nm_wire_bytes_received_total", "Bytes read from RM connections."),
		Running:       reg.Gauge("tetris_nm_tasks_running", "Task attempts currently executing."),
	}
}

// Link carries its agents' sessions over one RM connection. Its exported
// fields are set by the code that builds it (nm.New, hollow.New), once.
type Link struct {
	Name      string // log prefix: "nm 3", "hollow: link 2"
	Addr      string
	Heartbeat time.Duration // each agent's beat interval
	// Batch is how many agents' beats share one heartbeat-batch frame;
	// 0 or 1 means one.
	Batch   int
	Agents  []*Agent
	Metrics *Metrics
	Log     *log.Logger
	// Silent, when set, is asked before an agent's slot whether the agent
	// says nothing this time (the hollow fleet's crash windows).
	Silent func(a *Agent, now time.Time) bool
	// ObserveRTT, when set, also receives every heartbeat round-trip in
	// seconds (the hollow fleet's exact-quantile reservoir).
	ObserveRTT func(seconds float64)

	cursor int
	// Reused across steps so steady-state batching allocates no slices.
	beats   []wire.NMHeartbeat
	members []*Agent
}

// batch is how many agents one Step advances.
func (l *Link) batch() int { return max(1, min(l.Batch, len(l.Agents))) }

// Step advances the next batch-many agents one heartbeat slot. A silent
// agent sends nothing; an unregistered one takes its slot as a
// registration frame of its own (its reply must land before it can join
// a batch); the rest go out as one heartbeat frame. The clock is now and
// the RM is c, so the same Step runs on a socket at wall time and against
// an in-process RM on a virtual clock.
//
// An error means a broken transport — c failed, or answered a batch with
// something that is not its reply — or a refused registration
// (*RefusedError). Every completion the failed frame carried is still
// with its agent, ahead of whatever finishes later.
func (l *Link) Step(c Caller, now time.Time) error {
	l.beats, l.members = l.beats[:0], l.members[:0]
	for i := l.batch(); i > 0; i-- {
		a := l.Agents[l.cursor]
		l.cursor = (l.cursor + 1) % len(l.Agents)
		if l.Silent != nil && l.Silent(a, now) {
			continue
		}
		if !a.registered {
			if err := l.register(c, a, now); err != nil {
				return err
			}
			continue
		}
		used, finished := a.Exec.Report(now)
		hb := wire.NMHeartbeat{NodeID: a.ID, Used: used, Completed: l.owed(a, finished)}
		// A delta report when usage is unchanged since the last acknowledged
		// beat; the first beat after registration, and any after a reply
		// asking for one, go out full (wire.DeltaTracker).
		if full := a.delta.Mark(&hb); !full {
			l.Metrics.DeltaBeats.Inc()
		}
		l.beats = append(l.beats, hb)
		l.members = append(l.members, a)
	}
	if len(l.beats) == 0 {
		return nil
	}
	m := &wire.Message{Type: wire.TypeHeartbeatBatch, HeartbeatBatch: &wire.HeartbeatBatch{Beats: l.beats}}
	// A stopwatch around the exchange, not a reading of the clock:
	// nothing Step decides depends on it.
	t0 := time.Now()
	reply, err := c.Call(m)
	if err != nil {
		return fmt.Errorf("%s: heartbeat: %w", l.Name, err)
	}
	rtt := time.Since(t0).Seconds()
	l.Metrics.HeartbeatRTT.Observe(rtt)
	if l.ObserveRTT != nil {
		l.ObserveRTT(rtt)
	}
	l.Metrics.Heartbeats.Add(uint64(len(l.beats)))

	// The reply carries one entry per beat in beat order. A peer that
	// answers with anything else is not speaking the protocol; nothing of
	// it is applied.
	var replies []wire.NMBeatReply
	if br := reply.HeartbeatBatchReply; br != nil {
		replies = br.Replies
	}
	if len(replies) != len(l.beats) {
		return fmt.Errorf("%s: batch reply mismatch: type %q with %d entries for %d beats",
			l.Name, reply.Type, len(replies), len(l.beats))
	}
	for i, a := range l.members {
		if got := replies[i].NodeID; got != a.ID {
			return fmt.Errorf("%s: batch reply entry %d is for node %d, want %d", l.Name, i, got, a.ID)
		}
	}
	for i, a := range l.members {
		if e := &replies[i]; e.Error != "" {
			l.rejected(a, e.Error)
		} else {
			l.apply(a, &e.Reply, now)
		}
	}
	return nil
}

// owed moves what a's executor finished into a.undelivered and returns
// all of it: what the next frame carries.
func (l *Link) owed(a *Agent, finished []wire.TaskCompletion) []wire.TaskCompletion {
	if len(finished) > 0 {
		l.Metrics.Completed.Add(uint64(len(finished)))
		l.Metrics.Running.Add(-float64(len(finished)))
		a.undelivered = append(a.undelivered, finished...)
	}
	return a.undelivered
}

// rejected handles the RM's "unregistered node" / "must re-register": it
// lost or reset its view of the node and applied nothing of the beat, so
// the beat's completions stay undelivered and the agent — it alone, the
// rest of a batch proceeds — registers again on its next slot. Registration
// carries them, which keeps resync from re-running a task that finished.
func (l *Link) rejected(a *Agent, why string) {
	a.registered = false
	l.Log.Printf("%s: node %d heartbeat rejected (%s), re-registering", l.Name, a.ID, why)
}

// apply carries out an acknowledged heartbeat's reply.
func (l *Link) apply(a *Agent, r *wire.NMReply, now time.Time) {
	a.undelivered = nil
	a.delta.Ack(r)
	if r.FullReport {
		l.Metrics.FullRequested.Inc()
	}
	for _, tid := range r.Kill {
		l.stop(a, tid, l.Metrics.Killed, "orphaned")
	}
	for _, p := range r.Preempt {
		l.stop(a, p.Task, l.Metrics.Preempted, "preempted for a gang")
	}
	for _, ln := range r.Launch {
		if a.Exec.Launch(ln, now) {
			l.Metrics.Launched.Inc()
			l.Metrics.Running.Add(1)
		}
	}
}

func (l *Link) stop(a *Agent, tid workload.TaskID, counter *telemetry.Counter, why string) {
	if a.Exec.Stop(tid) {
		counter.Inc()
		l.Metrics.Running.Add(-1)
		l.Log.Printf("%s: node %d stopped task %v: %s", l.Name, a.ID, tid, why)
	}
}

// register performs one registration exchange. It carries the node's
// truth for resync reconciliation: what runs right now, and every
// completion the RM has not acknowledged.
func (l *Link) register(c Caller, a *Agent, now time.Time) error {
	running, finished := a.Exec.Inventory(now)
	reply, err := c.Call(&wire.Message{Type: wire.TypeRegisterNM, RegisterNM: &wire.RegisterNM{
		NodeID: a.ID, Capacity: a.Capacity, Running: running, Completed: l.owed(a, finished),
	}})
	if err != nil {
		return fmt.Errorf("%s: register node %d: %w", l.Name, a.ID, err)
	}
	if reply.Type == wire.TypeError {
		return &RefusedError{NodeID: a.ID, Reason: reply.Error}
	}
	a.registered, a.undelivered = true, nil
	// No baseline: the first beat after any registration is a full
	// report, whatever the RM processed of earlier ones. The one Reset —
	// every path back to a heartbeat passes through here.
	a.delta.Reset()
	l.Metrics.Registered.Inc()
	l.Log.Printf("%s: node %d registered", l.Name, a.ID)
	if reply.NMReply != nil {
		// Orphans: attempts reclaimed, and possibly rerun elsewhere, while
		// the node was out of touch.
		for _, tid := range reply.NMReply.Kill {
			l.stop(a, tid, l.Metrics.Killed, "orphaned")
		}
	}
	return nil
}

// Session dials the RM and steps the link on a ticker until a step fails
// or ctx ends. Each tick advances batch-many agents, so every agent beats
// once per Heartbeat: the tick stretches by the batch factor instead of
// the frame rate multiplying. worked reports whether any step succeeded,
// which refreshes Run's retry budget.
func (l *Link) Session(ctx context.Context) (worked bool, err error) {
	d := net.Dialer{}
	raw, err := d.DialContext(ctx, "tcp", l.Addr)
	if err != nil {
		return false, fmt.Errorf("%s: dial: %w", l.Name, err)
	}
	conn := wire.NewConn(ctx, &countingConn{Conn: raw, m: l.Metrics})
	defer conn.Close()

	tick := l.Heartbeat * time.Duration(l.batch()) / time.Duration(len(l.Agents))
	if tick < 50*time.Microsecond {
		tick = 50 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return worked, ctx.Err()
		case <-ticker.C:
		}
		if err := l.Step(conn, time.Now()); err != nil {
			return worked, err
		}
		worked = true
	}
}

// Run keeps the link in session until ctx ends: when the transport fails
// (RM restart, partition) it waits out bo and dials again, and every
// agent registers afresh — running set, owed completions — so the RM's
// resync reconciliation sees the node's truth. It gives up after maxRetry
// consecutive failed sessions (negative: after the first) and at once on
// a *RefusedError.
func (l *Link) Run(ctx context.Context, bo *faults.Backoff, maxRetry int) error {
	for {
		worked, err := l.Session(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var refused *RefusedError
		if errors.As(err, &refused) {
			return err
		}
		// A beat in flight may or may not have reached the RM: only a
		// registration, then a full report, re-establish agreement.
		for _, a := range l.Agents {
			a.registered = false
		}
		if worked {
			// The link worked; a fresh failure gets a fresh retry budget.
			bo.Reset()
		}
		if maxRetry < 0 || bo.Attempts() >= maxRetry {
			return err
		}
		wait := bo.Next()
		l.Metrics.Reconnects.Inc()
		l.Log.Printf("%s: link lost (%v), reconnecting in %v", l.Name, err, wait)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// countingConn feeds the wire-byte counters: the hollow harness's bytes
// per node per second is read off every connection through it.
type countingConn struct {
	net.Conn
	m *Metrics
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.BytesRecv.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.BytesSent.Add(uint64(n))
	return n, err
}
