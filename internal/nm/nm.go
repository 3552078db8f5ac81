// Package nm implements the node manager of the distributed prototype
// (§4.4): it registers its machine with the resource manager, heartbeats
// periodically with tracker usage reports and task completions, launches
// the tasks the RM assigns, and enforces their disk and network
// allocations with token buckets (§4.2). Task execution is emulated —
// tasks hold their declared resources for their declared (time-
// compressed) duration — which keeps the control plane real while
// substituting the data plane (see DESIGN.md §2).
package nm

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/tokenbucket"
	"github.com/tetris-sched/tetris/internal/tracker"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Config parameterizes a node manager.
type Config struct {
	NodeID   int
	Capacity resources.Vector
	// RMAddr is the resource manager's address.
	RMAddr string
	// Heartbeat interval (default 50 ms).
	Heartbeat time.Duration
	// Compression divides task durations: a factor of 50 runs a 100 s
	// task in 2 s of wall time (default 50).
	Compression float64
	// MaxReconnects bounds consecutive failed reconnect attempts after
	// the RM link drops (exponential backoff with jitter between tries).
	// 0 means the default of 10; negative disables reconnection — the
	// first link failure is fatal, the pre-fault-tolerance behavior.
	MaxReconnects int
	// ReconnectWindow additionally caps the total backoff delay spent on
	// consecutive reconnect attempts (the faults.Backoff max-elapsed
	// cutoff). Zero means no time cap — only MaxReconnects applies.
	ReconnectWindow time.Duration
	// DeltaHeartbeats sends delta availability reports: Used/Allocated
	// are omitted from a heartbeat when unchanged since the last
	// acknowledged beat (wire.DeltaTracker), shrinking steady-state
	// heartbeat frames. Full reports resume automatically on reconnect
	// and whenever the RM requests one (NMReply.FullReport).
	DeltaHeartbeats bool
	// Codec selects the wire encoding for RM traffic: wire.CodecJSON
	// (the default) speaks JSON frames, wire.CodecBinary zero-copy
	// binary frames (DESIGN.md §15). The RM replies in kind, so
	// mixed-codec fleets interoperate per connection.
	Codec wire.Codec
	// Metrics receives the node's telemetry (heartbeat RTTs, reconnect
	// attempts, task lifecycle counters). Several NMs sharing one
	// registry — the loopback cluster — aggregate into shared series.
	// Nil records into a private registry, exposing nothing.
	Metrics *telemetry.Registry
	// Logger for diagnostics; nil discards.
	Logger *log.Logger
}

// nmMetrics is the node manager's metric set.
type nmMetrics struct {
	hbRTT      *telemetry.Histogram
	reconnects *telemetry.Counter
	registered *telemetry.Counter
	launched   *telemetry.Counter
	completed  *telemetry.Counter
	killed     *telemetry.Counter
	preempted  *telemetry.Counter
	deltaBeats *telemetry.Counter
	running    *telemetry.Gauge
}

func newNMMetrics(reg *telemetry.Registry) *nmMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &nmMetrics{
		hbRTT:      reg.Histogram("tetris_nm_heartbeat_rtt_seconds", "NM heartbeat round-trip time to the RM."),
		reconnects: reg.Counter("tetris_nm_reconnects_total", "Reconnect attempts after a lost RM link."),
		registered: reg.Counter("tetris_nm_registrations_total", "Successful RM registrations."),
		launched:   reg.Counter("tetris_nm_tasks_launched_total", "Task attempts started on this process's nodes."),
		completed:  reg.Counter("tetris_nm_tasks_completed_total", "Task attempts finished and reported."),
		killed:     reg.Counter("tetris_nm_orphans_killed_total", "Orphaned attempts killed on RM instruction."),
		preempted:  reg.Counter("tetris_nm_tasks_preempted_total", "Attempts killed by gang preemption."),
		deltaBeats: reg.Counter("tetris_nm_delta_heartbeats_total", "Heartbeats sent as delta availability reports."),
		running:    reg.Gauge("tetris_nm_tasks_running", "Task attempts currently executing."),
	}
}

// Node is a running node manager.
type Node struct {
	cfg     Config
	log     *log.Logger
	tracker *tracker.Tracker
	diskR   *tokenbucket.Bucket
	diskW   *tokenbucket.Bucket
	start   time.Time // emulated-clock epoch, stable across reconnects

	mu        sync.Mutex
	completed []wire.TaskCompletion
	running   map[workload.TaskID]context.CancelFunc
	launched  int

	metrics *nmMetrics
}

// New creates a node manager (not yet running; call Run).
func New(cfg Config) *Node {
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 50 * time.Millisecond
	}
	if cfg.Compression == 0 {
		cfg.Compression = 50
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(discard{}, "", 0)
	}
	n := &Node{
		cfg: cfg, log: cfg.Logger, tracker: tracker.New(cfg.Capacity), start: time.Now(),
		running: make(map[workload.TaskID]context.CancelFunc),
		metrics: newNMMetrics(cfg.Metrics),
	}
	// Token buckets police compressed-time byte rates: capacity MB/s ×
	// compression, bursts of one second's worth.
	rRate := cfg.Capacity.Get(resources.DiskRead) * cfg.Compression
	wRate := cfg.Capacity.Get(resources.DiskWrite) * cfg.Compression
	n.diskR = tokenbucket.New(rRate, rRate/4+1)
	n.diskW = tokenbucket.New(wRate, wRate/4+1)
	// The tracker's ramp-up window shrinks with time compression.
	n.tracker.RampUpSec = 10 / cfg.Compression
	return n
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Running returns the number of tasks currently executing.
func (n *Node) Running() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.running)
}

// Launched returns the total number of tasks ever launched.
func (n *Node) Launched() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.launched
}

// Run connects to the RM and heartbeats until the context is canceled.
// When the RM link drops (RM restart, network partition), the node
// reconnects with exponential backoff plus jitter and re-registers;
// completions recorded while disconnected are delivered on the first
// heartbeat after reconnecting. A definitive RM rejection is fatal.
func (n *Node) Run(ctx context.Context) error {
	maxRetry := n.cfg.MaxReconnects
	if maxRetry == 0 {
		maxRetry = 10
	}
	// Seed the jitter per node so a mass reconnect after an RM restart
	// doesn't stampede in lockstep.
	bo := faults.NewBackoff(100*time.Millisecond, 5*time.Second, int64(n.cfg.NodeID)+1)
	bo.MaxElapsed = n.cfg.ReconnectWindow
	for {
		registered, err := n.session(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var fe *fatalError
		if errors.As(err, &fe) {
			return fe.err
		}
		if registered {
			// The link worked; a fresh failure gets a fresh retry budget.
			bo.Reset()
		}
		if maxRetry < 0 || bo.Attempts() >= maxRetry {
			return err
		}
		d := bo.Next()
		if bo.Exhausted() {
			return fmt.Errorf("nm %d: reconnect window (%v) exhausted: %w",
				n.cfg.NodeID, n.cfg.ReconnectWindow, err)
		}
		n.metrics.reconnects.Inc()
		n.log.Printf("nm %d: link lost (%v), reconnecting in %v", n.cfg.NodeID, err, d)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}

// fatalError marks an RM rejection that reconnecting cannot fix.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// session runs one RM connection — dial, register, heartbeat — until the
// link breaks or ctx ends. registered reports whether registration
// succeeded, which refreshes the caller's reconnect budget.
func (n *Node) session(ctx context.Context) (registered bool, err error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", n.cfg.RMAddr)
	if err != nil {
		return false, fmt.Errorf("nm %d: dial: %w", n.cfg.NodeID, err)
	}
	defer conn.Close()
	// Unblock reads when the context is canceled.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	// One framer per session owns the frame buffers and decode scratch,
	// so steady-state heartbeats allocate nothing. Replies alias the
	// scratch and are fully applied before the next read.
	framer := wire.NewFramer(n.cfg.Codec)

	// Registration carries the node's truth for resync reconciliation:
	// what is running right now, plus completions buffered while
	// disconnected. Snapshotting both under one lock keeps them
	// consistent (a task cannot be in neither set).
	n.mu.Lock()
	runningIDs := make([]workload.TaskID, 0, len(n.running))
	for tid := range n.running {
		runningIDs = append(runningIDs, tid)
	}
	done := n.completed
	n.completed = nil
	n.mu.Unlock()
	sort.Slice(runningIDs, func(i, j int) bool {
		a, b := runningIDs[i], runningIDs[j]
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Index < b.Index
	})

	if err := framer.Write(conn, &wire.Message{Type: wire.TypeRegisterNM, RegisterNM: &wire.RegisterNM{
		NodeID: n.cfg.NodeID, Capacity: n.cfg.Capacity,
		Running: runningIDs, Completed: done,
	}}); err != nil {
		n.requeue(done)
		return false, fmt.Errorf("nm %d: register: %w", n.cfg.NodeID, err)
	}
	reply, err := framer.Read(conn)
	if err != nil {
		n.requeue(done)
		return false, fmt.Errorf("nm %d: register reply: %w", n.cfg.NodeID, err)
	}
	if reply.Type == wire.TypeError {
		n.requeue(done)
		return false, &fatalError{fmt.Errorf("nm %d: registration rejected: %s", n.cfg.NodeID, reply.Error)}
	}
	if reply.NMReply != nil {
		n.handleKills(reply.NMReply.Kill)
	}
	n.metrics.registered.Inc()
	n.log.Printf("nm %d: registered with %s", n.cfg.NodeID, n.cfg.RMAddr)

	// A session-local tracker: the zero value has no baseline, so the
	// session's first heartbeat is always a full report — the RM may
	// have restarted (or processed an earlier beat we never saw the
	// reply to) since the last session.
	var delta wire.DeltaTracker
	ticker := time.NewTicker(n.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return true, ctx.Err()
		case <-ticker.C:
		}
		rep := n.tracker.ReportAt(n.clock())
		n.mu.Lock()
		done := n.completed
		n.completed = nil
		n.mu.Unlock()

		hb := &wire.NMHeartbeat{
			NodeID:    n.cfg.NodeID,
			Used:      rep.Used,
			Allocated: rep.Allocated,
			Completed: done,
		}
		if n.cfg.DeltaHeartbeats {
			if full := delta.Mark(hb); !full {
				n.metrics.deltaBeats.Inc()
			}
		}
		hbT0 := time.Now()
		if err := framer.Write(conn, &wire.Message{Type: wire.TypeNMHeartbeat, NMHeartbeat: hb}); err != nil {
			n.requeue(done)
			return true, fmt.Errorf("nm %d: heartbeat: %w", n.cfg.NodeID, err)
		}
		reply, err := framer.Read(conn)
		if err != nil {
			n.requeue(done)
			return true, fmt.Errorf("nm %d: heartbeat reply: %w", n.cfg.NodeID, err)
		}
		n.metrics.hbRTT.Observe(time.Since(hbT0).Seconds())
		if reply.Type == wire.TypeError {
			// E.g. "unregistered node" from an RM that restarted and lost
			// state: reconnecting re-registers, so it is retryable.
			return true, fmt.Errorf("nm %d: rm error: %s", n.cfg.NodeID, reply.Error)
		}
		if n.cfg.DeltaHeartbeats {
			delta.Ack(reply.NMReply)
		}
		if reply.NMReply != nil {
			n.handleKills(reply.NMReply.Kill)
			n.handlePreempts(reply.NMReply.Preempt)
			for _, l := range reply.NMReply.Launch {
				n.launch(ctx, l)
			}
		}
	}
}

// handleKills stops tasks the RM declared orphaned during resync
// reconciliation: their attempts were reclaimed (and possibly rerun
// elsewhere) while this node was out of touch, so finishing them would
// report a duplicate completion. The kill frees the tracker and emits
// no completion.
func (n *Node) handleKills(kill []workload.TaskID) {
	for _, tid := range kill {
		n.mu.Lock()
		cancel, ok := n.running[tid]
		if ok {
			delete(n.running, tid)
		}
		n.mu.Unlock()
		if !ok {
			continue // already finished or never started here
		}
		cancel()
		n.tracker.Finish(tid)
		n.metrics.killed.Inc()
		n.metrics.running.Add(-1)
		n.log.Printf("nm %d: killed orphaned task %v", n.cfg.NodeID, tid)
	}
}

// handlePreempts stops tasks the RM evicted for a gang: the attempt was
// already requeued as failed at the RM, so the kill must emit no
// completion — the RM would ignore one anyway (the launch record is
// gone), and the AM sees the attempt return to pending.
func (n *Node) handlePreempts(preempt []wire.TaskPreempt) {
	for _, p := range preempt {
		n.mu.Lock()
		cancel, ok := n.running[p.Task]
		if ok {
			delete(n.running, p.Task)
		}
		n.mu.Unlock()
		if !ok {
			continue // already finished or killed
		}
		cancel()
		n.tracker.Finish(p.Task)
		n.metrics.preempted.Inc()
		n.metrics.running.Add(-1)
		n.log.Printf("nm %d: preempted task %v for gang job %d", n.cfg.NodeID, p.Task, p.ForJob)
	}
}

// requeue puts undelivered completions back at the head of the buffer so
// the next successful heartbeat reports them.
func (n *Node) requeue(done []wire.TaskCompletion) {
	if len(done) == 0 {
		return
	}
	n.mu.Lock()
	n.completed = append(done, n.completed...)
	n.mu.Unlock()
}

// clock returns the node's emulated time: compressed seconds since the
// node was created (stable across RM reconnects).
func (n *Node) clock() float64 {
	return time.Since(n.start).Seconds() * n.cfg.Compression
}

// launch emulates one task: it occupies its declared resources in the
// tracker for its compressed duration, moving its bytes through the
// node's token buckets to enforce the allocated rates.
func (n *Node) launch(ctx context.Context, l wire.TaskLaunch) {
	n.tracker.Start(l.Task, l.Demand, n.clock())
	taskCtx, cancel := context.WithCancel(ctx)
	n.mu.Lock()
	if _, dup := n.running[l.Task]; dup {
		// The RM re-sent a launch we already run (e.g. it was queued
		// before a link blip and re-queued during resync); one copy is
		// enough.
		n.mu.Unlock()
		cancel()
		return
	}
	n.running[l.Task] = cancel
	n.launched++
	n.mu.Unlock()
	n.metrics.launched.Inc()
	n.metrics.running.Add(1)
	go func() {
		ctx := taskCtx
		t0 := time.Now()
		wall := time.Duration(l.Duration / n.cfg.Compression * float64(time.Second))
		n.tracker.Observe(l.Task, l.Demand)
		// Move the task's bytes through the enforcement buckets in
		// chunks across its lifetime, keeping each chunk within the
		// bucket burst size.
		chunks := 10
		rBurst, wBurst := n.diskR.Burst(), n.diskW.Burst()
		for chunks < 1<<16 &&
			((l.ReadMB > 0 && l.ReadMB/float64(chunks) > rBurst/2) ||
				(l.WriteMB > 0 && l.WriteMB/float64(chunks) > wBurst/2)) {
			chunks *= 2
		}
		for i := 0; i < chunks; i++ {
			if l.ReadMB > 0 {
				if err := n.diskR.Take(l.ReadMB / float64(chunks)); err != nil {
					n.log.Printf("nm %d: task %v read enforcement: %v", n.cfg.NodeID, l.Task, err)
				}
			}
			if l.WriteMB > 0 {
				if err := n.diskW.Take(l.WriteMB / float64(chunks)); err != nil {
					n.log.Printf("nm %d: task %v write enforcement: %v", n.cfg.NodeID, l.Task, err)
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(wall / time.Duration(chunks)):
			}
		}
		// Claim the completion under the lock: a concurrent kill that
		// already removed the task owns its cleanup, and a killed task
		// must not report a (duplicate) completion.
		n.mu.Lock()
		_, alive := n.running[l.Task]
		if alive {
			delete(n.running, l.Task)
			n.completed = append(n.completed, wire.TaskCompletion{
				Task:     l.Task,
				Usage:    l.Demand,
				Duration: time.Since(t0).Seconds() * n.cfg.Compression,
			})
		}
		n.mu.Unlock()
		if alive {
			n.tracker.Finish(l.Task)
			n.metrics.completed.Inc()
			n.metrics.running.Add(-1)
		}
	}()
}
