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
	"io"
	"log"
	"strconv"
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
	// Metrics receives the node's telemetry (heartbeat RTTs, reconnect
	// attempts, task lifecycle counters). Several NMs sharing one
	// registry — the loopback cluster — aggregate into shared series.
	// Nil records into a private registry, exposing nothing.
	Metrics *telemetry.Registry
	// Logger for diagnostics; nil discards.
	Logger *log.Logger
}

// Node is a running node manager: a one-agent Link (session.go) whose
// executor emulates tasks under token-bucket enforcement.
type Node struct {
	cfg     Config
	link    *Link
	tracker *tracker.Tracker
	diskR   *tokenbucket.Bucket
	diskW   *tokenbucket.Bucket
	start   time.Time // emulated-clock epoch, stable across reconnects
	// ctx is Run's: it ends the task goroutines with the node. Set once,
	// before the first Step can launch anything.
	ctx context.Context

	mu       sync.Mutex
	finished []wire.TaskCompletion
	running  map[workload.TaskID]context.CancelFunc
	launched int
}

// emulator is a Node as its link's Executor: each task is a goroutine
// that holds its declared resources in the tracker for its compressed
// duration. The second name keeps the Executor methods off Node's
// exported surface.
type emulator Node

// New creates a node manager (not yet running; call Run).
func New(cfg Config) *Node {
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 50 * time.Millisecond
	}
	if cfg.Compression == 0 {
		cfg.Compression = 50
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	n := &Node{
		cfg: cfg, tracker: tracker.New(cfg.Capacity), start: time.Now(),
		running: make(map[workload.TaskID]context.CancelFunc),
	}
	// Token buckets police compressed-time byte rates: capacity MB/s ×
	// compression, bursts of one second's worth.
	rRate := cfg.Capacity.Get(resources.DiskRead) * cfg.Compression
	wRate := cfg.Capacity.Get(resources.DiskWrite) * cfg.Compression
	n.diskR = tokenbucket.New(rRate, rRate/4+1)
	n.diskW = tokenbucket.New(wRate, wRate/4+1)
	// The tracker's ramp-up window shrinks with time compression.
	n.tracker.RampUpSec = 10 / cfg.Compression
	n.link = &Link{
		Name: "nm " + strconv.Itoa(cfg.NodeID), Addr: cfg.RMAddr, Heartbeat: cfg.Heartbeat,
		Agents:  []*Agent{{ID: cfg.NodeID, Capacity: cfg.Capacity, Exec: (*emulator)(n)}},
		Metrics: NewMetrics(cfg.Metrics), Log: cfg.Logger,
	}
	return n
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
// completions recorded while disconnected are delivered with the
// registration. A refused registration is fatal (*RefusedError).
func (n *Node) Run(ctx context.Context) error {
	maxRetry := n.cfg.MaxReconnects
	if maxRetry == 0 {
		maxRetry = 10
	}
	// Seed the jitter per node so a mass reconnect after an RM restart
	// doesn't stampede in lockstep.
	bo := faults.NewBackoff(100*time.Millisecond, 5*time.Second, int64(n.cfg.NodeID)+1)
	n.ctx = ctx
	return n.link.Run(ctx, bo, maxRetry)
}

// clock maps wall time to the node's emulated time: compressed seconds
// since the node was created (stable across RM reconnects).
func (e *emulator) clock(now time.Time) float64 {
	return now.Sub(e.start).Seconds() * e.cfg.Compression
}

func (e *emulator) Report(now time.Time) (used, allocated resources.Vector, finished []wire.TaskCompletion) {
	rep := e.tracker.ReportAt(e.clock(now))
	e.mu.Lock()
	finished, e.finished = e.finished, nil
	e.mu.Unlock()
	return rep.Used, rep.Allocated, finished
}

func (e *emulator) Inventory(time.Time) (running []workload.TaskID, finished []wire.TaskCompletion) {
	e.mu.Lock()
	running = make([]workload.TaskID, 0, len(e.running))
	for tid := range e.running {
		running = append(running, tid)
	}
	finished, e.finished = e.finished, nil
	e.mu.Unlock()
	sortTaskIDs(running)
	return running, finished
}

func (e *emulator) Stop(tid workload.TaskID) bool {
	e.mu.Lock()
	cancel, ok := e.running[tid]
	delete(e.running, tid)
	e.mu.Unlock()
	if !ok {
		return false // already finished or never started here
	}
	cancel()
	e.tracker.Finish(tid)
	return true
}

// Launch emulates one task: it occupies its declared resources in the
// tracker for its compressed duration, moving its bytes through the
// node's token buckets to enforce the allocated rates.
func (e *emulator) Launch(l wire.TaskLaunch, now time.Time) bool {
	ctx, cancel := context.WithCancel(e.ctx)
	e.mu.Lock()
	if _, dup := e.running[l.Task]; dup {
		e.mu.Unlock()
		cancel()
		return false
	}
	e.running[l.Task] = cancel
	e.launched++
	e.mu.Unlock()
	e.tracker.Start(l.Task, l.Demand, e.clock(now))
	go func() {
		t0 := time.Now()
		wall := time.Duration(l.Duration / e.cfg.Compression * float64(time.Second))
		e.tracker.Observe(l.Task, l.Demand)
		// Move the task's bytes through the enforcement buckets in
		// chunks across its lifetime, keeping each chunk within the
		// bucket burst size.
		chunks := 10
		rBurst, wBurst := e.diskR.Burst(), e.diskW.Burst()
		for chunks < 1<<16 &&
			((l.ReadMB > 0 && l.ReadMB/float64(chunks) > rBurst/2) ||
				(l.WriteMB > 0 && l.WriteMB/float64(chunks) > wBurst/2)) {
			chunks *= 2
		}
		for i := 0; i < chunks; i++ {
			if l.ReadMB > 0 {
				if err := e.diskR.Take(l.ReadMB / float64(chunks)); err != nil {
					e.cfg.Logger.Printf("nm %d: task %v read enforcement: %v", e.cfg.NodeID, l.Task, err)
				}
			}
			if l.WriteMB > 0 {
				if err := e.diskW.Take(l.WriteMB / float64(chunks)); err != nil {
					e.cfg.Logger.Printf("nm %d: task %v write enforcement: %v", e.cfg.NodeID, l.Task, err)
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(wall / time.Duration(chunks)):
			}
		}
		// Claim the completion under the lock: a concurrent Stop that
		// already removed the task owns its cleanup, and a stopped task
		// must not report a (duplicate) completion.
		e.mu.Lock()
		_, alive := e.running[l.Task]
		if alive {
			delete(e.running, l.Task)
			e.finished = append(e.finished, wire.TaskCompletion{
				Task:     l.Task,
				Usage:    l.Demand,
				Duration: time.Since(t0).Seconds() * e.cfg.Compression,
			})
		}
		e.mu.Unlock()
		if alive {
			e.tracker.Finish(l.Task)
		}
	}()
	return true
}
