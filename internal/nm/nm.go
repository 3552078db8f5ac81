// Package nm implements the node manager of the distributed prototype
// (§4.4): it registers its machine with the resource manager, heartbeats
// periodically with its usage and task completions, launches
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
	cfg   Config
	link  *Link
	diskR *tokenbucket.Bucket
	diskW *tokenbucket.Bucket
	// ctx is Run's: it ends the task goroutines with the node. Set once,
	// before the first Step can launch anything.
	ctx context.Context

	mu       sync.Mutex
	finished []wire.TaskCompletion
	running  map[workload.TaskID]runningTask
	// used is the sum of the running tasks' declared demands, kept with
	// running and zero whenever nothing runs.
	used     resources.Vector
	launched int
}

type runningTask struct {
	cancel context.CancelFunc
	demand resources.Vector
}

// emulator is a Node as its link's Executor: each task is a goroutine
// that holds its declared resources for its compressed duration. The
// second name keeps the Executor methods off Node's exported surface.
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
		cfg: cfg, running: make(map[workload.TaskID]runningTask),
	}
	// Token buckets police compressed-time byte rates: capacity MB/s ×
	// compression, bursts of one second's worth.
	rRate := cfg.Capacity.Get(resources.DiskRead) * cfg.Compression
	wRate := cfg.Capacity.Get(resources.DiskWrite) * cfg.Compression
	n.diskR = tokenbucket.New(rRate, rRate/4+1)
	n.diskW = tokenbucket.New(wRate, wRate/4+1)
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

func (e *emulator) Report(time.Time) (used resources.Vector, finished []wire.TaskCompletion) {
	e.mu.Lock()
	used = e.used
	finished, e.finished = e.finished, nil
	e.mu.Unlock()
	return used, finished
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
	t, ok := e.running[tid]
	if ok {
		e.release(tid, t.demand)
	}
	e.mu.Unlock()
	if !ok {
		return false // already finished or never started here
	}
	t.cancel()
	return true
}

// release takes a task off the running set and its demand off used.
// The caller holds mu.
func (e *emulator) release(tid workload.TaskID, demand resources.Vector) {
	delete(e.running, tid)
	e.used = lessDemand(e.used, demand, len(e.running))
}

// Launch emulates one task: it occupies its declared resources for its
// compressed duration, moving its bytes through the node's token buckets
// to enforce the allocated rates.
func (e *emulator) Launch(l wire.TaskLaunch, _ time.Time) bool {
	ctx, cancel := context.WithCancel(e.ctx)
	e.mu.Lock()
	if _, dup := e.running[l.Task]; dup {
		e.mu.Unlock()
		cancel()
		return false
	}
	e.running[l.Task] = runningTask{cancel, l.Demand}
	e.used = e.used.Add(l.Demand)
	e.launched++
	e.mu.Unlock()
	go func() {
		t0 := time.Now()
		wall := time.Duration(l.Duration / e.cfg.Compression * float64(time.Second))
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
		if _, alive := e.running[l.Task]; alive {
			e.release(l.Task, l.Demand)
			e.finished = append(e.finished, wire.TaskCompletion{
				Task:     l.Task,
				Usage:    l.Demand,
				Duration: time.Since(t0).Seconds() * e.cfg.Compression,
			})
		}
		e.mu.Unlock()
	}()
	return true
}
