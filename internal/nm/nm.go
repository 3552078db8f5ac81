// Package nm implements the node manager of the distributed prototype
// (§4.4): it registers its machine with the resource manager, heartbeats
// periodically with its usage and task completions, and launches the
// tasks the RM assigns. Task execution is synthetic — a task holds its
// declared resources for its declared (time-compressed) duration and
// completes on the first heartbeat after that — which keeps the control
// plane real while substituting the data plane, §4.2's rate enforcement
// included (see DESIGN.md §2).
package nm

import (
	"context"
	"io"
	"log"
	"strconv"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
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
// executor is a Synthetic. Only the link's ticker goroutine steps it, so
// the node holds no lock.
type Node struct {
	cfg  Config
	link *Link
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
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	return &Node{cfg: cfg, link: &Link{
		Name: "nm " + strconv.Itoa(cfg.NodeID), Addr: cfg.RMAddr, Heartbeat: cfg.Heartbeat,
		Agents: []*Agent{{ID: cfg.NodeID, Capacity: cfg.Capacity,
			Exec: &Synthetic{Compression: cfg.Compression}}},
		Metrics: NewMetrics(cfg.Metrics), Log: cfg.Logger,
	}}
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
	return n.link.Run(ctx, bo, maxRetry)
}
