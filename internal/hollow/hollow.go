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
// The protocol is not reimplemented here: a fleet is Conns nm.Links, the
// session a real node manager runs, each carrying many agents whose
// executor is nm.Synthetic (its fidelity boundaries are stated there and
// in DESIGN.md §11.1). The RM-facing control plane is real, the
// node-local data plane is not.
package hollow

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/resources"
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
	// Batch is how many nodes' heartbeats share one heartbeat-batch frame
	// per shared connection; 0 or 1 means one. Each node still beats once
	// per Heartbeat — the tick stretches by the batch factor — and the
	// reply carries one entry per beat, so per-node ack semantics
	// (DeltaTracker baseline advance) do not depend on it.
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
	Registers      uint64 // successful (re)registrations
	Redials        uint64 // connection-level failures survived
	Crashes        uint64 // plan-injected node crash windows entered
	TasksLaunched  uint64
	TasksCompleted uint64
	TasksPreempted uint64 // attempts killed by gang preemption
	BytesSent      uint64 // NM-side wire bytes written, all connections
	BytesRecv      uint64 // NM-side wire bytes read, all connections
	RTTSamples     int64  // heartbeat round-trips measured
	RTTp50         float64
	RTTp99         float64
}

// window is one planned down interval, as offsets from fleet start.
type window struct{ from, to time.Duration }

// node is one hollow node manager. Owned by its link's goroutine; no
// locking needed.
type node struct {
	agent   nm.Agent
	exec    nm.Synthetic
	windows []window // pending crash windows, time order
	down    bool
}

// Fleet is a hollow-node fleet. Create with New, drive with Run.
type Fleet struct {
	cfg     Config
	nodes   []node // by node id
	links   []*nm.Link
	start   time.Time
	metrics *nm.Metrics
	crashes atomic.Uint64
	rtt     *reservoir
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
	if cfg.Capacity == (resources.Vector{}) {
		cfg.Capacity = resources.New(16, 32, 200, 200, 1000, 1000)
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	f := &Fleet{
		cfg:     cfg,
		nodes:   make([]node, cfg.Nodes),
		links:   make([]*nm.Link, cfg.Conns),
		metrics: nm.NewMetrics(nil),
		rtt:     newReservoir(8192, cfg.Seed),
	}
	for i := range f.links {
		f.links[i] = &nm.Link{
			Name: fmt.Sprintf("hollow: link %d", i), Addr: cfg.RMAddr,
			Heartbeat: cfg.Heartbeat, Batch: cfg.Batch,
			Metrics: f.metrics, Log: cfg.Logger,
			Silent: f.churn, ObserveRTT: f.rtt.observe,
		}
	}
	// Deal nodes to links round-robin, then shuffle each link's beat order
	// with the fleet seed: the stagger pattern is deterministic per seed but
	// not aligned with node IDs, so churn windows (planned by ID) don't
	// all land on the same connection phase.
	windows := crashWindows(cfg.Plan)
	for id := range f.nodes {
		n := &f.nodes[id]
		n.exec = nm.Synthetic{Compression: cfg.Compression}
		n.agent = nm.Agent{ID: id, Capacity: cfg.Capacity, Exec: &n.exec}
		n.windows = windows[id]
		l := f.links[id%cfg.Conns]
		l.Agents = append(l.Agents, &n.agent)
	}
	for i, l := range f.links {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		rng.Shuffle(len(l.Agents), func(i, j int) {
			l.Agents[i], l.Agents[j] = l.Agents[j], l.Agents[i]
		})
	}
	return f, nil
}

// Conns returns the number of connections the fleet shares: the
// configured count, or the default New resolved it to.
func (f *Fleet) Conns() int { return len(f.links) }

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

// Run connects the fleet and beats until ctx is canceled. A link whose
// connection fails redials with backoff and re-registers every node on
// it, flowing through the RM's resync reconciliation exactly like a real
// NM surviving a link blip; the error is only ever ctx's. A link the RM
// refuses a registration on stops for good and says so in the log.
func (f *Fleet) Run(ctx context.Context) error {
	f.start = time.Now()
	var wg sync.WaitGroup
	for i, l := range f.links {
		wg.Add(1)
		go func(i int, l *nm.Link) {
			defer wg.Done()
			bo := faults.NewBackoff(50*time.Millisecond, 2*time.Second, f.cfg.Seed+int64(i)+1)
			if err := l.Run(ctx, bo, math.MaxInt); ctx.Err() == nil {
				f.cfg.Logger.Printf("%s stopped with %d nodes: %v", l.Name, len(l.Agents), err)
			}
		}(i, l)
	}
	wg.Wait()
	return ctx.Err()
}

// Report snapshots the fleet's counters.
func (f *Fleet) Report() Report {
	m := f.metrics
	return Report{
		Beats:          m.Heartbeats.Value(),
		DeltaBeats:     m.DeltaBeats.Value(),
		Registers:      m.Registered.Value(),
		Redials:        m.Reconnects.Value(),
		Crashes:        f.crashes.Load(),
		TasksLaunched:  m.Launched.Value(),
		TasksCompleted: m.Completed.Value(),
		TasksPreempted: m.Preempted.Value(),
		BytesSent:      m.BytesSent.Value(),
		BytesRecv:      m.BytesRecv.Value(),
		RTTSamples:     f.rtt.count(),
		RTTp50:         f.rtt.quantile(0.50),
		RTTp99:         f.rtt.quantile(0.99),
	}
}

// churn is every link's Silent hook: it applies any planned crash window
// to the node; true means the node is silent this slot. Inside a window
// the node says nothing (the RM's failure detector will declare it
// dead); entering one loses all node state, like a machine power cycle.
func (f *Fleet) churn(a *nm.Agent, now time.Time) bool {
	n := &f.nodes[a.ID]
	since := now.Sub(f.start)
	for len(n.windows) > 0 && since >= n.windows[0].to {
		n.windows = n.windows[1:]
		n.down = false
	}
	if len(n.windows) > 0 && since >= n.windows[0].from {
		if !n.down {
			n.down = true
			// Its tasks vanish uncounted: the fleet's tasks-running gauge
			// (private, unreported) keeps them.
			n.exec = nm.Synthetic{Compression: f.cfg.Compression}
			n.agent = nm.Agent{ID: a.ID, Capacity: a.Capacity, Exec: &n.exec}
			f.crashes.Add(1)
		}
		return true
	}
	return false
}
