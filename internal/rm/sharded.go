package rm

// Sharded is the resource manager's front door for any shard count
// N ≥ 1: N independent shard cores (*Server), each owning a disjoint
// partition of the machine fleet and running the scheduling core
// against its own free ledger, behind a thin top layer that owns the
// listener and does wire decode → validation → admission → shard
// routing → dispatch, and the one write-ahead log every shard journals
// to. Each shard has its own lock: heartbeats from
// different shards schedule concurrently, and a scheduling round only
// walks 1/N of the fleet. N = 1 is the degenerate partition — one core
// holding the whole fleet, every job routed to it.
//
// Partitioning is static by node ID (nodeID mod N): a node's shard can
// be computed by anyone at any time, survives restarts with no extra
// durable state, and keeps a node's whole ledger inside one shard so
// every existing invariant (VerifyLedger, journal digest, resync
// reconciliation) holds per shard unchanged. Jobs, by contrast, are
// routed dynamically at admission with the alignment scorer (router.go)
// and pinned to their shard for life: a job's tasks only ever run on
// its shard's machines, so cross-shard remote-read charges never arise
// and the per-shard ledgers stay closed under the existing proof
// obligations.
//
// The front door also owns RM time: one clock every shard core reads,
// continued after a restart from the newest event any shard journaled,
// and one sweeper goroutine running every shard's failure detector.
//
// What is given up: a task cannot pack against another shard's spare
// capacity, so N-shard placement can lose packing efficiency versus the
// global packer. The shard_quality_test.go harness measures exactly
// that loss against the 1-shard oracle, and proves the top layer itself
// adds no decision (bare core ≡ 1-shard front door); EXPERIMENTS.md
// records both.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// ShardedConfig parameterizes the RM; every shard core reads it. The
// factories exist because shard cores must not share mutable scheduler
// or estimator state.
type ShardedConfig struct {
	// Shards is the number of scheduler shards (≥ 1).
	Shards int
	// NewScheduler builds one shard's placement policy (required; called
	// once per shard — cores must not share scheduler state).
	NewScheduler func() scheduler.Scheduler
	// NewEstimator optionally builds one shard's demand estimator from
	// completions; nil disables estimation (declared demands are used
	// as-is).
	NewEstimator func() *estimator.Estimator
	// NodeTimeout is the heartbeat silence after which a node is declared
	// dead: its ledger is reclaimed and its tasks return to pending. Zero
	// disables failure detection (nodes are trusted forever).
	NodeTimeout time.Duration
	// MaxTaskAttempts caps failed executions per task; when a task dies
	// that many times (its nodes kept crashing), its whole job is
	// abandoned and reported failed to the AM. Zero means unlimited.
	// Keep it stable across restarts: journal replay re-derives job
	// abandonment from it.
	MaxTaskAttempts int
	// JournalDir enables write-ahead journaling and crash recovery: every
	// shard's state transitions go to one log under JournalDir/shard-0
	// (the path a 1-shard RM has always used) and are replayed on
	// restart. The log records its shard count; reopening it with another
	// count, or over a per-shard shard-<k> directory of an older build,
	// fails with ErrJournalLayout. Recovery also rebuilds the top layer's
	// job→shard routing table from the recovered shard states. Empty
	// disables durability.
	JournalDir string
	// JournalSync is the journal's fsync policy (default
	// journal.SyncInterval).
	JournalSync journal.SyncPolicy
	// SnapshotEvery bounds replay: once any shard has journaled this many
	// records since the last checkpoint, the next heartbeat through the
	// front door checkpoints every shard and restarts the log. Default
	// 4096.
	SnapshotEvery int
	// Gang times the gang coordinator every shard core runs its rounds
	// through (internal/gang): gang jobs admit all-or-nothing, hoard
	// under timeout-and-release, and may preempt lower-priority
	// preemptible tasks; the router pins every gang to one shard whose
	// aggregate capacity can co-hold its quorum. The zero value takes
	// the coordinator's defaults.
	Gang gang.Config
	// Metrics receives every shard's telemetry (placements, heartbeat
	// and fsync latencies, node liveness, ...; see metrics.go), each
	// series tagged shard="<i>", plus the top layer's routing metrics.
	// Nil records into private registries, exposing nothing.
	Metrics *telemetry.Registry
	// Logger for diagnostics; nil discards.
	Logger *log.Logger
	// Admission enables the multi-tenant front door (admission.go):
	// submissions are gated (quota/rate/shed) once, before routing, with
	// typed wire.SubmitReject answers, and all shard cores share the same
	// tenant accounting so per-tenant state is global even though jobs
	// scatter across shards. Nil admits everything.
	Admission *AdmissionConfig
	// ConnTimeout bounds how long a connection handler waits on a single
	// read or write before dropping the connection, so a stalled or
	// half-dead peer cannot wedge a handler goroutine; peers recover
	// through their normal redial/resync paths. 0 means the 2-minute
	// default; negative disables deadlines.
	ConnTimeout time.Duration

	// clock replaces the wall clock as RM time; nil means the wall clock.
	// Only tests set it, to a virtual clock, which starts no sweeper:
	// failure detection then runs on beats and CheckFailures alone.
	clock rmClock
}

// rmClock is RM time in seconds, the one clock of an RM: every shard
// core reads it for journaled times, the failure detector, and the
// starvation and gang timers of the wrapped policy. Metric timing,
// connection deadlines and the admission token buckets keep wall time;
// none of them decides anything that is journaled.
type rmClock interface {
	now() float64
	// startAt is called once, after journal replay and before anything
	// reads the clock: from then on the clock runs from t. A virtual
	// clock that already reads past t keeps its reading.
	startAt(t float64)
}

// wallClock is RM time on the wall clock: seconds since start.
type wallClock struct{ start time.Time }

func (c *wallClock) now() float64 { return time.Since(c.start).Seconds() }

func (c *wallClock) startAt(t float64) {
	c.start = time.Now().Add(-time.Duration(t * float64(time.Second)))
}

// Sharded is a running resource manager.
type Sharded struct {
	cfg    ShardedConfig
	shards []*Server
	ln     net.Listener
	log    *log.Logger

	mu       sync.Mutex
	jobShard map[int]int // job ID → owning shard, pinned at admission

	// adm is the shared admission front door (nil without Admission
	// config): the top layer gates, shard cores carry the accounting.
	adm *admission
	// wal is the one log every shard journals to; nil without JournalDir.
	wal *rmLog

	routedJobs []*telemetry.Counter // per-shard admission counts
	fallbacks  *telemetry.Counter   // jobs routed with no feasible shard
	offloaded  []*telemetry.Counter // per-shard batch groups run on a helper goroutine

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewSharded creates a resource manager listening on addr ("host:port";
// use "127.0.0.1:0" for an ephemeral port). With cfg.JournalDir set,
// every shard recovers from the log before serving and the job→shard
// table is rebuilt from the recovered shards.
func NewSharded(addr string, cfg ShardedConfig) (*Sharded, error) {
	g, err := newShardedCore(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		g.Close()
		return nil, fmt.Errorf("rm: listen: %w", err)
	}
	g.ln = ln
	g.start()
	return g, nil
}

// NewShardedInProcess creates a resource manager with no listener, for
// tests and benchmarks that drive the handlers directly.
func NewShardedInProcess(cfg ShardedConfig) (*Sharded, error) {
	g, err := newShardedCore(cfg)
	if err != nil {
		return nil, err
	}
	g.start()
	return g, nil
}

func newShardedCore(cfg ShardedConfig) (*Sharded, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("rm: sharded: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("rm: sharded: NewScheduler is required")
	}
	g := &Sharded{
		cfg:      cfg,
		log:      cfg.Logger,
		jobShard: make(map[int]int),
		conns:    make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
	if g.log == nil {
		g.log = log.New(io.Discard, "", 0)
	}
	if cfg.Admission != nil {
		if err := cfg.Admission.validate(); err != nil {
			return nil, err
		}
		// Built before any shard core so journal recovery inside open
		// re-adopts recovered jobs into the shared tenant accounting.
		g.adm = newAdmission(*cfg.Admission, cfg.Metrics)
	}
	if g.cfg.ConnTimeout == 0 {
		g.cfg.ConnTimeout = 2 * time.Minute
	}
	if g.cfg.SnapshotEvery <= 0 {
		g.cfg.SnapshotEvery = 4096
	}
	clock := cfg.clock
	if clock == nil {
		clock = new(wallClock)
	}
	for i := 0; i < cfg.Shards; i++ {
		core := &Server{cfg: &g.cfg, sched: cfg.NewScheduler(), index: i, clock: clock, adm: g.adm}
		if cfg.NewEstimator != nil {
			core.est = cfg.NewEstimator()
		}
		if err := core.open(); err != nil {
			return nil, fmt.Errorf("rm: sharded: shard %d: %w", i, err)
		}
		g.shards = append(g.shards, core)
	}
	if cfg.JournalDir != "" {
		if err := g.recover(); err != nil {
			return nil, err
		}
	}
	// Rebuild routing for the jobs recovery brought back.
	for i, s := range g.shards {
		for _, id := range s.JobIDs() {
			if prev, ok := g.jobShard[id]; ok {
				g.Close()
				return nil, fmt.Errorf("rm: sharded: job %d recovered on shards %d and %d", id, prev, i)
			}
			g.jobShard[id] = i
		}
	}
	// One clock for every shard, continued from the newest event any shard
	// journaled: no shard's time runs backwards, and all shards agree.
	var last float64
	for _, s := range g.shards {
		last = max(last, s.lastEventTime)
	}
	clock.startAt(last)
	if g.wal != nil {
		// Every machine the log left live awaits its NM's re-registration
		// (resync.go). Then checkpoint, so repeated crashes never replay
		// more than one incarnation's events; the resync marking encodes
		// as the pre-marking state did.
		now := clock.now()
		for _, s := range g.shards {
			s.awaitResync(now)
		}
		g.checkpoint(true)
	}
	if reg := cfg.Metrics; reg != nil {
		for i := range g.shards {
			g.routedJobs = append(g.routedJobs, reg.Counter(
				telemetry.Label("tetris_rm_routed_jobs_total", "shard", strconv.Itoa(i)),
				"Jobs the top-layer router admitted to the shard."))
			g.offloaded = append(g.offloaded, reg.Counter(telemetry.Label("tetris_rm_batch_groups_offloaded_total", "shard", strconv.Itoa(i)),
				"Heartbeat-batch groups of the shard run on a helper goroutine, because it and another shard of the frame may run a round."))
		}
		g.fallbacks = reg.Counter("tetris_rm_route_fallbacks_total",
			"Jobs routed while no shard had a machine fitting their largest task.")
		reg.GaugeFunc("tetris_rm_shards", "Scheduler shards behind the RM front door.",
			func() float64 { return float64(len(g.shards)) })
	} else {
		for range g.shards {
			g.routedJobs = append(g.routedJobs, &telemetry.Counter{})
			g.offloaded = append(g.offloaded, &telemetry.Counter{})
		}
		g.fallbacks = &telemetry.Counter{}
	}
	return g, nil
}

// ErrJournalLayout reports state under ShardedConfig.JournalDir that the
// configured shard count would start without. The RM fails closed; the
// operator moves or removes Path, or reopens with the shard count that
// wrote it.
type ErrJournalLayout struct {
	Path   string // the offending entry
	Reason string
}

func (e *ErrJournalLayout) Error() string {
	return fmt.Sprintf("rm: journal layout: %s: %s", e.Path, e.Reason)
}

// logDir is the log's directory under JournalDir.
const logDir = "shard-0"

// checkJournalLayout rejects a journal directory holding journal files at
// its top level (a single-journal layout; fix: mv dir/*.dat dir/shard-0/)
// or a shard-<k> directory with k ≥ 1 (per-shard state of an older
// build). The log only ever opens dir/shard-0, so either would be
// silently ignored.
func checkJournalLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("rm: journal dir: %w", err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if !e.IsDir() {
			if filepath.Ext(e.Name()) == ".dat" {
				return &ErrJournalLayout{Path: path, Reason: "journal file outside shard-0/ (move it there)"}
			}
			continue
		}
		if k, ok := strings.CutPrefix(e.Name(), "shard-"); ok && e.Name() != logDir {
			if _, err := strconv.Atoi(k); err == nil {
				return &ErrJournalLayout{Path: path, Reason: "per-shard journal of an older build (the RM keeps one log under shard-0)"}
			}
		}
	}
	return nil
}

// recover opens the log under JournalDir/shard-0 and replays it before
// anything reads the RM clock: the checkpoint restores every shard, then
// each record is applied on the shard it names, in log order — the order
// of that shard's live transitions.
func (g *Sharded) recover() error {
	if err := checkJournalLayout(g.cfg.JournalDir); err != nil {
		return err
	}
	reg := g.cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// The log's own series carry the label of the shard whose directory
	// holds it.
	logSeries := func(n string) string { return telemetry.Label(n, "shard", "0") }
	jnl, rec, err := journal.Open(journal.Options{
		Dir:          filepath.Join(g.cfg.JournalDir, logDir),
		Sync:         g.cfg.JournalSync,
		ObserveFsync: reg.Histogram(logSeries("tetris_rm_journal_fsync_seconds"), "Write-ahead journal fsync latency.").Observe,
	})
	if err != nil {
		return fmt.Errorf("rm: journal: %w", err)
	}
	g.wal = &rmLog{Journal: jnl}
	t0 := time.Now()
	for _, s := range g.shards {
		s.wal = g.wal
		s.replaying = true
	}
	if rec.Snapshot != nil {
		if err := restoreCheckpoint(rec.Snapshot, g.shards, g.cfg.JournalDir); err != nil {
			jnl.Close()
			return fmt.Errorf("rm: restore snapshot: %w", err)
		}
	}
	counts := make([]int, len(g.shards))
	var ev event
	for i, data := range rec.Records {
		shard, err := decodeRecord(data, len(g.shards), &ev)
		if err == nil {
			err = g.shards[shard].applyEvent(&ev)
		}
		if err != nil {
			jnl.Close()
			return fmt.Errorf("rm: journal record %d: %w", i, err)
		}
		counts[shard]++
	}
	for i, s := range g.shards {
		s.replaying = false
		s.metrics.replayRecords.Set(float64(counts[i]))
		s.recoveredDigest = s.appendState(nil)
	}
	reg.Gauge(logSeries("tetris_rm_journal_replay_seconds"), "Wall time of the last journal recovery replay.").Set(time.Since(t0).Seconds())
	if rec.TornBytes > 0 || rec.StaleRecords > 0 {
		g.log.Printf("rm: journal recovery dropped %d torn tail bytes, skipped %d stale records",
			rec.TornBytes, rec.StaleRecords)
	}
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		g.log.Printf("rm: recovered %d shard(s) from journal (%d records replayed)", len(g.shards), len(rec.Records))
	}
	return nil
}

// checkpoint snapshots every shard at one point of the log and
// restarts it: always, or when a shard has journaled SnapshotEvery
// records since the last checkpoint. The heartbeat paths call it after
// the shard returns. It takes every shard lock in index order, so no
// shard journals between the states it encodes and the snapshot it
// enqueues; no other path holds two shard locks.
func (g *Sharded) checkpoint(always bool) {
	if g.wal == nil || !always && !g.wal.due.Load() {
		return
	}
	for _, s := range g.shards {
		s.mu.Lock()
	}
	if always || g.wal.due.Load() { // a racing caller may have taken it
		g.wal.buf = appendCheckpoint(g.wal.buf[:0], g.shards)
		g.wal.Snapshot(g.wal.buf)
		for _, s := range g.shards {
			s.sinceSnap = 0
		}
		g.wal.due.Store(false)
	}
	for _, s := range g.shards {
		s.mu.Unlock()
	}
}

// start launches the failure sweeper (with failure detection on, on the
// wall clock) and the accept loop when a listener is installed.
func (g *Sharded) start() {
	if g.cfg.NodeTimeout > 0 && g.cfg.clock == nil {
		g.wg.Add(1)
		go g.sweep(g.cfg.NodeTimeout / 4)
	}
	if g.ln != nil {
		g.wg.Add(1)
		go g.accept()
	}
}

// sweep runs every shard's failure detector each tick. Detection also
// runs on every NM heartbeat; the ticker catches nodes that went silent
// on a shard that hears from no one else.
func (g *Sharded) sweep(every time.Duration) {
	defer g.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-g.closed:
			return
		case <-ticker.C:
			g.CheckFailures()
		}
	}
}

// Addr returns the listener address.
func (g *Sharded) Addr() string { return g.ln.Addr().String() }

// NumShards returns the shard count.
func (g *Sharded) NumShards() int { return len(g.shards) }

// Shard exposes shard i's core for per-shard assertions (ledger checks,
// stats) in tests and drivers.
func (g *Sharded) Shard(i int) *Server { return g.shards[i] }

// shardIndex is the static node partition: nodeID mod N, non-negative.
func (g *Sharded) shardIndex(nodeID int) int {
	i := nodeID % len(g.shards)
	if i < 0 {
		i += len(g.shards)
	}
	return i
}

func (g *Sharded) nodeShard(nodeID int) *Server { return g.shards[g.shardIndex(nodeID)] }

// Close shuts the RM down — closing the listener and severing live
// NM/AM connections as a real crash would — waits for the connection
// handlers and the sweeper, and closes the log (flushing it), if any. A
// Close is indistinguishable from a crash to the next incarnation: no
// final checkpoint is written, so restart always exercises the replay
// path.
func (g *Sharded) Close() error {
	select {
	case <-g.closed:
	default:
		close(g.closed)
	}
	var err error
	if g.ln != nil {
		err = g.ln.Close()
	}
	g.connMu.Lock()
	for conn := range g.conns {
		conn.Close()
	}
	g.connMu.Unlock()
	g.wg.Wait()
	if g.wal != nil {
		if jerr := g.wal.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

func (g *Sharded) accept() {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			select {
			case <-g.closed:
				return
			default:
				g.log.Printf("rm: sharded: accept: %v", err)
				return
			}
		}
		g.wg.Add(1)
		go g.serve(conn)
	}
}

// serve runs one connection's request/reply loop. Frames are keyed on
// their payload's NodeID/JobID, so peers cannot tell how many shards
// they talk to.
func (g *Sharded) serve(conn net.Conn) {
	defer g.wg.Done()
	defer conn.Close()
	g.connMu.Lock()
	g.conns[conn] = struct{}{}
	g.connMu.Unlock()
	defer func() {
		g.connMu.Lock()
		delete(g.conns, conn)
		g.connMu.Unlock()
	}()
	select {
	case <-g.closed:
		return // accepted while Close was severing; it will not see this conn
	default:
	}
	// One Framer per connection: it reads either codec and writes each
	// reply in its type's codec, and hot-frame decode reuses its scratch
	// so steady-state heartbeats allocate nothing.
	framer := wire.NewServerFramer()
	var sc replyScratch
	for {
		// Read/write deadlines: a stalled or half-dead peer times out and
		// the connection drops — NMs/AMs recover through their redial and
		// resync paths, and no handler goroutine is wedged forever.
		armDeadline(conn, g.cfg.ConnTimeout)
		m, err := framer.Read(conn)
		if err != nil {
			return // peer closed, stalled past the deadline, or protocol error
		}
		reply := g.call(m, &sc)
		armDeadline(conn, g.cfg.ConnTimeout)
		if err := framer.Write(conn, reply); err != nil {
			return
		}
	}
}

// Call answers one decoded frame: the dispatch of the serve loop, and —
// called directly — the in-process transport a client session runs on
// against NewShardedInProcess, with no socket between them. The error is
// always nil (a protocol rejection is a TypeError reply); it is there so
// *Sharded and *wire.Conn are the same kind of thing to a client. The
// caller owns the reply message, but a heartbeat entry's Launch and
// Preempt alias its node's queue buffers until that node's next beat.
func (g *Sharded) Call(m *wire.Message) (*wire.Message, error) {
	return g.call(m, new(replyScratch)), nil
}

// call answers one decoded frame, building a heartbeat reply in sc.
func (g *Sharded) call(m *wire.Message, sc *replyScratch) *wire.Message {
	var reply *wire.Message
	switch m.Type {
	case wire.TypeRegisterNM:
		if m.RegisterNM == nil {
			reply = errMsg("missing registerNM payload")
		} else {
			reply = g.nodeShard(m.RegisterNM.NodeID).handleRegisterNM(m.RegisterNM)
		}
	case wire.TypeHeartbeatBatch:
		reply = g.handleBatch(m.HeartbeatBatch, sc)
	case wire.TypeSubmitJob:
		reply = g.handleSubmitJob(m.SubmitJob)
	case wire.TypeSubmitBatch:
		reply = g.handleSubmitBatch(m.SubmitBatch)
	case wire.TypeAMHeartbeat:
		reply = g.HandleAMHeartbeat(m.AMHeartbeat)
	case wire.TypeClusterStatus:
		st := g.ClusterStatus()
		reply = &wire.Message{Type: wire.TypeClusterStatusReply, ClusterStatus: &st}
	default:
		reply = &wire.Message{Type: wire.TypeError, Error: fmt.Sprintf("unknown message type %q", m.Type)}
	}
	return reply
}

// armDeadline sets the connection's absolute I/O deadline d from now
// (no-op when deadlines are disabled with a negative timeout).
func armDeadline(conn net.Conn, d time.Duration) {
	if d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}
}

// replyScratch holds a heartbeat reply and what builds it. A serve loop
// reuses one per connection: it encodes a reply before reading the next
// frame (Framer.Read's contract), so nothing reads a rebuilt reply. Every
// other caller passes a fresh one and owns the reply; its entries' Launch
// and Preempt still alias per-node buffers (Server.beat).
type replyScratch struct {
	msg    wire.Message
	batch  wire.HeartbeatBatchReply
	groups [][]int // per shard, the indices of its beats in the frame
	wg     sync.WaitGroup
}

// HandleHeartbeatBatch answers a heartbeat frame from a fresh scratch,
// so the caller owns the reply and its entries. An entry's Launch and
// Preempt alias its node's queue buffers and are valid until that node's
// next beat; a frame may carry one node twice, and each of its entries
// keeps what was queued for it.
func (g *Sharded) HandleHeartbeatBatch(b *wire.HeartbeatBatch) *wire.Message {
	return g.handleBatch(b, new(replyScratch))
}

// handleBatch enters each shard once with its group of the frame's beats
// (nodeID mod N); Server.handleBeats writes each verdict into its entry.
// Groups run on the calling goroutine unless two or more may run a round
// (a completion, or the shard's mayRound hint): then all but the last go
// to helper goroutines. The hint only picks where a group runs.
func (g *Sharded) handleBatch(b *wire.HeartbeatBatch, sc *replyScratch) *wire.Message {
	if b == nil {
		return errMsg("missing heartbeatBatch payload")
	}
	sc.groups = slices.Grow(sc.groups[:0], len(g.shards))[:len(g.shards)]
	for si := range sc.groups {
		sc.groups[si] = sc.groups[si][:0]
	}
	for i := range b.Beats {
		si := g.shardIndex(b.Beats[i].NodeID)
		sc.groups[si] = append(sc.groups[si], i)
	}
	sc.batch.Replies = slices.Grow(sc.batch.Replies[:0], len(b.Beats))[:len(b.Beats)]
	completes := func(i int) bool { return len(b.Beats[i].Completed) > 0 }
	held := -1 // the latest group that may run a round, not yet started
	for si, idxs := range sc.groups {
		switch {
		case len(idxs) == 0:
		case !g.shards[si].mayRound.Load() && !slices.ContainsFunc(idxs, completes):
			g.shards[si].handleBeats(b.Beats, idxs, sc.batch.Replies)
		default:
			if held >= 0 {
				g.offloaded[held].Inc()
				sc.wg.Add(1)
				go func(s *Server, idxs []int) {
					defer sc.wg.Done()
					s.handleBeats(b.Beats, idxs, sc.batch.Replies)
				}(g.shards[held], sc.groups[held])
			}
			held = si
		}
	}
	if held >= 0 {
		g.shards[held].handleBeats(b.Beats, sc.groups[held], sc.batch.Replies)
	}
	sc.wg.Wait()
	g.checkpoint(false)
	sc.msg = wire.Message{Type: wire.TypeHeartbeatBatchReply, HeartbeatBatchReply: &sc.batch}
	return &sc.msg
}

// HandleNMHeartbeat answers one node heartbeat in process on the node's
// shard: a TypeNMReply, or a TypeError for a refused beat. A steady-state
// beat allocates nothing, idle or placing: the reply lives in a slot the
// node's record owns and its Launch and Preempt alias the node's queue
// buffers, so the reply is valid until that node's next beat. Shards
// share no lock here: that is where beats/sec scales.
func (g *Sharded) HandleNMHeartbeat(hb *wire.NMHeartbeat) *wire.Message {
	if hb == nil {
		return errMsg("missing nmHeartbeat payload")
	}
	reply := g.nodeShard(hb.NodeID).handleBeat(hb)
	g.checkpoint(false)
	return reply
}

// HandleAMHeartbeat answers a job-progress poll from the job's shard.
func (g *Sharded) HandleAMHeartbeat(hb *wire.AMHeartbeat) *wire.Message {
	if hb == nil {
		return errMsg("missing amHeartbeat payload")
	}
	g.mu.Lock()
	shard, ok := g.jobShard[hb.JobID]
	g.mu.Unlock()
	if !ok {
		return errMsg(fmt.Sprintf("unknown job %d", hb.JobID))
	}
	return g.shards[shard].HandleAMHeartbeat(hb)
}

// handleSubmitJob is admission: validate, gate (quota/rate/shed), route
// once, pin, forward. A resubmission of a known job ID goes back to its
// pinned shard, whose own idempotence/conflict logic answers — routing
// never flaps and resubmissions never re-charge the tenant's quota. Two
// racing first submissions of one ID may both reserve; the loser's
// reservation is rolled back by the shard core when it discovers the
// duplicate (Server.submit's reserved path), so quotas never leak.
func (g *Sharded) handleSubmitJob(r *wire.SubmitJob) *wire.Message {
	if r == nil || r.Job == nil {
		return errMsg("missing job payload")
	}
	if err := r.Job.Validate(); err != nil {
		return rejectMsg(&wire.SubmitReject{
			Code: wire.RejectInvalid, Reason: fmt.Sprintf("invalid job: %v", err),
		})
	}
	g.mu.Lock()
	shard, known := g.jobShard[r.Job.ID]
	g.mu.Unlock()
	if known {
		return g.shards[shard].submit(r.Job, r.Tenant, false)
	}
	reserved := false
	if g.adm != nil {
		if rej := g.adm.admit(r.Tenant); rej != nil {
			return rejectMsg(rej)
		}
		reserved = true
	}
	return g.shards[g.routeJob(r.Job)].submit(r.Job, r.Tenant, reserved)
}

// handleSubmitBatch is the bulk-ingest path: each job is validated,
// gated, routed and applied on its shard independently; their submit
// records stream to the log's writer goroutine. Then, if any job was
// accepted, one durability barrier — one fsync for the batch, however
// many shards it touched, since every shard journals to the one log.
// That makes an acked batch stronger than an acked single submit (whose
// append is asynchronous under the interval fsync policy) while paying
// the fsync once per batch instead of once per job. A failed barrier
// fails the whole batch closed: the reply is an error naming the
// journal, never an admit of jobs that may not survive a crash. The jobs
// stay applied and pinned, so resubmitting the same IDs is idempotent
// and is acked once a barrier succeeds.
func (g *Sharded) handleSubmitBatch(r *wire.SubmitBatch) *wire.Message {
	if r == nil || len(r.Jobs) == 0 {
		return errMsg("missing or empty submitBatch payload")
	}
	reply := &wire.SubmitBatchReply{Results: make([]wire.SubmitResult, 0, len(r.Jobs))}
	accepted := false
	for _, j := range r.Jobs {
		if j == nil {
			reply.Results = append(reply.Results, wire.SubmitResult{Reject: &wire.SubmitReject{
				Code: wire.RejectInvalid, Reason: "missing job in batch",
			}})
			continue
		}
		m := g.handleSubmitJob(&wire.SubmitJob{Job: j, Tenant: r.Tenant})
		res := wire.SubmitResult{JobID: j.ID}
		switch m.Type {
		case wire.TypeAMReply:
			accepted = true
		case wire.TypeSubmitReject:
			res.Reject = m.SubmitReject
		default:
			res.Reject = &wire.SubmitReject{Code: wire.RejectInvalid, Reason: m.Error}
		}
		reply.Results = append(reply.Results, res)
	}
	if g.adm != nil {
		g.adm.batches.Inc()
		g.adm.batchJobs.Add(uint64(len(r.Jobs)))
	}
	if accepted && g.wal != nil {
		if err := g.wal.Sync(); err != nil {
			msg := fmt.Sprintf("batch not durable, journal barrier failed: %v", err)
			g.log.Printf("rm: sharded: %s", msg)
			return errMsg(msg)
		}
	}
	return &wire.Message{Type: wire.TypeSubmitBatchReply, SubmitBatchReply: reply}
}

// routeJob picks (or recalls) the owning shard for a job and pins it.
func (g *Sharded) routeJob(j *workload.Job) int {
	g.mu.Lock()
	if shard, ok := g.jobShard[j.ID]; ok {
		g.mu.Unlock()
		return shard
	}
	g.mu.Unlock()

	shard, feasible := g.routeViews(j)

	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.jobShard[j.ID]; ok { // lost a concurrent admission race
		return prev
	}
	g.jobShard[j.ID] = shard
	g.routedJobs[shard].Inc()
	if !feasible {
		g.fallbacks.Inc()
	}
	g.log.Printf("rm: sharded: job %d routed to shard %d (%d tasks)", j.ID, shard, j.NumTasks())
	return shard
}

// routeViews scores j against every shard's routing summary. It runs
// without holding g.mu — RoutingSummary takes each shard's own lock, and
// admission must not serialize heartbeats — and allocates nothing: the
// summaries are cached per shard (router.go) and the views slice lives
// on the stack for up to maxStackShards shards.
func (g *Sharded) routeViews(j *workload.Job) (shard int, feasible bool) {
	var buf [maxStackShards]ShardView
	views := buf[:0]
	if len(g.shards) > maxStackShards {
		views = make([]ShardView, 0, len(g.shards))
	}
	for _, s := range g.shards {
		views = append(views, s.RoutingSummary())
	}
	return RouteJob(j, views)
}

// maxStackShards is the shard count up to which routeViews keeps its
// views off the heap.
const maxStackShards = 16

// RegisterMachine adds a machine to its static shard (without a socket).
func (g *Sharded) RegisterMachine(id int, capacity resources.Vector) {
	g.nodeShard(id).RegisterMachine(id, capacity)
}

// SubmitJob routes and registers a job directly (without a socket)
// under the anonymous default tenant.
func (g *Sharded) SubmitJob(j *workload.Job) error {
	return replyErr(g.handleSubmitJob(&wire.SubmitJob{Job: j}))
}

// SubmitJobAs routes and registers a job directly under a tenant;
// admission-gated when the front door is enabled.
func (g *Sharded) SubmitJobAs(tenant string, j *workload.Job) error {
	return replyErr(g.handleSubmitJob(&wire.SubmitJob{Job: j, Tenant: tenant}))
}

// SubmitBatch runs the bulk-ingest path directly (without a socket) and
// returns the per-job verdicts.
func (g *Sharded) SubmitBatch(tenant string, jobs []*workload.Job) ([]wire.SubmitResult, error) {
	reply := g.handleSubmitBatch(&wire.SubmitBatch{Tenant: tenant, Jobs: jobs})
	if reply.Type != wire.TypeSubmitBatchReply {
		return nil, replyErr(reply)
	}
	return reply.SubmitBatchReply.Results, nil
}

// VerifyLedger checks every shard's conservation invariants; the first
// violation is reported with its shard index.
func (g *Sharded) VerifyLedger() error {
	for i, s := range g.shards {
		if err := s.VerifyLedger(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// CheckFailures runs each shard's failure detector sweep immediately.
func (g *Sharded) CheckFailures() {
	for _, s := range g.shards {
		s.CheckFailures()
	}
}

// LiveNodes sums live node counts across shards.
func (g *Sharded) LiveNodes() int {
	n := 0
	for _, s := range g.shards {
		n += s.LiveNodes()
	}
	return n
}

// ResyncPending sums machines still awaiting NM re-registration.
func (g *Sharded) ResyncPending() int {
	n := 0
	for _, s := range g.shards {
		n += s.ResyncPending()
	}
	return n
}

// HeartbeatStats returns the mean and p99 processing times (in seconds)
// of NM and AM heartbeats — the Table 7 measurement — read from each
// shard's tetris_rm_{nm,am}_heartbeat_seconds histogram and weighted by
// beat count across shards.
func (g *Sharded) HeartbeatStats() (nmMean, nmP99, amMean, amP99 float64) {
	merge := func(hist func(*Server) *telemetry.Histogram) (mean, p99 float64) {
		var sum, n float64
		for _, s := range g.shards {
			h := hist(s)
			c := float64(h.Count())
			sum += h.Sum()
			p99 += h.Quantile(0.99) * c
			n += c
		}
		if n == 0 {
			return 0, 0
		}
		return sum / n, p99 / n
	}
	nmMean, nmP99 = merge(func(s *Server) *telemetry.Histogram { return s.metrics.nmHeartbeat })
	amMean, amP99 = merge(func(s *Server) *telemetry.Histogram { return s.metrics.amHeartbeat })
	return nmMean, nmP99, amMean, amP99
}

// JournalStats reports the log's activity: records appended and
// checkpoints taken by this incarnation. It flushes the log's queue
// first so the counts reflect every transition journaled so far. ok is
// false when journaling is off.
func (g *Sharded) JournalStats() (appends, snapshots uint64, ok bool) {
	if g.wal == nil {
		return 0, 0, false
	}
	if err := g.wal.Sync(); err != nil {
		g.log.Printf("rm: journal sync: %v", err)
	}
	appends, snapshots, _ = g.wal.Stats()
	return appends, snapshots, true
}

// ClusterStatus merges every shard's status into one fleet-wide view:
// node sets are unioned (shards partition the ID space, so no
// collisions), fault logs are merged in time order (one RM clock stamps
// them all) and their eviction counts summed.
func (g *Sharded) ClusterStatus() wire.ClusterStatusReply {
	var merged wire.ClusterStatusReply
	for _, s := range g.shards {
		st := s.ClusterStatus()
		merged.Nodes += st.Nodes
		merged.Live = append(merged.Live, st.Live...)
		merged.Dead = append(merged.Dead, st.Dead...)
		merged.Faults = append(merged.Faults, st.Faults...)
		merged.DroppedFaults += st.DroppedFaults
	}
	sort.Ints(merged.Live)
	sort.Ints(merged.Dead)
	sort.SliceStable(merged.Faults, func(i, j int) bool {
		return merged.Faults[i].Time < merged.Faults[j].Time
	})
	return merged
}
