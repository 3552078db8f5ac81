package rm

// Sharded is the resource manager's front door for any shard count
// N ≥ 1: N independent shard cores (*Server), each owning a disjoint
// partition of the machine fleet and running the scheduling core
// against its own free ledger, behind a thin top layer that owns the
// listener and does wire decode → validation → admission → shard
// routing → dispatch. Each shard has its own lock: heartbeats from
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

// ShardedConfig parameterizes the RM. Per-shard knobs mirror Config;
// the factories exist because shard cores must not share mutable
// scheduler or estimator state.
type ShardedConfig struct {
	// Shards is the number of scheduler shards (≥ 1).
	Shards int
	// NewScheduler builds one shard's placement policy (required; called
	// once per shard — cores must not share scheduler state).
	NewScheduler func() scheduler.Scheduler
	// NewEstimator optionally builds one shard's demand estimator.
	NewEstimator func() *estimator.Estimator
	// NodeTimeout, MaxTaskAttempts: as in Config, applied per shard.
	NodeTimeout     time.Duration
	MaxTaskAttempts int
	// JournalDir enables per-shard write-ahead journaling under
	// JournalDir/shard-<i>. Recovery also rebuilds the top layer's
	// job→shard routing table from the recovered shard states.
	JournalDir    string
	JournalSync   journal.SyncPolicy
	SnapshotEvery int
	FaultLogCap   int
	// Gang enables gang scheduling per shard (see Config.Gang): each
	// shard core wraps its scheduler in its own coordinator, and the
	// router pins every gang to one shard whose aggregate capacity can
	// co-hold its quorum.
	Gang *gang.Config
	// Metrics receives every shard's telemetry, each series tagged
	// shard="<i>", plus the top layer's routing metrics.
	Metrics *telemetry.Registry
	Logger  *log.Logger
	// Admission enables the multi-tenant front door (admission.go):
	// submissions are gated (quota/rate/shed) once, before routing, with
	// typed wire.SubmitReject answers, and all shard cores share the same
	// tenant accounting so per-tenant state is global even though jobs
	// scatter across shard journals. Nil admits everything.
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

	routedJobs []*telemetry.Counter // per-shard admission counts
	fallbacks  *telemetry.Counter   // jobs routed with no feasible shard

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewSharded creates a resource manager listening on addr ("host:port";
// use "127.0.0.1:0" for an ephemeral port). With cfg.JournalDir set,
// each shard recovers from its own journal before serving and the
// job→shard table is rebuilt from the recovered shards.
func NewSharded(addr string, cfg ShardedConfig) (*Sharded, error) {
	g, err := newShardedCore(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		g.closeShards()
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
		// Built before any shard core so journal recovery inside newCore
		// re-adopts recovered jobs into the shared tenant accounting.
		g.adm = newAdmission(*cfg.Admission, cfg.Metrics)
	}
	if g.cfg.ConnTimeout == 0 {
		g.cfg.ConnTimeout = 2 * time.Minute
	}
	clock := cfg.clock
	if clock == nil {
		clock = new(wallClock)
	}
	if cfg.JournalDir != "" {
		if err := checkJournalLayout(cfg.JournalDir, cfg.Shards); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sc := Config{
			Scheduler:       cfg.NewScheduler(),
			NodeTimeout:     cfg.NodeTimeout,
			MaxTaskAttempts: cfg.MaxTaskAttempts,
			JournalSync:     cfg.JournalSync,
			SnapshotEvery:   cfg.SnapshotEvery,
			FaultLogCap:     cfg.FaultLogCap,
			Metrics:         cfg.Metrics,
			ShardLabel:      strconv.Itoa(i),
			Logger:          cfg.Logger,
			Gang:            cfg.Gang,
			sharedAdmission: g.adm,
			clock:           clock,
		}
		if cfg.NewEstimator != nil {
			sc.Estimator = cfg.NewEstimator()
		}
		if cfg.JournalDir != "" {
			sc.JournalDir = filepath.Join(cfg.JournalDir, fmt.Sprintf("shard-%d", i))
		}
		core, err := newCore(sc)
		if err != nil {
			g.closeShards()
			return nil, fmt.Errorf("rm: sharded: shard %d: %w", i, err)
		}
		g.shards = append(g.shards, core)
		// Rebuild routing for jobs the shard's journal recovered.
		for _, id := range core.JobIDs() {
			if prev, ok := g.jobShard[id]; ok && prev != i {
				g.closeShards()
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
	for _, s := range g.shards {
		if s.jnl != nil {
			s.resume()
		}
	}
	if reg := cfg.Metrics; reg != nil {
		for i := range g.shards {
			g.routedJobs = append(g.routedJobs, reg.Counter(
				telemetry.Label("tetris_rm_routed_jobs_total", "shard", strconv.Itoa(i)),
				"Jobs the top-layer router admitted to the shard."))
		}
		g.fallbacks = reg.Counter("tetris_rm_route_fallbacks_total",
			"Jobs routed while no shard had a machine fitting their largest task.")
		reg.GaugeFunc("tetris_rm_shards", "Scheduler shards behind the RM front door.",
			func() float64 { return float64(len(g.shards)) })
	} else {
		for range g.shards {
			g.routedJobs = append(g.routedJobs, &telemetry.Counter{})
		}
		g.fallbacks = &telemetry.Counter{}
	}
	return g, nil
}

// ErrJournalLayout reports state under ShardedConfig.JournalDir that the
// configured shard count would start without. The RM fails closed; the
// operator moves or removes Path.
type ErrJournalLayout struct {
	Path   string // the offending entry
	Reason string
}

func (e *ErrJournalLayout) Error() string {
	return fmt.Sprintf("rm: journal layout: %s: %s", e.Path, e.Reason)
}

// checkJournalLayout rejects a journal directory holding journal files at
// its top level (a single-journal layout; fix: mv dir/*.dat dir/shard-0/)
// or a shard-<k> directory with k ≥ shards (written by a run with more
// shards). Shard cores only ever open dir/shard-<i> for i < shards, so
// either would be silently ignored.
func checkJournalLayout(dir string, shards int) error {
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
				return &ErrJournalLayout{Path: path, Reason: "journal file outside a shard-<i> directory (move it into shard-0/)"}
			}
			continue
		}
		if k, ok := strings.CutPrefix(e.Name(), "shard-"); ok {
			if i, err := strconv.Atoi(k); err == nil && i >= shards {
				return &ErrJournalLayout{Path: path, Reason: fmt.Sprintf("shard journal beyond the %d configured shard(s)", shards)}
			}
		}
	}
	return nil
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

func (g *Sharded) closeShards() {
	for _, s := range g.shards {
		s.Close()
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
// handlers and the sweeper, and closes every shard (flushing its
// journal, if any).
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
	for _, s := range g.shards {
		if serr := s.Close(); err == nil {
			err = serr
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
	for {
		// Read/write deadlines: a stalled or half-dead peer times out and
		// the connection drops — NMs/AMs recover through their redial and
		// resync paths, and no handler goroutine is wedged forever.
		armDeadline(conn, g.cfg.ConnTimeout)
		m, err := framer.Read(conn)
		if err != nil {
			return // peer closed, stalled past the deadline, or protocol error
		}
		reply, _ := g.Call(m)
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
// *Sharded and *wire.Conn are the same kind of thing to a client.
func (g *Sharded) Call(m *wire.Message) (*wire.Message, error) {
	var reply *wire.Message
	switch m.Type {
	case wire.TypeRegisterNM:
		if m.RegisterNM == nil {
			reply = errMsg("missing registerNM payload")
		} else {
			reply = g.nodeShard(m.RegisterNM.NodeID).handleRegisterNM(m.RegisterNM)
		}
	case wire.TypeNMHeartbeat:
		reply = g.HandleNMHeartbeat(m.NMHeartbeat)
	case wire.TypeHeartbeatBatch:
		reply = g.HandleHeartbeatBatch(m.HeartbeatBatch)
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
	return reply, nil
}

// armDeadline sets the connection's absolute I/O deadline d from now
// (no-op when deadlines are disabled with a negative timeout).
func armDeadline(conn net.Conn, d time.Duration) {
	if d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}
}

// HandleHeartbeatBatch splits a multi-node heartbeat frame by owning
// shard and fans the groups out concurrently: each shard core absorbs
// its nodes' beats (and runs whatever rounds they make due) in parallel
// with the other shards, which is what makes one shared connection
// carrying thousands of nodes scale past a single core. A shard is
// entered once per frame — one lock hold for its whole group
// (Server.handleBeats) — and writes each node's verdict into that beat's
// entry, so entries stay in beat order and each carries exactly what the
// node would have received on its own connection — an NMReply or a typed
// error string — leaving sender-side DeltaTracker baseline-advance
// semantics unchanged by batching.
func (g *Sharded) HandleHeartbeatBatch(b *wire.HeartbeatBatch) *wire.Message {
	entries := make([]wire.NMBeatReply, len(b.Beats))
	groups := make([][]int, len(g.shards))
	for i := range b.Beats {
		si := g.shardIndex(b.Beats[i].NodeID)
		groups[si] = append(groups[si], i)
	}
	var wg sync.WaitGroup
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *Server) {
			defer wg.Done()
			s.handleBeats(b.Beats, idxs, entries)
		}(g.shards[si])
	}
	wg.Wait()
	return &wire.Message{Type: wire.TypeHeartbeatBatchReply,
		HeartbeatBatchReply: &wire.HeartbeatBatchReply{Replies: entries}}
}

// HandleNMHeartbeat dispatches a node heartbeat to the node's shard,
// which absorbs the report and runs a scheduling round if one is due.
// Exported for in-process drivers; shard cores never contend on a shared
// lock here, which is where the beats/sec scaling comes from.
func (g *Sharded) HandleNMHeartbeat(hb *wire.NMHeartbeat) *wire.Message {
	if hb == nil {
		return errMsg("missing nmHeartbeat payload")
	}
	return g.nodeShard(hb.NodeID).HandleNMHeartbeat(hb)
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
			JobID: r.Job.ID, Tenant: r.Tenant, Code: wire.RejectInvalid,
			Reason: fmt.Sprintf("invalid job: %v", err),
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
		if rej := g.adm.admit(r.Tenant, r.Job.ID, jobDemand(r.Job)); rej != nil {
			return rejectMsg(rej)
		}
		reserved = true
	}
	return g.shards[g.routeJob(r.Job)].submit(r.Job, r.Tenant, reserved)
}

// handleSubmitBatch is the bulk-ingest path: each job is validated,
// gated, routed and applied on its shard independently; their submit
// events stream to the shard journals' writer goroutines. Then every
// shard that accepted work gets one journal barrier — one fsync per
// (batch, shard) pair — all issued, in shard order, before any is waited
// on: each shard journals to its own file, so the fsyncs overlap and a
// batch pays about one fsync latency. That makes an acked batch stronger
// than an acked single submit (whose append is asynchronous under the
// interval fsync policy) while paying the fsync once per batch instead
// of once per job. A failed barrier fails the whole batch closed: the
// reply is an error naming the shard, never an admit of jobs that may
// not survive a crash. The jobs stay applied and pinned, so resubmitting
// the same IDs is idempotent and is acked once a barrier succeeds.
func (g *Sharded) handleSubmitBatch(r *wire.SubmitBatch) *wire.Message {
	if r == nil || len(r.Jobs) == 0 {
		return errMsg("missing or empty submitBatch payload")
	}
	reply := &wire.SubmitBatchReply{Results: make([]wire.SubmitResult, 0, len(r.Jobs))}
	touched := make([]bool, len(g.shards))
	for _, j := range r.Jobs {
		if j == nil {
			reply.Results = append(reply.Results, wire.SubmitResult{Reject: &wire.SubmitReject{
				Tenant: r.Tenant, Code: wire.RejectInvalid, Reason: "missing job in batch",
			}})
			continue
		}
		m := g.handleSubmitJob(&wire.SubmitJob{Job: j, Tenant: r.Tenant})
		res := wire.SubmitResult{JobID: j.ID}
		switch m.Type {
		case wire.TypeAMReply:
			res.Total = m.AMReply.Total
			if shard, ok := g.JobShard(j.ID); ok {
				touched[shard] = true
			}
		case wire.TypeSubmitReject:
			res.Reject = m.SubmitReject
		default:
			res.Reject = &wire.SubmitReject{JobID: j.ID, Tenant: r.Tenant, Code: wire.RejectInvalid, Reason: m.Error}
		}
		reply.Results = append(reply.Results, res)
	}
	if g.adm != nil {
		g.adm.batches.Inc()
		g.adm.batchJobs.Add(uint64(len(r.Jobs)))
	}
	acks := make([]<-chan error, len(g.shards))
	for shard, t := range touched {
		if t {
			acks[shard] = g.shards[shard].journalBarrier()
		}
	}
	var failed []string
	for shard, ack := range acks {
		if ack == nil {
			continue
		}
		if err := <-ack; err != nil {
			failed = append(failed, fmt.Sprintf("shard %d: %v", shard, err))
		}
	}
	if len(failed) > 0 {
		msg := "batch not durable, journal barrier failed on " + strings.Join(failed, "; ")
		g.log.Printf("rm: sharded: %s", msg)
		return errMsg(msg)
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

// JobShard returns the shard a job was routed to, and whether the job
// is known.
func (g *Sharded) JobShard(jobID int) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.jobShard[jobID]
	return s, ok
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

// JournalStats sums journaling activity across shards; ok is false when
// journaling is off.
func (g *Sharded) JournalStats() (appends, snapshots uint64, ok bool) {
	for _, s := range g.shards {
		a, sn, on := s.JournalStats()
		if !on {
			return 0, 0, false
		}
		appends += a
		snapshots += sn
	}
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
