package rm

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
)

func newShardedServer(t *testing.T, shards int, cfg ShardedConfig) *Sharded {
	t.Helper()
	cfg.Shards = shards
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = tetrisScheduler
	}
	if cfg.NewEstimator == nil {
		cfg.NewEstimator = estimator.New
	}
	g, err := NewShardedInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// registerFleet registers n machines (IDs 0..n-1) of equal capacity and
// returns that capacity.
func registerFleet(t *testing.T, g *Sharded, n int) resources.Vector {
	t.Helper()
	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	for id := 0; id < n; id++ {
		g.RegisterMachine(id, cap)
	}
	return cap
}

// JobShard returns the shard a job was routed to, and whether the job
// is known.
func (g *Sharded) JobShard(jobID int) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.jobShard[jobID]
	return s, ok
}

// completeAll heartbeats every node, executing launches instantly, until
// no shard launches anything new. Returns the number of task executions.
func completeAll(t *testing.T, g *Sharded, nodes int) int {
	t.Helper()
	done := make(map[int][]wire.TaskCompletion) // node → completions to report
	executed := 0
	for round := 0; ; round++ {
		if round > 1000 {
			t.Fatal("fleet did not drain in 1000 rounds")
		}
		launched := 0
		for id := 0; id < nodes; id++ {
			reply := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id, Completed: done[id]})
			done[id] = nil
			if reply.Type == wire.TypeError {
				t.Fatalf("node %d heartbeat: %s", id, reply.Error)
			}
			for _, l := range reply.NMReply.Launch {
				launched++
				executed++
				done[id] = append(done[id], wire.TaskCompletion{
					Task: l.Task, Usage: l.Demand, Duration: l.Duration})
			}
		}
		pending := 0
		for id := 0; id < nodes; id++ {
			pending += len(done[id])
		}
		if launched == 0 && pending == 0 {
			return executed
		}
	}
}

// TestShardedLifecycle runs jobs through a 2-shard RM in-process: every
// job must finish, tasks must run only on the owning shard's machines,
// and every shard ledger must verify clean.
func TestShardedLifecycle(t *testing.T) {
	g := newShardedServer(t, 2, ShardedConfig{})
	registerFleet(t, g, 4)

	const jobs, tasksPer = 6, 3
	for id := 0; id < jobs; id++ {
		if err := g.SubmitJob(simpleJob(id, tasksPer)); err != nil {
			t.Fatal(err)
		}
	}
	executed := completeAll(t, g, 4)
	if want := jobs * tasksPer; executed != want {
		t.Fatalf("executed %d tasks, want %d", executed, want)
	}
	for id := 0; id < jobs; id++ {
		am := g.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: id})
		if am.AMReply == nil || !am.AMReply.Finished {
			t.Fatalf("job %d not finished: %+v", id, am)
		}
		shard, ok := g.JobShard(id)
		if !ok {
			t.Fatalf("job %d has no shard", id)
		}
		// The owning shard must know the job; the other must not.
		other := 1 - shard
		if r := g.Shard(other).HandleAMHeartbeat(&wire.AMHeartbeat{JobID: id}); r.Type != wire.TypeError {
			t.Fatalf("job %d leaked to shard %d", id, other)
		}
	}
	if err := g.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWireProtocol checks sharding is invisible at the socket:
// register, submit, heartbeat and status are keyed on the payload's
// node/job ID and answered by whichever shard owns it.
func TestShardedWireProtocol(t *testing.T) {
	cfg := ShardedConfig{
		Shards:       2,
		NewScheduler: tetrisScheduler,
	}
	g, err := NewSharded("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	conn, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	framer := wire.NewFramer(wire.CodecJSON)
	rpc := func(m *wire.Message) *wire.Message {
		t.Helper()
		if err := framer.Write(conn, m); err != nil {
			t.Fatal(err)
		}
		r, err := framer.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	cap := resources.New(16, 32, 200, 200, 1000, 1000)
	for id := 0; id < 2; id++ {
		r := rpc(&wire.Message{Type: wire.TypeRegisterNM,
			RegisterNM: &wire.RegisterNM{NodeID: id, Capacity: cap}})
		if r.Type != wire.TypeNMReply {
			t.Fatalf("register reply = %+v", r)
		}
	}
	r := rpc(&wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: simpleJob(0, 2)}})
	if r.Type != wire.TypeAMReply || r.AMReply.Total != 2 {
		t.Fatalf("submit reply = %+v", r)
	}
	launched := 0
	for id := 0; id < 2; id++ {
		r = beatReply(rpc(beatFrame(wire.NMHeartbeat{NodeID: id})))
		if r.Type != wire.TypeNMReply {
			t.Fatalf("heartbeat reply = %+v", r)
		}
		launched += len(r.NMReply.Launch)
	}
	if launched != 2 {
		t.Fatalf("launched %d tasks over the wire, want 2", launched)
	}
	r = rpc(&wire.Message{Type: wire.TypeClusterStatus})
	if r.Type != wire.TypeClusterStatusReply || r.ClusterStatus.Nodes != 2 || len(r.ClusterStatus.Live) != 2 {
		t.Fatalf("status reply = %+v", r)
	}
}

// TestShardedRoutingPinned asserts a job ID keeps its shard across
// resubmission, and that conflicting definitions are still rejected by
// the owning shard.
func TestShardedRoutingPinned(t *testing.T) {
	g := newShardedServer(t, 4, ShardedConfig{})
	registerFleet(t, g, 8)
	if err := g.SubmitJob(simpleJob(3, 2)); err != nil {
		t.Fatal(err)
	}
	first, _ := g.JobShard(3)
	if err := g.SubmitJob(simpleJob(3, 2)); err != nil {
		t.Errorf("idempotent resubmission rejected: %v", err)
	}
	if again, _ := g.JobShard(3); again != first {
		t.Errorf("resubmission moved job from shard %d to %d", first, again)
	}
	if err := g.SubmitJob(simpleJob(3, 5)); err == nil {
		t.Error("conflicting definition accepted")
	}
}

// TestShardedSpreadsLoad checks the router actually uses multiple shards
// for a stream of identical jobs on an idle fleet (tie-breaking by
// active-job count degrades to balance, not a hot shard).
func TestShardedSpreadsLoad(t *testing.T) {
	g := newShardedServer(t, 4, ShardedConfig{})
	registerFleet(t, g, 8)
	used := make(map[int]int)
	for id := 0; id < 8; id++ {
		if err := g.SubmitJob(simpleJob(id, 2)); err != nil {
			t.Fatal(err)
		}
		shard, _ := g.JobShard(id)
		used[shard]++
	}
	if len(used) < 2 {
		t.Fatalf("8 jobs all routed to one shard: %v", used)
	}
}

// TestShardedMetricsLabeled asserts shard cores sharing one registry
// expose disjoint per-shard series plus the top-layer routing counters.
func TestShardedMetricsLabeled(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := newShardedServer(t, 2, ShardedConfig{Metrics: reg})
	registerFleet(t, g, 4)
	if err := g.SubmitJob(simpleJob(0, 2)); err != nil {
		t.Fatal(err)
	}
	completeAll(t, g, 4)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`tetris_rm_nodes_total{shard="0"} 2`,
		`tetris_rm_nodes_total{shard="1"} 2`,
		`tetris_rm_schedule_round_seconds_count{shard="0"}`,
		`tetris_rm_schedule_round_seconds_count{shard="1"}`,
		`tetris_rm_shards 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(out, `tetris_rm_routed_jobs_total{shard="0"} 1`) &&
		!strings.Contains(out, `tetris_rm_routed_jobs_total{shard="1"} 1`) {
		t.Errorf("no shard shows the routed job:\n%s", out)
	}
}

// TestShardedJournalRecovery restarts a journaled 2-shard RM and checks
// the job→shard table and per-shard ledgers come back.
func TestShardedJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Sharded {
		g, err := NewShardedInProcess(ShardedConfig{
			Shards:       2,
			NewScheduler: tetrisScheduler,
			JournalDir:   dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := mk()
	registerFleet(t, g, 4)
	for id := 0; id < 4; id++ {
		if err := g.SubmitJob(simpleJob(id, 2)); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[int]int)
	for id := 0; id < 4; id++ {
		want[id], _ = g.JobShard(id)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := mk()
	defer g2.Close()
	for id, shard := range want {
		got, ok := g2.JobShard(id)
		if !ok || got != shard {
			t.Errorf("job %d: recovered shard %d (known=%v), want %d", id, got, ok, shard)
		}
	}
	if err := g2.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCloseSeversConnections: Close must not wait out ConnTimeout
// (2 minutes by default) on a peer that is connected but silent.
func TestShardedCloseSeversConnections(t *testing.T) {
	g, err := NewSharded("127.0.0.1:0", ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One round trip, so the handler is known to be parked in its next
	// read when Close runs.
	framer := wire.NewFramer(wire.CodecJSON)
	if err := framer.Write(conn, &wire.Message{Type: wire.TypeClusterStatus}); err != nil {
		t.Fatal(err)
	}
	if _, err := framer.Read(conn); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close blocked on an idle client connection")
	}
	if _, err := framer.Read(conn); err == nil {
		t.Fatal("connection still open after Close")
	}
}

// journaledSharded opens an in-process RM journaling under dir.
func journaledSharded(dir string, shards int) (*Sharded, error) {
	return NewShardedInProcess(ShardedConfig{Shards: shards, NewScheduler: tetrisScheduler, JournalDir: dir})
}

// TestJournalLayoutTopLevelFilesRejected: journal files directly under
// JournalDir (the single-journal layout) would be silently ignored, so
// the RM must refuse to start and name the file; after the operator
// moves them into shard-0/ the state recovers.
func TestJournalLayoutTopLevelFilesRejected(t *testing.T) {
	dir := t.TempDir()
	g, err := journaledSharded(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SubmitJob(simpleJob(7, 2)); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	// Recreate the single-journal layout: the shard's files at top level.
	files, err := filepath.Glob(filepath.Join(dir, "shard-0", "*.dat"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no journal files under shard-0 (%v)", err)
	}
	for _, f := range files {
		if err := os.Rename(f, filepath.Join(dir, filepath.Base(f))); err != nil {
			t.Fatal(err)
		}
	}
	_, err = journaledSharded(dir, 1)
	var layout *ErrJournalLayout
	if !errors.As(err, &layout) {
		t.Fatalf("open over top-level journal files: err = %v, want ErrJournalLayout", err)
	}
	if filepath.Dir(layout.Path) != dir || filepath.Ext(layout.Path) != ".dat" {
		t.Fatalf("ErrJournalLayout names %q, want a .dat file directly under %q", layout.Path, dir)
	}
	// The operator fix: mv dir/*.dat dir/shard-0/.
	for _, f := range files {
		if err := os.Rename(filepath.Join(dir, filepath.Base(f)), f); err != nil {
			t.Fatal(err)
		}
	}
	g2, err := journaledSharded(dir, 1)
	if err != nil {
		t.Fatalf("reopen after moving files into shard-0: %v", err)
	}
	defer g2.Close()
	if shard, ok := g2.JobShard(7); !ok || shard != 0 {
		t.Fatalf("job 7 not recovered (shard %d, known %v)", shard, ok)
	}
}

// TestJournalLayoutExtraShardRejected: the log records the shard count
// that wrote it. Reopening it with fewer shards would drop the extra
// shards' jobs and machines; with more, the static node partition would
// send a recovered node's beats to a shard that never heard of it while
// its old shard kept it as a ghost. Either is refused with
// ErrJournalLayout naming the directory, as is a shard-1 directory of an
// older build's per-shard journals.
func TestJournalLayoutExtraShardRejected(t *testing.T) {
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	for _, c := range []struct{ wrote, reopen int }{{2, 1}, {1, 2}} {
		dir := t.TempDir()
		g, err := journaledSharded(dir, c.wrote)
		if err != nil {
			t.Fatal(err)
		}
		g.RegisterMachine(0, capV)
		g.RegisterMachine(1, capV)
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		g, err = journaledSharded(dir, c.reopen)
		var layout *ErrJournalLayout
		if !errors.As(err, &layout) || g != nil {
			t.Fatalf("%d-shard open of a %d-shard log: err = %v, want ErrJournalLayout", c.reopen, c.wrote, err)
		}
		if layout.Path != dir {
			t.Fatalf("ErrJournalLayout names %q, want %q", layout.Path, dir)
		}
		// The shard count that wrote the log still opens it.
		g, err = journaledSharded(dir, c.wrote)
		if err != nil {
			t.Fatalf("%d-shard reopen: %v", c.wrote, err)
		}
		if n := g.ClusterStatus().Nodes; n != 2 {
			t.Errorf("%d-shard reopen recovered %d machines, want 2", c.wrote, n)
		}
		g.Close()
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "shard-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := journaledSharded(dir, 2)
	var layout *ErrJournalLayout
	if !errors.As(err, &layout) || layout.Path != filepath.Join(dir, "shard-1") {
		t.Fatalf("open over an older build's shard-1: err = %v, want ErrJournalLayout naming it", err)
	}
}
