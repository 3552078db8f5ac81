package rm

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Every number that enters the RM is non-negative and at most
// resources.MaxAmount: one NaN capacity or demand compares false against
// everything, so the next round's argmax finds no candidate and the core
// panics under the shard lock — and a journaled registration re-arms
// that on every restart. A huge finite one overflows a sum or the
// estimator's variance to +Inf, which the next snapshot writes and the
// journal reader refuses.

// honestRound checks that a fleet of node 0 alone still schedules: a job
// submitted now runs to completion and the ledger balances.
func honestRound(t *testing.T, g *Sharded, jobID int) {
	t.Helper()
	if err := g.SubmitJob(simpleJob(jobID, 4)); err != nil {
		t.Fatal(err)
	}
	if n := completeAll(t, g, 1); n != 4 {
		t.Fatalf("honest node ran %d tasks, want 4", n)
	}
	if err := g.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterRefusesNonFiniteCapacity(t *testing.T) {
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	for i, bad := range []float64{math.NaN(), math.Inf(1), -1, 1e200} {
		g := newShardedServer(t, 1, ShardedConfig{})
		g.RegisterMachine(0, capV)
		reply, _ := g.Call(&wire.Message{Type: wire.TypeRegisterNM, RegisterNM: &wire.RegisterNM{
			NodeID: 1, Capacity: capV.With(resources.Memory, bad)}})
		if reply.Type != wire.TypeError {
			t.Errorf("capacity with memory %v: %+v, want refused", bad, reply)
		}
		if live := g.LiveNodes(); live != 1 {
			t.Errorf("capacity with memory %v: %d live nodes, want 1", bad, live)
		}
		honestRound(t, g, i)
	}
}

func TestSubmitRefusesNonFiniteJob(t *testing.T) {
	g := newShardedServer(t, 1, ShardedConfig{})
	g.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	for i, mutate := range []func(*workload.Job, *workload.Task){
		func(_ *workload.Job, t *workload.Task) { t.Peak = t.Peak.With(resources.CPU, math.NaN()) },
		func(_ *workload.Job, t *workload.Task) { t.Peak = t.Peak.With(resources.Memory, math.Inf(1)) },
		func(_ *workload.Job, t *workload.Task) { t.Peak = t.Peak.With(resources.Memory, 1e200) },
		func(_ *workload.Job, t *workload.Task) { t.Work.CPUSeconds = math.Inf(1) },
		func(_ *workload.Job, t *workload.Task) { t.Work.CPUSeconds = math.NaN() },
		func(j *workload.Job, _ *workload.Task) { j.Arrival = math.NaN() },
		func(j *workload.Job, _ *workload.Task) { j.Arrival = math.Inf(-1) },
		func(j *workload.Job, _ *workload.Task) { j.Weight = 1e200 },
	} {
		j := simpleJob(100+i, 2)
		mutate(j, j.Stages[0].Tasks[1])
		if err := g.SubmitJob(j); err == nil {
			t.Errorf("case %d: job (arrival %v, weight %v) with task %+v admitted", i, j.Arrival, j.Weight, *j.Stages[0].Tasks[1])
		}
	}
	honestRound(t, g, 1)
}

func TestBeatRefusesNonFiniteReport(t *testing.T) {
	g := newShardedServer(t, 1, ShardedConfig{})
	g.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	if err := g.SubmitJob(simpleJob(1, 1)); err != nil {
		t.Fatal(err)
	}
	launch := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0}).NMReply.Launch
	if len(launch) != 1 {
		t.Fatalf("launched %d tasks, want 1", len(launch))
	}
	tid := launch[0].Task
	for _, hb := range []wire.NMHeartbeat{
		{NodeID: 0, Used: resources.New(math.NaN(), 0, 0, 0, 0, 0)},
		{NodeID: 0, Used: resources.New(-1, 0, 0, 0, 0, 0)},
		{NodeID: 0, Completed: []wire.TaskCompletion{{Task: tid, Usage: resources.New(math.Inf(1), 0, 0, 0, 0, 0), Duration: 1}}},
		{NodeID: 0, Completed: []wire.TaskCompletion{{Task: tid, Duration: math.NaN()}}},
		{NodeID: 0, Completed: []wire.TaskCompletion{{Task: tid, Duration: 1e200}}},
	} {
		if reply := g.HandleNMHeartbeat(&hb); reply.Type != wire.TypeError {
			t.Errorf("beat %+v: %+v, want refused", hb, reply)
		}
	}
	reply := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: []wire.TaskCompletion{{Task: tid, Duration: 1}}})
	if reply.Type != wire.TypeNMReply {
		t.Fatalf("honest completion: %+v", reply)
	}
	if err := g.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRefusesNonFiniteRegistration: a journal holding a
// registration with a NaN capacity — what an RM that accepted one wrote —
// is refused at startup as corrupt, instead of replaying the registration
// into every restarted RM.
func TestReplayRefusesNonFiniteRegistration(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "shard-0")})
	if err != nil {
		t.Fatal(err)
	}
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	jnl.Append(appendEvent(nil, &event{Kind: evRegister, Node: 0, Capacity: capV}))
	jnl.Append(appendEvent(nil, &event{Kind: evRegister, Node: 1, Capacity: capV.With(resources.CPU, math.NaN())}))
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := NewShardedInProcess(ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler, JournalDir: dir})
	if err == nil {
		g.Close()
		t.Fatal("an RM started on a journal holding a NaN capacity")
	}
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("got %v, want ErrJournalCorrupt", err)
	}
}

// TestHugeCompletionsRestart: the estimator's running variance over
// completions of durations 1e200 and 0 is +Inf, so an RM that accepted
// them would snapshot a journal it refuses to restart from. They are
// refused at the beat; the widest spread the bound admits, MaxAmount and
// 0 in duration and usage, snapshots and restarts to the same state.
func TestHugeCompletionsRestart(t *testing.T) {
	dir := t.TempDir()
	g := journaledServer(t, dir, 1) // snapshot after every record
	g.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))
	if err := g.SubmitJob(simpleJob(1, 2)); err != nil {
		t.Fatal(err)
	}
	launch := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0}).NMReply.Launch
	if len(launch) != 2 {
		t.Fatalf("launched %d tasks, want 2", len(launch))
	}
	huge := []wire.TaskCompletion{
		{Task: launch[0].Task, Duration: 1e200},
		{Task: launch[1].Task, Usage: resources.New(1e200, 0, 0, 0, 0, 0)},
	}
	for _, c := range huge {
		if reply := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: []wire.TaskCompletion{c}}); reply.Type != wire.TypeError {
			t.Errorf("completion %+v: %+v, want refused", c, reply)
		}
	}
	widest := []wire.TaskCompletion{
		{Task: launch[0].Task, Usage: resources.New(resources.MaxAmount, 0, 0, 0, 0, 0), Duration: resources.MaxAmount},
		{Task: launch[1].Task, Duration: 0},
	}
	if reply := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: widest}); reply.Type != wire.TypeNMReply {
		t.Fatalf("completions at the bound: %+v", reply)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	want := g.Shard(0).StateDigest()
	g2 := journaledServer(t, dir, 1)
	if got := g2.Shard(0).RecoveredDigest(); !bytes.Equal(want, got) {
		t.Fatalf("recovered state diverges:\n pre-crash: %s\n recovered: %s", want, got)
	}
}
