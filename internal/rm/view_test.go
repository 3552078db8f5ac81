package rm

// Tests for the persistent scheduling view and the round triggers
// (view.go): the view never drifts, a skipped round is a no-op, the
// interval floor keeps clock-driven guards ticking, and a beat that
// changes nothing costs the same whatever the fleet size.

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// sweep sends one heartbeat per node 0..nodes-1, in node order.
func sweep(t testing.TB, g *Sharded, nodes int, delta bool) {
	t.Helper()
	for id := 0; id < nodes; id++ {
		if r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id, Delta: delta}); r.Type == wire.TypeError {
			t.Fatalf("node %d: %s", id, r.Error)
		}
	}
}

// roundsRun returns how many scheduling rounds shard i has run.
func roundsRun(g *Sharded, i int) uint64 {
	s := g.Shard(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// TestRoutingSummaryBitStable: the router's inputs are float sums, and
// summed in map order they differed in the last bits from call to call
// on an unchanged shard. Non-dyadic capacities, usage reports and task
// volumes make any reordering visible.
func TestRoutingSummaryBitStable(t *testing.T) {
	g := newQualitySharded(t, 1)
	const nodes = 16
	for id := 0; id < nodes; id++ {
		f := float64(id)
		g.RegisterMachine(id, resources.New(16.1+0.3*f, 32.7+0.1*f, 200.3, 199.9, 1000.7, 999.1))
		g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id, Used: resources.New(0.1+0.07*f, 0.3+0.011*f, 1.1, 0.7, 3.3, 0.9)})
	}
	for id := 0; id < 12; id++ {
		j := &workload.Job{ID: id, Weight: 1}
		st := &workload.Stage{Name: "s"}
		for i := 0; i < 40; i++ {
			cpu := 1.3 + 0.1*float64((id+i)%7)
			st.Tasks = append(st.Tasks, &workload.Task{
				ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
				Peak: resources.New(cpu, 2.7+0.3*float64(i%5), 0.9, 0.3, 0, 0),
				Work: workload.Work{CPUSeconds: 7.7 * cpu},
			})
		}
		j.Stages = []*workload.Stage{st}
		if err := g.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	sweep(t, g, nodes, true) // place what fits, so Free is a sum of differences
	first := g.Shard(0).RoutingSummary()
	if first.ActiveJobs < 8 || first.PendingWork == 0 || first.Free.IsZero() {
		t.Fatalf("degenerate summary: %+v", first)
	}
	for i := 0; i < 200; i++ {
		v := g.Shard(0).RoutingSummary()
		if math.Float64bits(v.PendingWork) != math.Float64bits(first.PendingWork) ||
			!v.Free.SameBits(first.Free) || !v.Capacity.SameBits(first.Capacity) {
			t.Fatalf("call %d differs from the first on an unchanged shard:\n pending %x vs %x\n free %v vs %v",
				i, math.Float64bits(v.PendingWork), math.Float64bits(first.PendingWork), v.Free, first.Free)
		}
	}
}

// sweepRecorder drives a 1-shard RM for replayQuality and keeps its
// ledger digest at the end of each sweep. With roundEveryBeat it marks
// the shard dirty before every beat, so every beat runs a round — the
// cadence of the RM before rounds were event-driven.
type sweepRecorder struct {
	*Sharded
	roundEveryBeat bool
	nodes          int
	beats          int
	sweepState     [][]byte
}

func (r *sweepRecorder) HandleNMHeartbeat(hb *wire.NMHeartbeat) *wire.Message {
	s := r.Shard(0)
	if r.roundEveryBeat {
		s.mu.Lock()
		s.dirty = causeNode
		s.mu.Unlock()
	}
	reply := r.Sharded.HandleNMHeartbeat(hb)
	if r.beats++; r.beats%r.nodes == 0 {
		r.sweepState = append(r.sweepState, ledgerDigest(s))
	}
	return reply
}

// TestEventDrivenRoundsEquivalence: for a policy without clock or
// rotating state (no input blocks, starvation horizon 1e9), running a
// round only when roundDue says so decides exactly what running one on
// every beat decides — same ledgers after every sweep, same finish
// sweep for every job, same final state — in fewer rounds. The twins
// share one virtual clock, so their state digests compare as they are.
func TestEventDrivenRoundsEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := makeQualityWorkload(seed, 8, 24)
		clock := new(virtualClock)
		cfg := ShardedConfig{Shards: 1, NewScheduler: qualityScheduler}
		lazy := &sweepRecorder{Sharded: newVirtualSharded(t, cfg, clock), nodes: w.nodes}
		eager := &sweepRecorder{Sharded: newVirtualSharded(t, cfg, clock), nodes: w.nodes, roundEveryBeat: true}
		got, want := replayQuality(t, lazy, w), replayQuality(t, eager, w)

		if len(got.finish) != len(w.jobs) || len(want.finish) != len(w.jobs) {
			t.Fatalf("seed %d: %d and %d of %d jobs finished", seed, len(got.finish), len(want.finish), len(w.jobs))
		}
		for id, r := range want.finish {
			if got.finish[id] != r {
				t.Errorf("seed %d: job %d finished in sweep %d, with a round on every beat in sweep %d", seed, id, got.finish[id], r)
			}
		}
		if len(lazy.sweepState) != len(eager.sweepState) {
			t.Fatalf("seed %d: %d sweeps vs %d", seed, len(lazy.sweepState), len(eager.sweepState))
		}
		for i := range eager.sweepState {
			if !bytes.Equal(lazy.sweepState[i], eager.sweepState[i]) {
				t.Fatalf("seed %d: ledgers diverge after sweep %d", seed, i)
			}
		}
		if !bytes.Equal(lazy.Shard(0).StateDigest(), eager.Shard(0).StateDigest()) {
			t.Errorf("seed %d: final state digests differ", seed)
		}
		for _, g := range []*Sharded{lazy.Sharded, eager.Sharded} {
			if err := g.VerifyLedger(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
		nLazy, nEager := roundsRun(lazy.Sharded, 0), roundsRun(eager.Sharded, 0)
		t.Logf("seed %d: %d beats, %d rounds event-driven, %d with a round per beat", seed, eager.beats, nLazy, nEager)
		if nLazy >= nEager {
			t.Errorf("seed %d: event-driven RM ran %d rounds, the every-beat twin %d: nothing was skipped", seed, nLazy, nEager)
		}
	}
}

// mostlyBusy registers two 16-core machines and puts one long-running
// 10-core task on each (two cannot share a machine), leaving room for one
// 6-core task per machine and for no 16-core task anywhere.
func mostlyBusy(t *testing.T, g *Sharded) {
	t.Helper()
	for id := 0; id < 2; id++ {
		g.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
	}
	filler := &workload.Job{ID: 1, Weight: 1}
	st := &workload.Stage{Name: "s"}
	for i := 0; i < 2; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: 1, Stage: 0, Index: i},
			Peak: resources.New(10, 20, 0, 0, 0, 0),
			Work: workload.Work{CPUSeconds: 1e7},
		})
	}
	filler.Stages = []*workload.Stage{st}
	if err := g.SubmitJob(filler); err != nil {
		t.Fatal(err)
	}
	sweep(t, g, 2, false)
	sweep(t, g, 2, true)
	s := g.Shard(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.nodes {
		if n.Allocated != resources.New(10, 20, 0, 0, 0, 0) {
			t.Fatalf("machine %d allocated %v, want one filler task", n.ID, n.Allocated)
		}
	}
}

// TestIntervalFloor: with no completions, no submissions and delta beats
// only — nothing that marks the shard dirty — the clock-driven guards of
// the wrapped policy still fire within one sweep of their deadline,
// because waiting runnable work earns one round per heartbeat interval;
// and it earns no more than that.
func TestIntervalFloor(t *testing.T) {
	const nodes = 2

	t.Run("starvation reservation", func(t *testing.T) {
		cfg := scheduler.DefaultTetrisConfig()
		cfg.StarvationSec = 30
		tet := scheduler.NewTetris(cfg)
		clock := new(virtualClock)
		g := newVirtualSharded(t, ShardedConfig{Shards: 1, NewScheduler: func() scheduler.Scheduler { return tet }}, clock)
		mostlyBusy(t, g)
		whale := &workload.Job{ID: 2, Weight: 1, Stages: []*workload.Stage{{Name: "s", Tasks: []*workload.Task{{
			ID:   workload.TaskID{Job: 2, Stage: 0, Index: 0},
			Peak: resources.New(16, 32, 0, 0, 0, 0),
			Work: workload.Work{CPUSeconds: 160},
		}}}}}
		if err := g.SubmitJob(whale); err != nil {
			t.Fatal(err)
		}
		sweep(t, g, nodes, true) // the submit's round: the whale is first seen, and does not fit

		before := roundsRun(g, 0)
		for i := 0; i < 5; i++ {
			sweep(t, g, nodes, true)
		}
		if n := roundsRun(g, 0) - before; n < 4 || n > 5 {
			t.Errorf("%d rounds in 5 idle sweeps with work waiting, want one per sweep", n)
		}
		if n := tet.Reservations().Len(); n != 0 {
			t.Fatalf("%d reservations before the starvation horizon", n)
		}

		clock.advance(31 * time.Second)
		sweep(t, g, nodes, true)
		starved := 0
		tet.Reservations().Each(func(_ int, r reserve.Reservation) {
			if r.Kind == reserve.Starved && r.Holder == 2 {
				starved++
			}
		})
		if starved != 1 {
			t.Errorf("%d machines reserved for the starved task one sweep past StarvationSec, want 1", starved)
		}
	})

	t.Run("gang hoard timeout", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		clock := new(virtualClock)
		tet := qualityScheduler().(*scheduler.Tetris)
		g := newVirtualSharded(t, ShardedConfig{
			Shards:       1,
			NewScheduler: func() scheduler.Scheduler { return tet },
			Gang:         &gang.Config{HoldSec: 30, PreemptSec: 1e9},
			Metrics:      reg,
		}, clock)
		mostlyBusy(t, g)
		// Three 6-core members against room for one on each machine: two
		// can be held, the quorum cannot commit, so the gang hoards.
		if err := g.SubmitJob(gangChaosJob(2, 3, 6, 12)); err != nil {
			t.Fatal(err)
		}
		sweep(t, g, nodes, true)
		releases := reg.Counter(telemetry.Label("tetris_rm_gang_releases_total", "shard", "0"), "")
		// held counts the machines hoarded for the gang.
		held := func() (machines int) {
			tet.Reservations().Each(func(_ int, r reserve.Reservation) {
				if r.Kind == reserve.Gang && r.Holder == 2 {
					machines++
				}
			})
			return machines
		}

		for i := 0; i < 5; i++ {
			sweep(t, g, nodes, true)
		}
		if m := held(); releases.Value() != 0 || m != 2 {
			t.Fatalf("before HoldSec: %d releases counted, %d machines held; want 0, 2", releases.Value(), m)
		}
		clock.advance(31 * time.Second)
		sweep(t, g, nodes, true)
		if m := held(); releases.Value() != 1 || m != 0 {
			t.Errorf("one sweep past HoldSec: %d releases counted, %d machines held; want 1, 0", releases.Value(), m)
		}
		if err := g.VerifyLedger(); err != nil {
			t.Error(err)
		}
	})
}

// TestRoundCauses: every round is counted under what triggered it, and a
// beat that needed none under beats_without_round.
func TestRoundCauses(t *testing.T) {
	reg := telemetry.NewRegistry()
	g, err := NewShardedInProcess(ShardedConfig{Shards: 1, NewScheduler: qualityScheduler, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rounds := func(cause string) uint64 {
		return reg.Counter(telemetry.Label(telemetry.Label("tetris_rm_rounds_total", "shard", "0"), "cause", cause), "").Value()
	}
	idle := reg.Counter(telemetry.Label("tetris_rm_beats_without_round_total", "shard", "0"), "")
	all := func() (n uint64) {
		for _, c := range causeNames[1:] {
			n += rounds(c)
		}
		return n
	}
	const nodes = 2
	for id := 0; id < nodes; id++ {
		g.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
	}
	sweep(t, g, nodes, false)
	if all() != 0 || idle.Value() != nodes {
		t.Fatalf("no jobs yet: %d rounds, %d beats without one", all(), idle.Value())
	}

	if err := g.SubmitJob(simpleJob(0, 4)); err != nil { // fits on one machine
		t.Fatal(err)
	}
	r0 := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1})
	if rounds("submit") != 1 || rounds("followup") != 1 || all() != 2 {
		t.Fatalf("after a submit: submit=%d followup=%d of %d rounds, want 1, 1 of 2", rounds("submit"), rounds("followup"), all())
	}
	was := idle.Value()
	sweep(t, g, nodes, true)
	sweep(t, g, nodes, true)
	if all() != 2 || idle.Value() != was+2*nodes {
		t.Fatalf("everything placed, nothing changed: %d rounds (want 2), %d idle beats (want %d)", all(), idle.Value(), was+2*nodes)
	}

	launched := r0.NMReply.Launch
	if len(launched) == 0 {
		t.Fatal("nothing launched on node 0")
	}
	g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Delta: true, Completed: completionsFor(launched[:1])})
	if rounds("completion") != 1 {
		t.Errorf("completion rounds = %d, want 1", rounds("completion"))
	}
	g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1, Used: resources.New(1, 1, 0, 0, 0, 0)})
	if rounds("usage") != 1 {
		t.Errorf("usage rounds = %d, want 1", rounds("usage"))
	}
	g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 1, Used: resources.New(1, 1, 0, 0, 0, 0)}) // same report again
	if rounds("usage") != 1 {
		t.Errorf("an unchanged full report ran a round")
	}
	g.RegisterMachine(2, resources.New(16, 32, 200, 200, 1000, 1000))
	g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 2})
	if rounds("node") != 1 {
		t.Errorf("node rounds = %d, want 1", rounds("node"))
	}
	if rounds("interval") != 0 {
		t.Errorf("interval rounds = %d with no runnable work waiting", rounds("interval"))
	}
	hist := reg.Histogram(telemetry.Label("tetris_rm_schedule_round_seconds", "shard", "0"), "")
	if hist.Count() != all() {
		t.Errorf("schedule_round_seconds has %d observations for %d rounds", hist.Count(), all())
	}
}

// TestStageScanCounters: the shard adds each round's share of the Tetris
// core's scan counters to tetris_rm_sched_stage_scans_total and
// tetris_rm_sched_local_prunes_total and
// tetris_rm_sched_machine_prunes_total, and a backlog deeper than the
// cluster makes the pruned sides move — the round after the submit fills
// the machines; the follow-up round finds the first one full, the other
// two cost one envelope comparison each (the job's one stage makes it a
// machine prune), and every task reading a block on a full machine costs
// one floor comparison there.
func TestStageScanCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	g, err := NewShardedInProcess(ShardedConfig{Shards: 1, NewScheduler: qualityScheduler, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const nodes = 3
	for id := 0; id < nodes; id++ {
		g.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
	}
	j := simpleJob(0, 60) // 8 tasks fill a machine
	for i, task := range j.Stages[0].Tasks {
		task.Peak = task.Peak.With(resources.DiskRead, 10)
		task.Inputs = []workload.InputBlock{{Machine: i % nodes, SizeMB: 100}}
	}
	if err := g.SubmitJob(j); err != nil {
		t.Fatal(err)
	}
	sweep(t, g, nodes, false)
	series := func(result string) uint64 {
		return reg.Counter(telemetry.Label(telemetry.Label("tetris_rm_sched_stage_scans_total", "shard", "0"), "result", result), "").Value()
	}
	local := reg.Counter(telemetry.Label("tetris_rm_sched_local_prunes_total", "shard", "0"), "").Value()
	machine := reg.Counter(telemetry.Label("tetris_rm_sched_machine_prunes_total", "shard", "0"), "").Value()
	core := g.Shard(0).sched.(*scheduler.Tetris).ScanStats()
	if series("scanned") != core.StageScans || series("pruned") != core.StagePrunes || local != core.LocalPrunes || machine != core.MachinePrunes {
		t.Errorf("series scanned=%d pruned=%d local=%d machine=%d, core counted %+v", series("scanned"), series("pruned"), local, machine, core)
	}
	if core.StageScans == 0 || core.StagePrunes == 0 || core.LocalPrunes == 0 || core.MachinePrunes == 0 {
		t.Errorf("a saturated 3-node shard should scan and prune both scans and whole machines: %+v", core)
	}
}

// idleFleet builds a 4-shard RM over nodes machines whose jobs are all
// placed and running — a busy fleet whose beats have nothing to report or
// to fetch — and one frame of delta beats from its first 64 nodes.
func idleFleet(t testing.TB, nodes int) (*Sharded, *wire.HeartbeatBatch) {
	t.Helper()
	g, err := NewShardedInProcess(ShardedConfig{Shards: 4, NewScheduler: qualityScheduler})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for id := 0; id < nodes; id++ {
		g.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
	}
	for id := 0; id < 8; id++ {
		if err := g.SubmitJob(simpleJob(id, 2)); err != nil {
			t.Fatal(err)
		}
	}
	sweep(t, g, nodes, false) // full reports (the baseline delta beats extend) and the placements
	sweep(t, g, nodes, true)  // every launch delivered
	frame := &wire.HeartbeatBatch{Beats: make([]wire.NMHeartbeat, 64)}
	for i := range frame.Beats {
		frame.Beats[i] = wire.NMHeartbeat{NodeID: i, Delta: true}
	}
	return g, frame
}

// TestIdleBeatAllocs: a frame of idle delta beats allocates the same
// whether its shards hold 200 machines or 2 000, and little — the parent
// rebuilt a view with a fresh placeholder per sibling-owned slot on every
// beat (≈ 276 KB per beat at 2 000 nodes).
func TestIdleBeatAllocs(t *testing.T) {
	measure := func(nodes int) (allocs, bytesPerBeat float64) {
		g, frame := idleFleet(t, nodes)
		send := func() {
			r := g.HandleHeartbeatBatch(frame)
			for _, e := range r.HeartbeatBatchReply.Replies {
				if e.Error != "" || len(e.Reply.Launch) > 0 {
					t.Fatalf("node %d: not an idle beat: %+v", e.NodeID, e)
				}
			}
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, send)
		runtime.ReadMemStats(&after)
		// AllocsPerRun calls send once to warm up, then runs times.
		bytesPerBeat = float64(after.TotalAlloc-before.TotalAlloc) / float64((runs+1)*len(frame.Beats))
		if err := g.VerifyLedger(); err != nil {
			t.Fatal(err)
		}
		return allocs, bytesPerBeat
	}
	smallAllocs, smallBytes := measure(200)
	bigAllocs, bigBytes := measure(2000)
	t.Logf("64-beat idle frame: %v allocs, %.0f B/beat at 200 nodes; %v allocs, %.0f B/beat at 2000 nodes",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if smallAllocs != bigAllocs {
		t.Errorf("idle frame allocates %v times at 200 nodes and %v at 2000: a beat's cost depends on the fleet size", smallAllocs, bigAllocs)
	}
	if bigBytes > 1024 {
		t.Errorf("idle beat allocates %.0f B at 2000 nodes, want under 1 KB", bigBytes)
	}
}

// BenchmarkIdleBeatFrame is the RM-side cost of one 64-beat frame of idle
// delta beats on a 2 000-node, 4-shard fleet.
func BenchmarkIdleBeatFrame(b *testing.B) {
	g, frame := idleFleet(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HandleHeartbeatBatch(frame)
	}
}
