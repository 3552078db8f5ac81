package scheduler

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
)

// traceView builds a cluster where one round must both place and skip:
// two 16-core machines, two jobs of six 10-core tasks. One task fits per
// machine (10+10 > 16), so each machine's second fill pass finds the
// remaining tasks infeasible-local, and with Fairness=0.5 one of the two
// jobs falls below the fairness cutoff.
func traceView() *View { return traceViewN(0) }

// traceViewN is traceView over 2+n machines (one placement each), its
// jobs numbered 10n+1 and 10n+2: rounds over different n differ from
// their first decision record on.
func traceViewN(n int) *View {
	j1 := mkJob(10*n+1, 6, resources.New(10, 4, 0, 0, 0, 0), 100)
	j2 := mkJob(10*n+2, 6, resources.New(10, 4, 0, 0, 0, 0), 200)
	return mkView(2+n, machine, j1, j2)
}

func traceConfig(ring *DecisionRing) TetrisConfig {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0.5
	cfg.Trace = ring
	return cfg
}

func outcomes(rt RoundTrace) map[string]int {
	m := map[string]int{}
	for _, d := range rt.Decisions {
		m[d.Outcome]++
	}
	return m
}

func TestDecisionTraceExplainsRound(t *testing.T) {
	ring := NewDecisionRing(8, 1)
	tet := NewTetris(traceConfig(ring))
	asgs := tet.Schedule(traceView())
	if len(asgs) != 2 {
		t.Fatalf("placed %d tasks, want 2 (one per machine)", len(asgs))
	}
	traces := ring.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d round traces, want 1", len(traces))
	}
	rt := traces[0]
	if rt.Round != 1 {
		t.Errorf("Round=%d, want 1: a scheduler's first Schedule call is round 1", rt.Round)
	}
	if rt.Placed != 2 || rt.Machines != 2 {
		t.Errorf("Placed=%d Machines=%d, want 2/2", rt.Placed, rt.Machines)
	}
	if rt.RunnableJobs != 2 || rt.EligibleJobs != 1 {
		t.Errorf("RunnableJobs=%d EligibleJobs=%d, want 2/1", rt.RunnableJobs, rt.EligibleJobs)
	}
	// Job 2 has more remaining work (same allocation), so job 1 — closer
	// to fair share by tie-break order — need not be the cutoff victim;
	// just require exactly one job below the fairness cutoff.
	if len(rt.CutoffJobIDs) != 1 {
		t.Errorf("CutoffJobIDs=%v, want exactly one", rt.CutoffJobIDs)
	}
	oc := outcomes(rt)
	if oc[OutcomePlaced] != 2 {
		t.Errorf("placed decisions = %d, want 2\n%+v", oc[OutcomePlaced], rt.Decisions)
	}
	if oc[OutcomeOutscored] == 0 {
		t.Errorf("no outscored decisions recorded\n%+v", rt.Decisions)
	}
	if oc[OutcomeInfeasibleLocal] == 0 {
		t.Errorf("no infeasible-local decisions recorded\n%+v", rt.Decisions)
	}
	if rt.Eps <= 0 {
		t.Errorf("Eps = %v, want > 0", rt.Eps)
	}
	for _, d := range rt.Decisions {
		if d.Outcome == OutcomePlaced && d.Align <= 0 {
			t.Errorf("placed decision without alignment score: %+v", d)
		}
	}
}

func TestDecisionTraceSampling(t *testing.T) {
	ring := NewDecisionRing(8, 3)
	tet := NewTetris(traceConfig(ring))
	for i := 0; i < 7; i++ {
		tet.Schedule(traceView()) // fresh view: every round looks alike
	}
	if got := ring.Len(); got != 3 {
		t.Fatalf("sampled %d of 7 rounds with every=3, want 3 (rounds 1,4,7)", got)
	}
	var rounds []uint64
	for _, rt := range ring.Snapshot() {
		rounds = append(rounds, rt.Round)
	}
	if !reflect.DeepEqual(rounds, []uint64{1, 4, 7}) {
		t.Errorf("sampled rounds %v, want [1 4 7]", rounds)
	}
}

func TestDecisionRingBounded(t *testing.T) {
	ring := NewDecisionRing(2, 1)
	tet := NewTetris(traceConfig(ring))
	for i := 0; i < 5; i++ {
		tet.Schedule(traceView())
	}
	if ring.Len() != 2 || ring.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d, want 2/3", ring.Len(), ring.Dropped())
	}
	traces := ring.Snapshot()
	if traces[0].Round >= traces[1].Round {
		t.Fatalf("snapshot not oldest-first: rounds %d, %d", traces[0].Round, traces[1].Round)
	}
	// The core builds every sampled round in the same scratch: a trace
	// taken after round k must still hold round k's decisions after a
	// round k+1 that decided differently has run.
	last := traces[1]
	want := slices.Clone(last.Decisions)
	tet.Schedule(traceViewN(1))
	if next := ring.Snapshot()[1]; reflect.DeepEqual(next.Decisions, want) {
		t.Fatalf("round %d decided as round %d did; the check below would prove nothing", next.Round, last.Round)
	}
	if !reflect.DeepEqual(last.Decisions, want) {
		t.Fatalf("round %d's retained decisions changed under a later round:\nwant %+v\ngot  %+v", last.Round, want, last.Decisions)
	}
}

// TestTraceConcurrentSnapshot: /debug/trace snapshots and encodes
// the ring while the scheduling goroutine keeps appending sampled rounds
// (tetris-cluster's setting). Run under -race; without it, each decoded
// round must still agree with itself.
func TestTraceConcurrentSnapshot(t *testing.T) {
	ring := NewDecisionRing(4, 1)
	tet := NewTetris(traceConfig(ring))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			tet.Schedule(traceViewN(i % 3))
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		b, err := json.Marshal(ring.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var got []RoundTrace
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		for _, rt := range got {
			if oc := outcomes(rt); oc[OutcomePlaced] != rt.Placed || rt.Placed != rt.Machines {
				t.Fatalf("round %d over %d machines: Placed=%d, %d placed decisions", rt.Round, rt.Machines, rt.Placed, oc[OutcomePlaced])
			}
			for _, d := range rt.Decisions {
				if d.Machine >= rt.Machines || d.Task.Job/10 != rt.Machines-2 {
					t.Fatalf("round %d over %d machines records %+v, from another round", rt.Round, rt.Machines, d)
				}
			}
		}
	}
}

// TestTraceDoesNotAffectDecisions: tracing is read-only observation —
// the assignment sequence with tracing on must be bit-identical to the
// sequence with tracing off, over a multi-round run with state carried
// between rounds.
func TestTraceDoesNotAffectDecisions(t *testing.T) {
	run := func(ring *DecisionRing) [][]Assignment {
		cfg := traceConfig(ring)
		tet := NewTetris(cfg)
		v := traceView()
		var rounds [][]Assignment
		for i := 0; i < 6; i++ {
			asgs := tet.Schedule(v)
			rounds = append(rounds, keepRound(asgs))
			apply(v, asgs)
		}
		return rounds
	}
	plain := run(nil)
	traced := run(NewDecisionRing(64, 2))
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed decisions:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestTraceSampledOutAllocs pins the cost of configured-but-sampled-out
// tracing at zero allocations: the benchgate depends on the hot path
// staying allocation-free when a trace ring is attached. A sampled round
// costs the ring's copy of its two slices and nothing more.
func TestTraceSampledOutAllocs(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Trace = NewDecisionRing(8, 1<<30) // round 1 sampled, then none
	tet := NewTetris(cfg)
	v := mkView(4, machine, mkJob(1, 8, resources.New(4, 8, 20, 20, 100, 100), 60))
	for _, m := range v.Machines {
		m.Allocated = m.Capacity // nothing fits anywhere
		m.Reported = m.Capacity
	}
	tet.Schedule(v) // warm caches and consume the sampled round
	if g := testing.AllocsPerRun(100, func() { tet.Schedule(v) }); g > 0 {
		t.Errorf("sampled-out tracing costs %v allocs/op, want 0", g)
	}
	b, err := json.Marshal(cfg.Trace.Snapshot()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"decisions":null`) {
		t.Errorf("a round with no decisions encodes as %s, want \"decisions\":null", b)
	}

	cfg.Trace = NewDecisionRing(8, 1) // every round sampled
	traced := NewTetris(cfg)
	backlog := backlogView(false)
	traced.Schedule(backlog)
	if g := testing.AllocsPerRun(20, func() { traced.Schedule(backlog) }); g > 2 {
		t.Errorf("a sampled backlog round costs %v allocs/op, want at most 2 (the ring's copies of its decisions and cutoff)", g)
	}
}

func TestDecisionTraceTruncation(t *testing.T) {
	ring := NewDecisionRing(4, 1)
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	cfg.Trace = ring
	tet := NewTetris(cfg)
	// Many machines × many one-core tasks: thousands of decisions.
	jobs := []*JobState{}
	for id := 1; id <= 8; id++ {
		jobs = append(jobs, mkJob(id, 200, resources.New(1, 1, 0, 0, 0, 0), 100))
	}
	v := mkView(64, machine, jobs...)
	tet.Schedule(v)
	rt := ring.Snapshot()[0]
	if len(rt.Decisions) != maxTraceDecisions {
		t.Fatalf("decisions = %d, want capped at %d", len(rt.Decisions), maxTraceDecisions)
	}
	if rt.Truncated == 0 {
		t.Fatal("expected truncated decisions to be counted")
	}
}
