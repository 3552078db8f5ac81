package scheduler

import (
	"math"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Edge-case and regression tests for the incremental Tetris core
// (tetris_incremental.go) and the shared ε computation.

// bothCores runs one Schedule call on fresh incremental and reference
// Tetris instances over structurally identical views and asserts the
// assignment sequences match, returning the incremental one.
func bothCores(t *testing.T, cfg TetrisConfig, mk func() *View) []Assignment {
	t.Helper()
	inc := NewTetris(cfg)
	ref := newReferenceTetris(cfg)
	a := inc.Schedule(mk())
	b := ref.Schedule(mk())
	if msg := diffAssignments(a, b); msg != "" {
		t.Fatalf("cores diverge: %s", msg)
	}
	return a
}

// TestAllMachinesDown: a cluster that is entirely down must produce no
// assignments under any scheduler, and must not panic or charge ledgers.
func TestAllMachinesDown(t *testing.T) {
	mk := func() *View {
		v := mkView(4, machine, mkJob(1, 6, resources.New(2, 4, 10, 10, 50, 50), 60))
		for _, m := range v.Machines {
			m.Down = true
		}
		return v
	}
	if got := bothCores(t, DefaultTetrisConfig(), mk); len(got) != 0 {
		t.Errorf("tetris placed %d tasks on an all-down cluster", len(got))
	}
	for _, s := range []Scheduler{NewDRF(), referenceDRF{NewDRF()}, NewSlotFair(), referenceSlotFair{NewSlotFair()}} {
		if got := s.Schedule(mk()); len(got) != 0 {
			t.Errorf("%s placed %d tasks on an all-down cluster", s.Name(), len(got))
		}
	}
}

// TestSingleJobExtremeFairness: with one job and Fairness=0.999 the
// eligible count ⌈(1−f)·1⌉ clamps to 1 — the job must still schedule.
func TestSingleJobExtremeFairness(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0.999
	mk := func() *View {
		return mkView(3, machine, mkJob(1, 5, resources.New(2, 4, 10, 10, 50, 50), 60))
	}
	got := bothCores(t, cfg, mk)
	if len(got) == 0 {
		t.Fatal("single job with Fairness=0.999 scheduled nothing; eligibleCount must clamp to 1")
	}
}

// TestBarrierTailAtExactFraction pins the `>=` in InBarrierTail: a stage
// with exactly ⌈b·total⌉ done tasks is in the tail. Job 1 is far over
// its fair share (huge Alloc) and ineligible under Fairness=0.999, but
// its stage sits at exactly 9/10 done with b=0.9, so the barrier rule
// lets its last task bypass fairness. At b=0.91 (9 < 9.1) it must not.
func TestBarrierTailAtExactFraction(t *testing.T) {
	mk := func() *View {
		rich := mkJob(1, 10, resources.New(2, 4, 10, 10, 50, 50), 60)
		for i := 0; i < 9; i++ {
			id := workload.TaskID{Job: 1, Stage: 0, Index: i}
			rich.Status.MarkRunning(id)
			rich.Status.MarkDone(id)
		}
		rich.Alloc = resources.New(12, 24, 0, 0, 0, 0) // far over fair share
		poor := mkJob(2, 10, resources.New(2, 4, 10, 10, 50, 50), 60)
		return mkView(4, machine, rich, poor)
	}
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0.999
	cfg.Barrier = 0.9
	placedRich := false
	for _, a := range bothCores(t, cfg, mk) {
		if a.Task.ID.Job == 1 {
			placedRich = true
		}
	}
	if !placedRich {
		t.Error("b=0.9, 9/10 done: tail task of ineligible job not placed; barrier must use >=")
	}
	cfg.Barrier = 0.91
	for _, a := range bothCores(t, cfg, mk) {
		if a.Task.ID.Job == 1 {
			t.Error("b=0.91, 9/10 done: ineligible job placed outside the barrier tail")
		}
	}
}

// TestReservationMachineCrashMidRound: a starved task gets a machine
// reserved; the machine then crashes before the reservation is served.
// The next round must release the reservation (and keep both cores in
// lockstep) rather than park the task on a dead machine forever.
func TestReservationMachineCrashMidRound(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.StarvationSec = 2
	labels, mks := tetrisCoreMakers(cfg)
	for i, mkSched := range mks {
		core := labels[i]
		sched := mkSched()
		tt := tetrisOf(sched)
		small := resources.New(4, 8, 50, 50, 250, 250)
		// The job persists across rounds: starvation tracking keys on
		// task identity. Its task outsizes the free capacity of every
		// machine (they are near-fully allocated), so it starves.
		j := mkJob(1, 3, resources.New(3.5, 7, 10, 10, 50, 50), 60)
		mk := func(now float64, downID int) *View {
			v := mkView(3, small, j)
			for _, m := range v.Machines {
				m.Allocated = resources.New(1, 2, 0, 0, 0, 0)
				m.Reported = m.Allocated
				if m.ID == downID {
					m.Down = true
				}
			}
			v.Time = now
			return v
		}
		if got := sched.Schedule(mk(0, -1)); len(got) != 0 {
			t.Fatalf("round 0 placed %d tasks; fixture must starve the job", len(got))
		}
		if got := sched.Schedule(mk(3, -1)); len(got) != 0 {
			t.Fatalf("round 1 placed %d tasks; fixture must starve the job", len(got))
		}
		if tt.res.Len() != 1 {
			t.Fatalf("after starvation rounds, %d reservations, want 1", tt.res.Len())
		}
		resMach := tt.res.Machines()[0]
		// The reserved machine crashes. serveReservations must release
		// it, after which the still-starved task immediately gets a live
		// machine re-reserved by detectStarvation in the same round.
		sched.Schedule(mk(4, resMach))
		if tt.res.Held(resMach) {
			t.Errorf("%v core: reservation still held on crashed machine %d", core, resMach)
		}
		if tt.res.Len() != 1 {
			t.Errorf("%v core: %d reservations after crash, want 1 on a live machine", core, tt.res.Len())
		}
		for _, mid := range tt.res.Machines() {
			if mid == resMach {
				t.Errorf("%v core: re-reserved the crashed machine %d", core, mid)
			}
		}
	}
}

// TestEpsilonRegression pins the ε values of a known view on both cores
// (satellite of the incremental-sum refactor: ā is now maintained as a
// running sum during candidate collection instead of a second pass).
// ε = m·ā/p̄ with m=1: two identical 2-CPU/4-GB tasks on an empty
// 16-CPU/32-GB machine and p̄ the mean remaining-work score.
func TestEpsilonRegression(t *testing.T) {
	mk := func() *View {
		j1 := mkJob(1, 1, resources.New(2, 4, 0, 0, 0, 0), 100)
		j2 := mkJob(2, 1, resources.New(2, 4, 0, 0, 0, 0), 200)
		return mkView(1, machine, j1, j2)
	}
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0 // all jobs eligible: ā spans both candidates
	labels, mks := tetrisCoreMakers(cfg)
	for i, mkSched := range mks {
		core := labels[i]
		tt := mkSched()
		var trace []float64
		tetrisOf(tt).epsTrace = &trace
		tt.Schedule(mk())
		// Golden values, derived by hand. Candidate alignment (cosine,
		// capacity-normalized, empty machine, CPU+mem-only demand):
		// a = (2/16)·1 + (4/32)·1 = 0.25 for both tasks, so ā=0.25.
		// Remaining work p = duration × Σ norm demand: job 1 runs
		// 100s/2cpu = 50s → p₁ = 50·0.25 = 12.5; job 2 runs 100s →
		// p₂ = 25; p̄ = 18.75 → ε₁ = 0.25/18.75. Job 1 (lower p) wins
		// the combined score and is placed; with (14,28) free the sole
		// remaining candidate has a₂ = 2·(0.125·0.875) = 0.21875, and
		// p̄ stays 18.75 (computed once per round) → ε₂ = 0.21875/18.75.
		want := []float64{0.25 / 18.75, 0.21875 / 18.75}
		if len(trace) != len(want) {
			t.Fatalf("%v core: %d ε values (%v), want %d", core, len(trace), trace, len(want))
		}
		for i := range want {
			if math.Abs(trace[i]-want[i]) > 1e-15 {
				t.Errorf("%v core: ε[%d] = %.18f, want %.18f", core, i, trace[i], want[i])
			}
		}
	}
}

// TestScheduleAllocs asserts the incremental core's steady state is
// allocation-free when it places nothing: every per-round structure
// (candidate slices, stage runs, task cache, heaps) must be recycled.
func TestScheduleAllocs(t *testing.T) {
	mkFull := func() *View {
		v := mkView(4, machine, mkJob(1, 8, resources.New(4, 8, 20, 20, 100, 100), 60))
		for _, m := range v.Machines {
			m.Allocated = m.Capacity // nothing fits anywhere
			m.Reported = m.Capacity
		}
		return v
	}
	tet := NewTetris(DefaultTetrisConfig())
	vt := mkFull()
	tet.Schedule(vt) // warm the caches
	if g := testing.AllocsPerRun(100, func() { tet.Schedule(vt) }); g > 0 {
		t.Errorf("tetris incremental core: %v allocs/op in steady state, want 0", g)
	}
	drf := NewDRF()
	vd := mkFull()
	drf.Schedule(vd)
	if g := testing.AllocsPerRun(100, func() { drf.Schedule(vd) }); g > 0 {
		t.Errorf("drf fast path: %v allocs/op in steady state, want 0", g)
	}
	sf := NewSlotFair()
	vs := mkFull()
	sf.Schedule(vs)
	if g := testing.AllocsPerRun(100, func() { sf.Schedule(vs) }); g > 0 {
		t.Errorf("slotfair fast path: %v allocs/op in steady state, want 0", g)
	}
}

// TestPlacedEntriesAreRecycled: once warm, a stream of rounds that each
// place tasks creates no task-cache entry — every task new to the scan
// windows takes the entry of one placed in an earlier round — and the
// entries of a departed job's tasks are kept for reuse too.
func TestPlacedEntriesAreRecycled(t *testing.T) {
	tet := NewTetris(DefaultTetrisConfig())
	j := mkJob(1, 600, resources.New(4, 8, 0, 0, 0, 0), 10)
	v := mkView(4, machine, j)
	entries := func() map[*taskRound]bool {
		seen := map[*taskRound]bool{}
		for _, tr := range tet.inc.tasks {
			seen[tr] = true
		}
		for _, tr := range tet.inc.spare {
			seen[tr] = true
		}
		return seen
	}
	// One round: place, then finish everything placed, freeing the
	// machines for the next.
	round := func(now float64) int {
		asgs := tet.Schedule(v)
		apply(v, asgs)
		for _, a := range asgs {
			j.Status.MarkDone(a.Task.ID)
		}
		for _, m := range v.Machines {
			m.Allocated = resources.Vector{}
		}
		return len(asgs)
	}
	for r := 0; r < 3; r++ {
		round(float64(r))
	}
	warm := entries()
	for r := 3; r < 20; r++ {
		if n := round(float64(r)); n == 0 {
			t.Fatalf("round %d placed nothing", r)
		}
		for tr := range entries() {
			if !warm[tr] {
				t.Fatalf("round %d created a task-cache entry (%d warm ones, %d spare)", r, len(warm), len(tet.inc.spare))
			}
		}
	}
	cached, spare := len(tet.inc.tasks), len(tet.inc.spare)
	if cached == 0 {
		t.Fatal("no pending task is cached: the stream never scanned ahead")
	}
	v.Jobs = nil
	tet.Schedule(v)
	if len(tet.inc.tasks) != 0 || len(tet.inc.spare) != cached+spare {
		t.Errorf("job departed: %d entries cached, %d spare; want 0 and %d", len(tet.inc.tasks), len(tet.inc.spare), cached+spare)
	}
}

// TestRemainingWorkFiniteAtTinyRates: admissible inputs whose
// remaining-work score overflowed to +Inf made ε = ā/p̄ zero and every
// candidate's score 0·Inf = NaN, so no candidate won and the round
// panicked. A CPU peak of 1e-310 under 10 CPU-seconds overflows the
// peak duration; a capacity component of 1e-310 under a job that
// demands 50 of it (network-out, never charged at the task's own
// machine) overflows the normalized demand. Both must schedule.
func TestRemainingWorkFiniteAtTinyRates(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() *View
	}{
		{"peak duration", func() *View {
			return mkView(2, machine, mkJob(1, 3, resources.New(1e-310, 4, 0, 0, 0, 0), 10))
		}},
		{"normalized demand", func() *View {
			return mkView(2, machine.With(resources.NetOut, 1e-310), mkJob(1, 3, resources.New(2, 4, 0, 0, 0, 50), 10))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("round panicked: %v", r)
				}
			}()
			v := c.mk()
			if p := NewTetris(DefaultTetrisConfig()).remainingWork(v, v.Jobs[0]); math.IsInf(p, 0) || math.IsNaN(p) {
				t.Errorf("remaining work %v, want finite", p)
			}
			if got := bothCores(t, DefaultTetrisConfig(), c.mk); len(got) != 3 {
				t.Errorf("placed %d tasks, want 3", len(got))
			}
		})
	}
}
