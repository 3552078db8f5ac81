package scheduler

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Targeted tests for the demand-envelope prune of the incremental core
// (collectIncr) and the caches that outlive a round (taskRoundFor). The
// deep-backlog family of TestScheduleEquivalence covers the prune
// statistically; each case here pins one path by construction, on a view
// where a wrong envelope changes the assignment sequence.

// lockstepCores runs the core and its oracle over private copies of one
// scenario for the given number of rounds and fails on any divergence. mk
// builds a fresh view (statuses are per core); before, when non-nil,
// adjusts each core's view ahead of each round. Assignments are applied to
// the statuses and ledgers between rounds. It returns the incremental
// core's assignments per round and the Tetris state behind the two
// schedulers (incremental, reference).
func lockstepCores(t *testing.T, cfg TetrisConfig, mk func() *View, rounds int, before func(round int, label string, s *Tetris, v *View)) ([][]Assignment, []*Tetris) {
	t.Helper()
	labels, mks := tetrisCoreMakers(cfg)
	scheds := make([]Scheduler, len(mks))
	states := make([]*Tetris, len(mks))
	views := make([]*View, len(mks))
	for i, mk2 := range mks {
		scheds[i] = mk2()
		states[i] = tetrisOf(scheds[i])
		views[i] = mk()
	}
	var out [][]Assignment
	for r := 0; r < rounds; r++ {
		var first []Assignment
		for i, s := range scheds {
			if before != nil {
				before(r, labels[i], states[i], views[i])
			}
			asgs := s.Schedule(views[i])
			apply(views[i], asgs)
			if i == 0 {
				first = asgs
			} else if msg := diffAssignments(first, asgs); msg != "" {
				t.Fatalf("round %d: %s and %s cores diverge: %s", r, labels[0], labels[i], msg)
			}
		}
		out = append(out, keepRound(first))
	}
	return out, states
}

// wantPlacements asserts one round's assignments as (task index, machine)
// pairs of a single-stage job, in order.
func wantPlacements(t *testing.T, got []Assignment, want ...[2]int) {
	t.Helper()
	var have [][2]int
	for _, a := range got {
		have = append(have, [2]int{a.Task.ID.Index, a.Machine})
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("placements (task index, machine) = %v, want %v", have, want)
	}
}

// wantPrunes asserts the prune fired on the incremental core — a scenario
// that never prunes would pass vacuously.
func wantPrunes(t *testing.T, scheds []*Tetris) {
	t.Helper()
	if st := scheds[0].ScanStats(); st.StagePrunes == 0 {
		t.Fatalf("incremental core never pruned a stage scan: %+v", st)
	}
}

// busyCPU returns an allocation leaving the given number of free cores on
// the standard test machine.
func busyCPU(free float64) resources.Vector {
	return resources.New(machine.Get(resources.CPU)-free, 0, 0, 0, 0, 0)
}

// TestDemandFloorBoundsEveryMachine is the lower-bound rule itself: for
// random tasks, the floor derived from the demand on any one machine is
// component-wise ≤ the placement demand on every machine — exactly equal
// for a task with no placed input.
func TestDemandFloorBoundsEveryMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nMach = 6
	for _, cpuMem := range []bool{false, true} {
		demand := func(task *workload.Task, m int) resources.Vector {
			d := EffectiveDemand(task.Peak, task, m)
			if cpuMem {
				d = projectCPUMem(d)
			}
			return d
		}
		for _, j := range genJobs(rng, 30, nMach) {
			for _, task := range j.Stages[0].Tasks {
				tr := &taskRound{}
				for _, b := range task.Inputs {
					tr.hasPlaced = tr.hasPlaced || b.Machine >= 0
				}
				for from := -1; from < nMach; from++ {
					tr.d = demand(task, from)
					if !tr.hasPlaced && from >= 0 && tr.d != demand(task, -1) {
						t.Fatalf("task %v without placed input demands %v on machine %d, base %v", task.ID, tr.d, from, demand(task, -1))
					}
					floor := tr.demandFloor()
					for m := -1; m < nMach; m++ {
						if d := demand(task, m); floor.Max(d) != d {
							t.Fatalf("task %v: floor %v (from machine %d) exceeds demand %v on machine %d", task.ID, floor, from, d, m)
						}
					}
				}
			}
		}
	}
}

// TestLocalFloorBoundsEveryAffinityMachine is the local prune's rule: on
// every machine that holds input of a task — the machines scanLocals
// feeds it on — the floor computed from its peak is component-wise ≤ the
// core's placement demand there, and is exactly demandFloor of the cache
// entry for that machine; and floorFits, which compares that floor in
// place, agrees with FitsIn on it against free vectors short of it in
// each dimension in turn. Random deep-backlog tasks (some blocks
// unplaced) are joined by partial locality and zero-size blocks.
func TestLocalFloorBoundsEveryAffinityMachine(t *testing.T) {
	const nMach = 6
	tasks := []*workload.Task{
		{Peak: resources.New(2, 4, 80, 10, 300, 200), Inputs: []workload.InputBlock{{Machine: 1, SizeMB: 100}, {Machine: 2, SizeMB: 300}}},
		{Peak: resources.New(2, 4, 80, 10, 300, 200), Inputs: []workload.InputBlock{{Machine: 3, SizeMB: 0}, {Machine: 4, SizeMB: 200}}},
		{Peak: resources.New(2, 4, 80, 10, 0, 200), Inputs: []workload.InputBlock{{Machine: 5, SizeMB: 0}}},
	}
	for _, j := range genDeepJobs(rand.New(rand.NewSource(5)), 20, nMach, 10, 20, true) {
		for _, st := range j.Stages {
			tasks = append(tasks, st.Tasks...)
		}
	}
	for _, cpuMem := range []bool{false, true} {
		cfg := DefaultTetrisConfig()
		cfg.CPUMemOnly = cpuMem
		core := NewTetris(cfg)
		checked := 0
		for _, task := range tasks {
			floor := placementFloor(task.Peak)
			if cpuMem {
				floor = projectCPUMem(floor)
			}
			for k := range resources.NumKinds {
				for _, avail := range []resources.Vector{floor, floor.With(k, floor[k]/2), floor.With(k, 0), floor.With(k, 2*floor[k]+1)} {
					if got, want := core.floorFits(task.Peak, avail), floor.FitsIn(avail); got != want {
						t.Fatalf("cpumem=%v task %v: floorFits against %v is %v, FitsIn of the floor %v", cpuMem, task.Peak, avail, got, want)
					}
				}
			}
			for _, b := range task.Inputs {
				if b.Machine < 0 {
					continue
				}
				d := EffectiveDemand(task.Peak, task, b.Machine)
				if cpuMem {
					d = projectCPUMem(d)
				}
				if floor.Max(d) != d {
					t.Fatalf("cpumem=%v task %v: floor %v exceeds demand %v on machine %d", cpuMem, task.Peak, floor, d, b.Machine)
				}
				tr := &taskRound{hasPlaced: true, d: d}
				if got := tr.demandFloor(); got != floor {
					t.Fatalf("cpumem=%v task %v on machine %d: peak floor %v, demandFloor %v", cpuMem, task.Peak, b.Machine, floor, got)
				}
				checked++
			}
		}
		if checked < 100 {
			t.Fatalf("cpumem=%v: only %d (task, machine) pairs checked", cpuMem, checked)
		}
	}
}

// TestEnvelopeRetiredByLocalsTake: a window task taken through the
// locality scan, not the stage scan, must reach its stage's envelope.
// Tasks 0–15
// (the window) need 10 cores, task 16 needs 2, task 5 reads a block on
// machine 1. Machine 0 (8 cores free) records the envelope. On machine 1
// (empty) the stage scan stops at its three candidates 0–2, the locality
// scan adds task 5, and task 5 wins on alignment (it alone uses the
// disk). That take moves task 16 into the window: the next fill must
// evaluate it, an entrant the envelope owes, and place it. An envelope
// that missed the take (10 cores > 6 free, owing nothing) would skip
// that visit and lose the placement.
func TestEnvelopeRetiredByLocalsTake(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	mk := func() *View {
		j := mkJob(1, 20, resources.New(10, 4, 0, 0, 0, 0), 100)
		tasks := j.Job.Stages[0].Tasks
		tasks[16].Peak = resources.New(2, 4, 0, 0, 0, 0)
		tasks[5].Peak = resources.New(10, 4, 50, 0, 0, 0)
		tasks[5].Inputs = []workload.InputBlock{{Machine: 1, SizeMB: 100}}
		v := mkView(3, machine, j)
		v.Machines[0].Allocated = busyCPU(8)
		v.Machines[2].Allocated = busyCPU(1)
		return v
	}
	rounds, scheds := lockstepCores(t, cfg, mk, 1, nil)
	wantPlacements(t, rounds[0], [2]int{5, 1}, [2]int{16, 1})
	wantPrunes(t, scheds) // machine 2, against the re-recorded envelope
}

// TestEnvelopeWithServedReservation: a task taken by serveReservations —
// before any scan of the round, from a window whose envelope an earlier
// round kept — goes through markTaken like any other take. Twenty
// 3.5-core tasks starve on three machines with 3 free cores, and no
// round places one, so every round reinstalls the envelope of the first;
// machine 0 is reserved for the head task at t=3; at t=4 machines 0 and
// 2 empty out: the reservation serves task 0 on machine 0, machine 0's
// visit steps the cursor past it and evaluates the entrant it owes,
// machine 1 is pruned, machine 2 fits the envelope and takes task 1.
func TestEnvelopeWithServedReservation(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	cfg.StarvationSec = 2
	small := resources.New(4, 8, 50, 50, 250, 250)
	mk := func() *View {
		return mkView(3, small, mkJob(1, 20, resources.New(3.5, 7, 10, 10, 50, 50), 60))
	}
	times := []float64{0, 3, 4}
	before := func(r int, core string, s *Tetris, v *View) {
		if held := s.res.Machines(); r == 2 && !reflect.DeepEqual(held, []int{0}) {
			t.Fatalf("%s core: machines reserved before the serving round = %v, want [0]", core, held)
		}
		v.Time = times[r]
		for _, m := range v.Machines {
			m.Allocated = resources.New(1, 2, 0, 0, 0, 0)
			if r == 2 && m.ID != 1 {
				m.Allocated = resources.Vector{}
			}
			m.Reported = m.Allocated
		}
	}
	rounds, scheds := lockstepCores(t, cfg, mk, len(times), before)
	wantPlacements(t, rounds[0])
	wantPlacements(t, rounds[1])
	wantPlacements(t, rounds[2], [2]int{0, 0}, [2]int{1, 2})
	wantPrunes(t, scheds)
}

// TestEnvelopeIgnoresLocality: the floor of a task with placed input must
// leave out the two dimensions that depend on where it runs. Every task
// of job 2 reads one block on machine 1 and nothing else, so off machine
// 1 it needs network-in and on it none. Machine 0 has no free core and
// records the envelope from the remote-read demand; machine 1 has cores
// but no network-in headroom, so only the local placement fits there. An
// envelope that kept NetIn would prune machine 1's stage scan — and the
// locality scan would not make up for it: job 1, ineligible under the
// fairness knob, fills the first 64 entries of machine 1's locality list.
func TestEnvelopeIgnoresLocality(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0.5
	local := []workload.InputBlock{{Machine: 1, SizeMB: 100}}
	mk := func() *View {
		rich := mkJob(1, 70, resources.New(2, 4, 20, 0, 100, 0), 100)
		rich.Alloc = resources.New(12, 24, 0, 0, 0, 0) // far over fair share: ineligible
		poor := mkJob(2, 20, resources.New(4, 8, 20, 0, 100, 0), 100)
		for _, j := range []*JobState{rich, poor} {
			for _, task := range j.Job.Stages[0].Tasks {
				task.Inputs = local
			}
		}
		v := mkView(2, machine, rich, poor)
		v.Machines[0].Allocated = busyCPU(0)
		v.Machines[1].Reported = resources.New(0, 0, 0, 0, machine.Get(resources.NetIn), 0)
		return v
	}
	rounds, _ := lockstepCores(t, cfg, mk, 1, nil)
	if len(rounds[0]) != 4 {
		t.Fatalf("placed %d tasks, want 4 (16 cores / 4 per task, all on machine 1)", len(rounds[0]))
	}
	for _, a := range rounds[0] {
		if a.Task.ID.Job != 2 || a.Machine != 1 {
			t.Fatalf("unexpected placement %+v: want only job 2 on machine 1", a)
		}
	}
}

// TestEnvelopeMixedInputWindow: a window mixing tasks with and without
// placed input takes the minimum across both kinds. Even tasks read a
// block on machine 0 and need 10 cores, odd tasks read nothing and need
// 4. Machine 0 (3 cores free) records the envelope — 4 cores, the odd
// tasks' — machine 1 (2 free) is pruned by it, machine 2 (5 free) is not
// and takes the first odd task. An envelope of the even tasks alone
// (10 cores) would prune machine 2 as well.
func TestEnvelopeMixedInputWindow(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	mk := func() *View {
		j := mkJob(1, 40, resources.New(4, 4, 0, 0, 0, 0), 100)
		for i, task := range j.Job.Stages[0].Tasks {
			if i%2 == 0 {
				task.Peak = resources.New(10, 4, 20, 0, 100, 0)
				task.Inputs = []workload.InputBlock{{Machine: 0, SizeMB: 100}, {Machine: -1, SizeMB: 50}}
			}
		}
		v := mkView(3, machine, j)
		v.Machines[0].Allocated = busyCPU(3)
		v.Machines[1].Allocated = busyCPU(2)
		v.Machines[2].Allocated = busyCPU(5)
		return v
	}
	rounds, scheds := lockstepCores(t, cfg, mk, 1, nil)
	wantPlacements(t, rounds[0], [2]int{1, 2})
	wantPrunes(t, scheds)
}

// TestEnvelopeHotspotMachine: a machine over the hotspot threshold offers
// a zero free vector and is left before any stage is visited; the
// envelope recorded before it still prunes the saturated machine after it
// and still admits the machine with room.
func TestEnvelopeHotspotMachine(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	cfg.HotspotThreshold = 0.8
	mk := func() *View {
		v := mkView(4, machine, mkJob(1, 30, resources.New(6, 4, 0, 0, 0, 0), 100))
		v.Machines[0].Allocated = busyCPU(4)
		v.Machines[1].Reported = machine.Scale(0.9).With(resources.CPU, 0) // hot, cores idle
		v.Machines[2].Allocated = busyCPU(5)
		v.Machines[3].Allocated = busyCPU(13)
		return v
	}
	rounds, scheds := lockstepCores(t, cfg, mk, 1, nil)
	wantPlacements(t, rounds[0], [2]int{0, 3}, [2]int{1, 3})
	wantPrunes(t, scheds)
}

// TestMachineEnvelopeCounts pins when the machine envelope skips a whole
// stage walk. Two jobs' tasks need 2 and 3 cores; machines 0, 1 and 3
// have 1 core free, machine 2 has 2. Machine 0 walks both stages and
// records their envelopes; machine 1 is skipped by their minimum (2
// cores). Machine 2 fits it, walks, prunes the 3-core stage and places
// a 2-core task, which leaves that stage's envelope over the nine tasks
// left of its window, owing no entrant (the stage has no eleventh task);
// its next fill steps the cursor past the taken task and is pruned by
// that envelope. Machine 3 is skipped by the re-derived minimum. A
// minimum left stale by a recording would skip nothing; one left stale
// by the take would skip machine 2's second fill, and its cursor step.
func TestMachineEnvelopeCounts(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	mk := func() *View {
		v := mkView(4, machine, mkJob(1, 10, resources.New(2, 4, 0, 0, 0, 0), 100), mkJob(2, 10, resources.New(3, 4, 0, 0, 0, 0), 100))
		for i, free := range []float64{1, 1, 2, 1} {
			v.Machines[i].Allocated = busyCPU(free)
		}
		return v
	}
	rounds, scheds := lockstepCores(t, cfg, mk, 1, nil)
	if len(rounds[0]) != 1 || rounds[0][0].Task.ID.Job != 1 || rounds[0][0].Machine != 2 {
		t.Fatalf("placed %+v, want one task of job 1 on machine 2", rounds[0])
	}
	want := ScanStats{StageScans: 3, StagePrunes: 7, MachinePrunes: 2, Considered: 10 + 10 + 3}
	if got := scheds[0].ScanStats(); got != want {
		t.Fatalf("scan counters %+v, want %+v", got, want)
	}
}

// TestBaseDemandTracksEstimate: the base demand kept across rounds must
// follow the estimator. Deep worlds whose estimates start 60 % high and
// snap to the truth at a stage-dependent round (§4.1: Overestimated →
// FromStage) keep tasks pending across the move; the core and its oracle
// must agree throughout, which they do only if the core keeps no base
// computed from the old estimate.
func TestBaseDemandTracksEstimate(t *testing.T) {
	refine := func(round int, j *JobState, task *workload.Task) (resources.Vector, float64) {
		if round < 5+(j.Job.ID*5+task.ID.Stage*3)%20 {
			return task.Peak.Scale(1.6), task.PeakDuration() * 1.5
		}
		return task.Peak, task.PeakDuration()
	}
	for s := int64(0); s < 4; s++ {
		runDeepEquivalence(t, "moving-estimate", deepRun{
			cfg: DefaultTetrisConfig(), seed: 31000 + s, rounds: 80,
			inputs: s&1 != 0, faults: s&2 != 0, requirePrune: true, est: refine,
		})
	}
}

// deepTraceRun steps one deep saturated world for 40 rounds under the
// given trace ring (nil: tracing off) and returns every round's
// assignments and the scheduler.
func deepTraceRun(ring *DecisionRing) ([][]Assignment, *Tetris) {
	cfg := DefaultTetrisConfig()
	cfg.Trace = ring
	sched := NewTetris(cfg)
	w := newDeepWorlds([]func() Scheduler{func() Scheduler { return sched }}, 77, 40, true)[0]
	var rounds [][]Assignment
	for r := 0; r < 40; r++ {
		rounds = append(rounds, keepRound(w.step(r, true, false)))
	}
	return rounds, sched
}

// sampledMatch fails unless every round trace of sampled appears, with
// the same round number and identical content, in full.
func sampledMatch(t *testing.T, what string, sampled, full []RoundTrace) {
	t.Helper()
	byRound := map[uint64]RoundTrace{}
	for _, rt := range full {
		byRound[rt.Round] = rt
	}
	if len(sampled) == 0 {
		t.Fatalf("%s: no sampled rounds", what)
	}
	for _, rt := range sampled {
		if !reflect.DeepEqual(rt, byRound[rt.Round]) {
			t.Fatalf("%s: round %d traced differently:\nsampled: %+v\nfull:    %+v", what, rt.Round, rt, byRound[rt.Round])
		}
	}
}

// TestTraceOnSaturatedDeepView reruns trace-does-not-affect-decisions
// where the prunes are busiest: tasks read input, so the locality scan
// prunes as well as the stage scans. A sampled round runs the same pruned
// scan as any other, so tracing every round, every other round and never
// must (a) decide identically, (b) count identical ScanStats, and (c)
// record, in the half-sampled run's rounds, exactly what the every-round
// run recorded for them. The every-round run's per-round Scan fields add
// up to its cumulative counters.
func TestTraceOnSaturatedDeepView(t *testing.T) {
	plain, plainSched := deepTraceRun(nil)
	fullRing := NewDecisionRing(64, 1)
	full, fullSched := deepTraceRun(fullRing)
	halfRing := NewDecisionRing(64, 2)
	half, halfSched := deepTraceRun(halfRing)
	for r := range plain {
		for name, other := range map[string][][]Assignment{"every round": full, "every other round": half} {
			if msg := diffAssignments(plain[r], other[r]); msg != "" {
				t.Fatalf("round %d: tracing %s changed decisions: %s", r, name, msg)
			}
		}
	}
	want := plainSched.ScanStats()
	if want.StagePrunes == 0 || want.MachinePrunes == 0 || want.LocalPrunes == 0 {
		t.Errorf("untraced run never pruned a stage scan, a stage walk or a local option: %+v", want)
	}
	for name, s := range map[string]*Tetris{"every round": fullSched, "every other round": halfSched} {
		if got := s.ScanStats(); got != want {
			t.Errorf("tracing %s: scan counters %+v, want the untraced run's %+v", name, got, want)
		}
	}
	var sum ScanStats
	for _, rt := range fullRing.Snapshot() {
		sum = ScanStats{
			StageScans:    sum.StageScans + rt.Scan.StageScans,
			StagePrunes:   sum.StagePrunes + rt.Scan.StagePrunes,
			MachinePrunes: sum.MachinePrunes + rt.Scan.MachinePrunes,
			LocalPrunes:   sum.LocalPrunes + rt.Scan.LocalPrunes,
			Considered:    sum.Considered + rt.Scan.Considered,
			Entrants:      sum.Entrants + rt.Scan.Entrants,
			Carried:       sum.Carried + rt.Scan.Carried,
		}
	}
	if sum != want {
		t.Errorf("per-round Scan fields add up to %+v, want the cumulative %+v", sum, want)
	}
	sampledMatch(t, "incremental", halfRing.Snapshot(), fullRing.Snapshot())
}

// TestUnappliedRoundMatchesOracle: a round whose assignments are never
// applied leaves every job's pending generation where it was, so a second
// Schedule call on the same View reinstalls the envelopes the first call
// kept. Every other harness applies its rounds, and the MarkRunning of a
// placement moves its job's generation, so only here can an envelope of a
// window that had lost tasks to takes reach a later round. Tasks 0 and 1
// need 1 core, the other eighteen 3; machine 0 has 2 cores free and
// machine 1 has 1. Machine 0 takes tasks 0 and 1, then its last fill
// records the envelope (3 cores) of tasks 2–17, a window past two taken
// tasks. Kept and reinstalled, it would prune machine 0's walk in the
// second call and lose both placements. The deep worlds then run every
// round twice, the first call unapplied, and must carry envelopes.
func TestUnappliedRoundMatchesOracle(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	mk := func() *View {
		j := mkJob(1, 20, resources.New(3, 4, 0, 0, 0, 0), 100)
		for _, task := range j.Job.Stages[0].Tasks[:2] {
			task.Peak = resources.New(1, 4, 0, 0, 0, 0)
		}
		v := mkView(2, machine, j)
		v.Machines[0].Allocated = busyCPU(2)
		v.Machines[1].Allocated = busyCPU(1)
		return v
	}
	labels, mks := tetrisCoreMakers(cfg)
	var calls [][][]Assignment // per core, per call
	for _, mkSched := range mks {
		s, v := mkSched(), mk()
		var mine [][]Assignment
		for range 2 {
			mine = append(mine, keepRound(s.Schedule(v)))
		}
		calls = append(calls, mine)
	}
	for k := range calls[0] {
		wantPlacements(t, calls[0][k], [2]int{0, 0}, [2]int{1, 0})
		if msg := diffAssignments(calls[0][k], calls[1][k]); msg != "" {
			t.Fatalf("call %d on one View: %s and %s cores diverge: %s", k, labels[0], labels[1], msg)
		}
	}

	var carried uint64
	for s := int64(0); s < 6; s++ {
		cfg := DefaultTetrisConfig()
		if s >= 4 {
			cfg.StarvationSec = 2
		}
		labels, mks := tetrisCoreMakers(cfg)
		worlds := newDeepWorlds(mks, 41000+s, 40, s&1 != 0)
		for r := 0; r < 40; r++ {
			for _, call := range []string{"unapplied", "applied"} {
				var first []Assignment
				for i, w := range worlds {
					var asgs []Assignment
					if call == "applied" {
						asgs = w.step(r, false, false)
					} else {
						for _, m := range w.machines {
							m.Reported = m.Allocated // as step sets it
						}
						asgs = w.sched.Schedule(w.view(r))
					}
					if i == 0 {
						first = keepRound(asgs)
					} else if msg := diffAssignments(first, asgs); msg != "" {
						t.Fatalf("seed=%d round=%d, %s call: %s and %s cores diverge: %s", 41000+s, r, call, labels[0], labels[i], msg)
					}
				}
			}
		}
		carried += tetrisOf(worlds[0].sched).ScanStats().Carried
	}
	if carried == 0 {
		t.Fatal("no deep world carried an envelope into a later round")
	}
}

// TestCarriedEnvelopeDiesWithTotal: an estimate may read the fleet (the
// RM clamps every estimate to its largest machine), so an envelope kept
// from a round with another View.Total is not reinstalled. Task 0 of a
// 20-task stage runs; the others need 40 cores, clamped to the largest
// machine: machine 3's 32 cores in round 0, when nothing fits and machine
// 0's scan keeps the envelope, and 16 in round 1, after machine 3 shrank
// and machine 0 emptied. The stage's SRTF probe, task 0, is below both
// clamps, so only the moved total can retire the envelope; reinstalled,
// it would prune machine 0's walk and lose the placement.
func TestCarriedEnvelopeDiesWithTotal(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	big := machine.With(resources.CPU, 32)
	mk := func() *View {
		j := mkJob(1, 20, resources.New(40, 4, 0, 0, 0, 0), 100)
		j.Job.Stages[0].Tasks[0].Peak = resources.New(4, 4, 0, 0, 0, 0)
		j.Status.MarkRunning(j.Job.Stages[0].Tasks[0].ID)
		v := mkView(4, machine, j)
		for _, m := range v.Machines[:3] {
			m.Allocated = busyCPU(2)
		}
		v.Machines[3].Capacity, v.Machines[3].Allocated = big, big
		v.Total = v.Total.Add(big).Sub(machine)
		v.EstimateDemand = func(_ *JobState, task *workload.Task) (resources.Vector, float64) {
			var largest resources.Vector
			for _, m := range v.Machines {
				largest = largest.Max(m.Capacity)
			}
			return task.Peak.Min(largest), task.PeakDuration()
		}
		return v
	}
	before := func(r int, _ string, _ *Tetris, v *View) {
		if r == 1 {
			v.Machines[0].Allocated = resources.Vector{}
			v.Machines[3].Capacity, v.Machines[3].Allocated = machine, machine
			v.Total = machine.Scale(4)
		}
	}
	rounds, scheds := lockstepCores(t, cfg, mk, 2, before)
	wantPlacements(t, rounds[0])
	wantPlacements(t, rounds[1], [2]int{1, 0})
	if st := scheds[0].ScanStats(); st.Carried != 0 {
		t.Fatalf("an envelope was carried across the moved total: %+v", st)
	}
}
