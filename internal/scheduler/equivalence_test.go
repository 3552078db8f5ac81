package scheduler

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Differential equivalence suite: the incremental Tetris core must make
// bit-identical decisions to its reference implementation, the test-side
// oracle of tetris_reference_test.go. Randomized clusters and workloads
// are driven through many rounds of scheduling, task completion, task
// failure and machine crash/recovery in twin worlds — one per
// implementation — and every round's assignment sequence is compared
// field for field, including the exact demand and remote-charge vectors.
// DRF and slot-fair have one loop each; the same worlds, stepped once,
// pin their decisions by digest (TestBaselineDecisionDigests).

// ---------------------------------------------------------------------
// Random world generation. Job/Stage/Task values are immutable during
// scheduling, so the twin worlds share them and build independent
// Status and ledger state.

func genCaps(rng *rand.Rand, nMach int) []resources.Vector {
	caps := make([]resources.Vector, nMach)
	for i := range caps {
		switch rng.Intn(3) {
		case 0: // small node
			caps[i] = resources.New(8, 16, 100, 100, 500, 500)
		case 1: // standard node
			caps[i] = resources.New(16, 32, 200, 200, 1000, 1000)
		default: // big node
			caps[i] = resources.New(32, 64, 400, 400, 2000, 2000)
		}
	}
	return caps
}

func genJobs(rng *rand.Rand, nJobs, nMach int) []*workload.Job {
	jobs := make([]*workload.Job, nJobs)
	for i := range jobs {
		j := &workload.Job{ID: i + 1, Weight: 1}
		if rng.Intn(4) == 0 {
			j.Weight = 1 + 3*rng.Float64()
		}
		nStages := 1 + rng.Intn(3)
		for si := 0; si < nStages; si++ {
			st := &workload.Stage{Name: fmt.Sprintf("s%d", si)}
			if si > 0 {
				st.Deps = []int{si - 1}
			}
			nTasks := 1 + rng.Intn(12)
			for ti := 0; ti < nTasks; ti++ {
				task := &workload.Task{
					ID: workload.TaskID{Job: j.ID, Stage: si, Index: ti},
					Peak: resources.New(
						1+7*rng.Float64(),
						1+15*rng.Float64(),
						120*rng.Float64(),
						80*rng.Float64(),
						400*rng.Float64(),
						400*rng.Float64(),
					),
					Work: workload.Work{CPUSeconds: 5 + 100*rng.Float64(), WriteMB: 200 * rng.Float64()},
				}
				for b := rng.Intn(4); b > 0; b-- {
					task.Inputs = append(task.Inputs, workload.InputBlock{
						Machine: rng.Intn(nMach+1) - 1, // -1: unplaced block
						SizeMB:  50 + 500*rng.Float64(),
					})
				}
				st.Tasks = append(st.Tasks, task)
			}
			j.Stages = append(j.Stages, st)
		}
		jobs[i] = j
	}
	return jobs
}

// genDeepJobs draws the deep-backlog family: one or two stages per job,
// each of minTasks..maxTasks tasks — far beyond scanBudget, so window
// truncation, mid-window takes and growth fetches all occur — whose
// demands spread ±20 % around a per-stage base (§4.1: a stage's tasks are
// alike, not equal). With inputs, about half the tasks read one to three
// blocks, some of them unplaced, so a scan window mixes tasks with and
// without placed input.
func genDeepJobs(rng *rand.Rand, nJobs, nMach, minTasks, maxTasks int, inputs bool) []*workload.Job {
	jobs := make([]*workload.Job, nJobs)
	for i := range jobs {
		j := &workload.Job{ID: i + 1, Weight: 1}
		nStages := 1 + rng.Intn(2)
		for si := 0; si < nStages; si++ {
			st := &workload.Stage{Name: fmt.Sprintf("s%d", si)}
			if si > 0 {
				st.Deps = []int{si - 1}
			}
			base := resources.New(
				1+4*rng.Float64(),
				2+10*rng.Float64(),
				60*rng.Float64(),
				40*rng.Float64(),
				200*rng.Float64(),
				200*rng.Float64(),
			)
			nTasks := minTasks + rng.Intn(maxTasks-minTasks+1)
			for ti := 0; ti < nTasks; ti++ {
				peak := base
				for k := range peak {
					peak[k] *= 0.8 + 0.4*rng.Float64()
				}
				task := &workload.Task{
					ID:   workload.TaskID{Job: j.ID, Stage: si, Index: ti},
					Peak: peak,
					Work: workload.Work{CPUSeconds: 5 + 100*rng.Float64(), WriteMB: 200 * rng.Float64()},
				}
				if inputs && rng.Intn(2) == 0 {
					for b := 1 + rng.Intn(3); b > 0; b-- {
						task.Inputs = append(task.Inputs, workload.InputBlock{
							Machine: rng.Intn(nMach+1) - 1, // -1: unplaced block
							SizeMB:  50 + 500*rng.Float64(),
						})
					}
				}
				st.Tasks = append(st.Tasks, task)
			}
			j.Stages = append(j.Stages, st)
		}
		jobs[i] = j
	}
	return jobs
}

// ---------------------------------------------------------------------
// Twin-world driver.

type placement struct {
	j      *JobState
	task   *workload.Task
	mach   int
	local  resources.Vector
	remote []RemoteCharge
}

type eqWorld struct {
	sched    Scheduler
	machines []*MachineState
	jobs     []*JobState
	arrive   []int
	placed   []placement // running tasks in placement order
	rng      *rand.Rand  // churn script; draws identically in twin worlds
	total    resources.Vector
	// est, when non-nil, becomes the View's EstimateDemand hook with the
	// current round prepended — the estimator-refinement differential
	// tests use it to move estimates mid-workload.
	est func(round int, j *JobState, t *workload.Task) (resources.Vector, float64)
}

func newEqWorld(sched Scheduler, jobs []*workload.Job, caps []resources.Vector, arrive []int, seed int64) *eqWorld {
	w := &eqWorld{sched: sched, arrive: arrive, rng: rand.New(rand.NewSource(seed))}
	for i, c := range caps {
		w.machines = append(w.machines, &MachineState{ID: i, Capacity: c})
		w.total = w.total.Add(c)
	}
	for _, j := range jobs {
		w.jobs = append(w.jobs, &JobState{Job: j, Status: workload.NewStatus(j)})
	}
	return w
}

func (w *eqWorld) jobByID(id int) *JobState {
	for _, j := range w.jobs {
		if j.Job.ID == id {
			return j
		}
	}
	return nil
}

// release undoes a placement's ledger charges.
func (w *eqWorld) release(p placement) {
	p.j.Alloc = p.j.Alloc.Sub(p.local)
	w.machines[p.mach].Allocated = w.machines[p.mach].Allocated.Sub(p.local)
	for _, rc := range p.remote {
		w.machines[rc.Machine].Allocated = w.machines[rc.Machine].Allocated.Sub(rc.Charge)
	}
}

// failTasksOn kills every running task on machine mid (a crash), marking
// them failed so they become pending again.
func (w *eqWorld) failTasksOn(mid int) {
	alive := w.placed[:0]
	for _, p := range w.placed {
		if p.mach == mid {
			w.release(p)
			p.j.Status.MarkFailed(p.task.ID)
		} else {
			alive = append(alive, p)
		}
	}
	w.placed = alive
}

// view builds the round's View: the jobs that have arrived and not
// finished, over the world's machines.
func (w *eqWorld) view(round int) *View {
	v := &View{Time: float64(round), Machines: w.machines, Total: w.total}
	if w.est != nil {
		v.EstimateDemand = func(j *JobState, t *workload.Task) (resources.Vector, float64) {
			return w.est(round, j, t)
		}
	}
	for i, j := range w.jobs {
		if w.arrive[i] <= round && !j.Status.Finished() {
			v.Jobs = append(v.Jobs, j)
		}
	}
	return v
}

// book applies a round's assignments to the statuses and ledgers.
func (w *eqWorld) book(asgs []Assignment) {
	for _, a := range asgs {
		j := w.jobByID(a.Task.ID.Job)
		j.Status.MarkRunning(a.Task.ID)
		j.Alloc = j.Alloc.Add(a.Local)
		w.machines[a.Machine].Allocated = w.machines[a.Machine].Allocated.Add(a.Local)
		for _, rc := range a.Remote {
			w.machines[rc.Machine].Allocated = w.machines[rc.Machine].Allocated.Add(rc.Charge)
		}
		w.placed = append(w.placed, placement{j: j, task: a.Task, mach: a.Machine, local: a.Local, remote: slices.Clone(a.Remote)}) // valid until the next round
	}
}

// step runs one scheduling round: fault/recovery churn, a Schedule call,
// bookkeeping for its assignments, then random task completions. All
// randomness comes from the world's script rng, which draws in an order
// determined solely by world state — identical across twin worlds while
// their decisions stay identical.
func (w *eqWorld) step(round int, faults, hotspots bool) []Assignment {
	if faults {
		for _, m := range w.machines {
			r := w.rng.Float64()
			if m.Down {
				if r < 0.3 {
					m.Down = false
				}
			} else if r < 0.08 {
				m.Down = true
				w.failTasksOn(m.ID)
			}
		}
	}
	for _, m := range w.machines {
		m.Reported = m.Allocated
		if hotspots && w.rng.Float64() < 0.15 {
			m.Reported = m.Capacity.Scale(0.85 + 0.3*w.rng.Float64())
		}
	}
	asgs := w.sched.Schedule(w.view(round))
	w.book(asgs)
	alive := w.placed[:0]
	for _, p := range w.placed {
		if w.rng.Float64() < 0.35 {
			w.release(p)
			p.j.Status.MarkDone(p.task.ID)
		} else {
			alive = append(alive, p)
		}
	}
	w.placed = alive
	return asgs
}

// keepRound copies a round's assignments, Remote charges included: the
// core reuses the slice and the charge buffers in its next round, so a
// test that keeps a round past the next Schedule call keeps this copy
// (slices.Clone alone would share the charges).
func keepRound(asgs []Assignment) []Assignment {
	out := slices.Clone(asgs)
	for i := range out {
		out[i].Remote = slices.Clone(out[i].Remote)
	}
	return out
}

// diffAssignments compares two assignment sequences bit for bit.
func diffAssignments(a, b []Assignment) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d assignments", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Task.ID.Job != y.Task.ID.Job || x.Task.ID != y.Task.ID || x.Machine != y.Machine {
			return fmt.Sprintf("assignment %d: job/task/machine %d/%v/%d vs %d/%v/%d",
				i, x.Task.ID.Job, x.Task.ID, x.Machine, y.Task.ID.Job, y.Task.ID, y.Machine)
		}
		if x.Local != y.Local {
			return fmt.Sprintf("assignment %d: local %v vs %v", i, x.Local, y.Local)
		}
		if len(x.Remote) != len(y.Remote) {
			return fmt.Sprintf("assignment %d: %d vs %d remote charges", i, len(x.Remote), len(y.Remote))
		}
		for k := range x.Remote {
			if x.Remote[k].Machine != y.Remote[k].Machine || x.Remote[k].Charge != y.Remote[k].Charge {
				return fmt.Sprintf("assignment %d charge %d: %d/%v vs %d/%v",
					i, k, x.Remote[k].Machine, x.Remote[k].Charge, y.Remote[k].Machine, y.Remote[k].Charge)
			}
		}
	}
	return ""
}

// runEquivalenceN drives one twin world per scheduler build for the
// given number of rounds, comparing every build's assignment sequence
// against the first's each round, and returns the number of compared
// rounds. labels name the builds in failure messages.
func runEquivalenceN(t testing.TB, name string, labels []string, mks []func() Scheduler, seed int64, rounds int, hotspots bool) int {
	rng := rand.New(rand.NewSource(seed))
	nMach := 4 + rng.Intn(12)
	nJobs := 3 + rng.Intn(8)
	caps := genCaps(rng, nMach)
	jobs := genJobs(rng, nJobs, nMach)
	arrive := make([]int, nJobs)
	for i := range arrive {
		arrive[i] = rng.Intn(rounds/2 + 1)
	}
	worlds := make([]*eqWorld, len(mks))
	for i, mk := range mks {
		worlds[i] = newEqWorld(mk(), jobs, caps, arrive, seed+1)
	}
	stepTwins(t, name, labels, worlds, seed, rounds, true, hotspots)
	return rounds
}

// stepTwins steps the twin worlds in lockstep, comparing every world's
// assignment sequence against the first's each round.
func stepTwins(t testing.TB, name string, labels []string, worlds []*eqWorld, seed int64, rounds int, faults, hotspots bool) {
	for r := 0; r < rounds; r++ {
		a := worlds[0].step(r, faults, hotspots)
		for i := 1; i < len(worlds); i++ {
			b := worlds[i].step(r, faults, hotspots)
			if msg := diffAssignments(a, b); msg != "" {
				t.Fatalf("%s seed=%d round=%d: %s and %s cores diverge: %s",
					name, seed, r, labels[0], labels[i], msg)
			}
		}
	}
}

// newDeepWorlds builds one deep-backlog world per scheduler build: 4–14
// machines under stages of 10–160 tasks (genDeepJobs) arriving over the
// first quarter of the run, so machines saturate and most stage visits
// find nothing to add.
func newDeepWorlds(mks []func() Scheduler, seed int64, rounds int, inputs bool) []*eqWorld {
	rng := rand.New(rand.NewSource(seed))
	nMach := 4 + rng.Intn(11)
	nJobs := 3 + rng.Intn(5)
	caps := genCaps(rng, nMach)
	jobs := genDeepJobs(rng, nJobs, nMach, 10, 160, inputs)
	arrive := make([]int, nJobs)
	for i := range arrive {
		arrive[i] = rng.Intn(rounds/4 + 1)
	}
	worlds := make([]*eqWorld, len(mks))
	for i, mk := range mks {
		worlds[i] = newEqWorld(mk(), jobs, caps, arrive, seed+1)
	}
	return worlds
}

// deepRun parameterizes one run of the deep-backlog family.
type deepRun struct {
	cfg    TetrisConfig
	seed   int64
	rounds int
	inputs bool // tasks carry input blocks
	faults bool // machines crash and recover
	// requirePrune fails the run unless the envelope prune — and, with
	// inputs, the local prune — actually fired in the incremental world:
	// equivalence over scans that never pruned would prove nothing about
	// the prune. (The fuzzer leaves it off: it can shrink a world until
	// nothing is ever left pending.)
	requirePrune bool
	// est, when non-nil, moves the estimates (eqWorld.est).
	est func(round int, j *JobState, t *workload.Task) (resources.Vector, float64)
}

// runDeepEquivalence is the deep-backlog counterpart of runEquivalenceN
// for the Tetris core and its oracle; it returns the number of compared
// rounds.
func runDeepEquivalence(t testing.TB, name string, run deepRun) int {
	labels, mks := tetrisCoreMakers(run.cfg)
	worlds := newDeepWorlds(mks, run.seed, run.rounds, run.inputs)
	for _, w := range worlds {
		w.est = run.est
	}
	stepTwins(t, name, labels, worlds, run.seed, run.rounds, run.faults, run.cfg.HotspotThreshold > 0)
	for i, w := range worlds {
		st := tetrisOf(w.sched).ScanStats()
		if labels[i] == "reference" {
			if st != (ScanStats{}) {
				t.Fatalf("%s seed=%d: reference core counted scans: %+v", name, run.seed, st)
			}
		} else if run.requirePrune && st.StagePrunes == 0 {
			t.Fatalf("%s seed=%d: %s core never pruned a stage scan: %+v", name, run.seed, labels[i], st)
		} else if run.requirePrune && run.inputs && st.LocalPrunes == 0 {
			t.Fatalf("%s seed=%d: %s core never pruned a local option: %+v", name, run.seed, labels[i], st)
		}
	}
	return run.rounds
}

// tetrisEquivalenceConfigs spans every knob the equivalence suite must
// exercise: fairness, barrier, ε, ablations, hotspot avoidance,
// starvation reservations and all alignment scorers.
func tetrisEquivalenceConfigs() []TetrisConfig {
	base := DefaultTetrisConfig()
	cfgs := []TetrisConfig{base}
	for _, f := range []float64{0, 0.5, 0.999} {
		c := base
		c.Fairness = f
		cfgs = append(cfgs, c)
	}
	for _, b := range []float64{0.5, 1.0} {
		c := base
		c.Barrier = b
		cfgs = append(cfgs, c)
	}
	for _, m := range []float64{0, 0.5} {
		c := base
		c.EpsilonMultiplier = m
		cfgs = append(cfgs, c)
	}
	{
		c := base
		c.SRTFOnly = true
		cfgs = append(cfgs, c)
	}
	{
		c := base
		c.CPUMemOnly = true
		cfgs = append(cfgs, c)
	}
	{
		c := base
		c.HotspotThreshold = 0.8
		cfgs = append(cfgs, c)
	}
	{
		c := base
		c.StarvationSec = 2
		cfgs = append(cfgs, c)
	}
	for _, s := range Scorers()[1:] { // base already uses CosineScorer
		c := base
		c.Scorer = s
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestScheduleEquivalence is the main differential suite: ≥1000
// randomized rounds per scheduler family, faults always on.
func TestScheduleEquivalence(t *testing.T) {
	const (
		seedsPerConfig = 3
		rounds         = 25
	)
	tetrisRounds := 0
	for ci, cfg := range tetrisEquivalenceConfigs() {
		cfg := cfg
		name := fmt.Sprintf("tetris[f=%v b=%v m=%v srtf=%v cpumem=%v hot=%v starve=%v %s]",
			cfg.Fairness, cfg.Barrier, cfg.EpsilonMultiplier, cfg.SRTFOnly, cfg.CPUMemOnly,
			cfg.HotspotThreshold, cfg.StarvationSec, cfg.Scorer.Name())
		for s := 0; s < seedsPerConfig; s++ {
			seed := int64(1000*ci + 7*s + 13)
			labels, mks := tetrisCoreMakers(cfg)
			tetrisRounds += runEquivalenceN(t, name, labels, mks,
				seed, rounds, cfg.HotspotThreshold > 0)
		}
	}
	if tetrisRounds < 1000 {
		t.Errorf("only %d Tetris equivalence rounds, want >= 1000", tetrisRounds)
	}

	// Deep-backlog family: every config again, with and without input
	// blocks, faults on and off.
	deepRounds := 0
	for ci, cfg := range tetrisEquivalenceConfigs() {
		name := fmt.Sprintf("tetris-deep[%d %s]", ci, cfg.Scorer.Name())
		for s := 0; s < 4; s++ {
			deepRounds += runDeepEquivalence(t, name, deepRun{
				cfg: cfg, seed: int64(20000 + 100*ci + s), rounds: 80,
				inputs: s&1 != 0, faults: s&2 != 0, requirePrune: true,
			})
		}
	}
	// The world TestTraceOnSaturatedDeepView traces, against the oracle.
	deepRounds += runDeepEquivalence(t, "tetris-deep[traced world]", deepRun{
		cfg: DefaultTetrisConfig(), seed: 77, rounds: 40,
		inputs: true, faults: true, requirePrune: true,
	})
	t.Logf("equivalence rounds: tetris=%d tetris-deep=%d", tetrisRounds, deepRounds)
}

// digestScheduler feeds every round's assignment sequence of the
// scheduler it wraps into h: the round's count, then per assignment the
// task ID, the machine and the bits of every Local dimension.
type digestScheduler struct {
	Scheduler
	h hash.Hash64
}

// Schedule implements Scheduler.
func (d digestScheduler) Schedule(v *View) []Assignment {
	asgs := d.Scheduler.Schedule(v)
	buf := binary.LittleEndian.AppendUint64(nil, uint64(len(asgs)))
	for _, a := range asgs {
		for _, x := range []int{a.Task.ID.Job, a.Task.ID.Stage, a.Task.ID.Index, a.Machine} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		for _, x := range a.Local {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	d.h.Write(buf)
	return asgs
}

// TestBaselineDecisionDigests pins DRF's and slot-fair's exact decisions:
// every round of the randomized worlds, faults on, hashed with FNV-64 into
// one digest per policy. The invariant tests check properties only, so a
// change that moves any baseline decision shows here, and must say why.
func TestBaselineDecisionDigests(t *testing.T) {
	const rounds = 25
	cases := []struct {
		name, policy        string
		mk                  func() Scheduler
		base, groups, seeds int64
		want                uint64
	}{
		{"drf[0]", "drf", func() Scheduler { return NewDRF() }, 5000, 1, 8, 0xafd42494afcd0438},
		{"drf[1]", "drf", func() Scheduler { return NewDRFWithNetwork() }, 5100, 1, 8, 0xe9c58e65652a26c5},
		{"slotfair", "slot-fair", func() Scheduler { return NewSlotFair() }, 9000, 3, 6, 0x95b284e265ee9e9c},
	}
	policyRounds := map[string]int{}
	for _, c := range cases {
		h := fnv.New64a()
		mk := func() Scheduler { return digestScheduler{c.mk(), h} }
		for g := int64(0); g < c.groups; g++ {
			for s := int64(0); s < c.seeds; s++ {
				policyRounds[c.policy] += runEquivalenceN(t, c.name, []string{c.name},
					[]func() Scheduler{mk}, c.base+100*g+7*s, rounds, false)
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: decision digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
	for policy, n := range policyRounds {
		if n < 300 {
			t.Errorf("only %d %s rounds, want >= 300", n, policy)
		}
	}
}

// FuzzScheduleEquivalence lets the fuzzer steer world seed, Tetris knob
// combination, round count and the world's shape: bit 0 selects the
// deep-backlog family (runDeepEquivalence), bit 1 gives its tasks input
// blocks, bit 2 turns machine faults off.
func FuzzScheduleEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(0))
	f.Add(int64(42), uint8(0xFF), uint8(12), uint8(0))
	f.Add(int64(7), uint8(3), uint8(10), uint8(4))
	f.Add(int64(99), uint8(1), uint8(10), uint8(3))
	f.Add(int64(-3), uint8(0x55), uint8(15), uint8(0))
	f.Add(int64(5), uint8(0), uint8(17), uint8(1))
	f.Add(int64(11), uint8(0xA4), uint8(19), uint8(3))
	f.Add(int64(-8), uint8(0x41), uint8(13), uint8(5))
	f.Add(int64(23), uint8(0x9E), uint8(18), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, knobs, rounds, shape uint8) {
		r := 2 + int(rounds%20)
		cfg := DefaultTetrisConfig()
		cfg.Fairness = []float64{0, 0.25, 0.5, 0.999}[knobs&3]
		cfg.Barrier = []float64{0.5, 0.8, 0.9, 1}[(knobs>>2)&3]
		cfg.SRTFOnly = knobs&(1<<4) != 0
		cfg.CPUMemOnly = knobs&(1<<5) != 0
		if knobs&(1<<6) != 0 {
			cfg.HotspotThreshold = 0.8
		}
		if knobs&(1<<7) != 0 {
			cfg.StarvationSec = 2
		}
		cfg.Scorer = Scorers()[int(knobs)%len(Scorers())]
		if shape&1 != 0 {
			runDeepEquivalence(t, "fuzz-tetris-deep", deepRun{
				cfg: cfg, seed: seed, rounds: 3 * r,
				inputs: shape&2 != 0, faults: shape&4 == 0,
			})
			return
		}
		labels, mks := tetrisCoreMakers(cfg)
		runEquivalenceN(t, "fuzz-tetris", labels, mks,
			seed, r, cfg.HotspotThreshold > 0)
	})
}
