package scheduler

import (
	"slices"

	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// TetrisConfig parameterizes the Tetris scheduler. The zero value is not
// useful; start from DefaultTetrisConfig.
type TetrisConfig struct {
	// Fairness knob f ∈ [0,1): when resources free up, only the
	// ⌈(1−f)·|J|⌉ jobs furthest from fair share are considered (§3.4).
	// f=0 is the most efficient (and most unfair) schedule; the paper's
	// default operating point is 0.25.
	Fairness float64
	// Barrier knob b ∈ [0,1]: once a b fraction of a stage preceding a
	// barrier has finished, its remaining tasks get preference (§3.5).
	// b=1 disables the preference; the paper recommends ≈ 0.9.
	Barrier float64
	// RemotePenalty multiplies the alignment score of a placement that
	// reads input remotely (§3.2; the paper uses 10%, i.e. score × 0.9).
	RemotePenalty float64
	// EpsilonMultiplier m scales ε = m·ā/p̄ in the combined score
	// a − ε·p (§3.3.2). m=0 is packing-only; m=1 is the default.
	EpsilonMultiplier float64
	// Scorer computes alignment; nil means CosineScorer.
	Scorer Scorer
	// SRTFOnly disables the alignment term, scheduling purely by
	// remaining work (the ablation of §5.3.1).
	SRTFOnly bool
	// HotspotThreshold: machines whose reported usage exceeds this
	// fraction of capacity on any dimension receive no new tasks (the
	// ingestion-avoidance behaviour of Figure 6). Zero disables.
	HotspotThreshold float64
	// CPUMemOnly restricts Tetris to CPU and memory, ignoring disk and
	// network like the baselines — the §5.3.1 ablation that attributes
	// roughly two thirds of the gains to avoiding IO over-allocation.
	CPUMemOnly bool
	// StarvationSec enables the reservation-based starvation prevention
	// the paper leaves to future work (§3.5): a runnable task that has
	// not fit anywhere for this many seconds gets a machine reserved —
	// the machine accepts no other new tasks until the starved task fits.
	// Zero disables (the paper's deployment did not need it).
	StarvationSec float64
	// Trace, when non-nil, collects sampled per-round decision traces
	// (trace.go). Read-only observation: it never alters decisions. The
	// test-side oracle the core is compared against is kept
	// instrumentation-free and emits none.
	Trace *DecisionRing
}

// DefaultTetrisConfig returns the paper's default operating point:
// f=0.25, b=0.9, 10% remote penalty, ε=ā/p̄, cosine alignment.
func DefaultTetrisConfig() TetrisConfig {
	return TetrisConfig{
		Fairness:          0.25,
		Barrier:           0.9,
		RemotePenalty:     0.1,
		EpsilonMultiplier: 1,
		Scorer:            CosineScorer{},
	}
}

// Tetris is the multi-resource packing scheduler of §3. It combines the
// alignment (packing) heuristic, the multi-resource SRTF job score, the
// fairness knob and barrier-aware preference. A Tetris instance keeps
// incremental state across Schedule calls (score caches and a locality
// index); use one instance per cluster.
type Tetris struct {
	cfg TetrisConfig
	// stageScore caches the average per-task SRTF score of each (job,
	// stage): Σ-normalized-demand × duration, averaged over the stage's
	// tasks. Remaining work is then remainingTasks × avg per stage.
	// Entries carry the estimate of the stage's first task as an
	// invalidation probe: when the estimator (§4.1) refines a stage —
	// Overestimated → FromStage, or a running mean moving — the probe
	// changes and the average is recomputed, so SRTF ordering tracks the
	// current estimates instead of whatever was seen first.
	stageScore map[[2]int]stageScoreEntry
	// locals indexes tasks by the machines holding their input blocks,
	// one list per machine ID. Entries are dropped lazily once their task
	// is no longer pending; localsCursor rotates each machine's scan start
	// so blocked entries at the front cannot starve the rest of the list.
	locals       [][]locEntry
	localsCursor []int
	localsSwept  []bool // evictDeparted's scratch
	indexedJobs  map[int]*workload.Job
	// localsRound numbers the Schedule calls; it is the validity stamp of
	// the locality index's per-stage records (locStage). Starts at 1, so a
	// new record is valid for no round.
	localsRound uint64
	// Starvation prevention (§3.5 extension): when a runnable task has
	// waited past StarvationSec, a whole machine is reserved for it in
	// res — the shared reservation table (internal/reserve) that gang
	// capacity holds also live in when a gang coordinator wraps this
	// scheduler.
	firstSeen map[*workload.Task]float64
	res       *reserve.Table
	// active maps job ID → state for the jobs in the current View;
	// rebuilt each round by evictDeparted, which sweeps the per-job maps
	// above so finished jobs cannot grow them without bound.
	active map[int]*JobState
	// uncachedSRTF disables the stageScore cache entirely. Test hook:
	// the estimator-rescoring differential suite compares cached runs
	// against this from-scratch oracle.
	uncachedSRTF bool
	// inc holds the core's round-scoped caches and scratch buffers
	// (tetris_incremental.go). Lazily initialized.
	inc incrState
	// epsTrace, when non-nil, records every ε value the inner loop
	// computes, in decision order. Test hook for the ε regression suite.
	epsTrace *[]float64
}

// recordEps appends ε to the test trace when enabled.
func (t *Tetris) recordEps(eps float64) {
	if t.epsTrace != nil {
		*t.epsTrace = append(*t.epsTrace, eps)
	}
}

// locEntry is one (machine, task) pair of the locality index: the task
// has an input block on the machine. st is shared by all entries of the
// task's stage, on every machine, and idx is the task's index in it. A
// nil st is a tombstone. A scan reads the task only to offer it.
type locEntry struct {
	st  *locStage
	idx int
}

// locStage is what a scanLocals visit needs to know about an entry's
// (job, stage). All of it is fixed for a scheduling round — the View's
// job set, a stage's readiness and barrier-tail status (functions of done
// counts, which move only between rounds) and the round's eligible set —
// so the first visit of a round derives it and every other visit of any
// of the stage's entries, from any machine, reads it.
type locStage struct {
	jobID int
	stage int
	tasks []*workload.Task // the stage's tasks, indexed by locEntry.idx
	// stamp is the Tetris.localsRound the fields below were derived in.
	stamp    uint64
	job      *JobState            // nil: the job has left the View
	states   []workload.TaskState // Status.StageStates: one round's task states
	ready    bool                 // Status.StageReady
	inTail   bool                 // Status.InBarrierTail under cfg.Barrier
	eligible bool                 // roundState.eligible[jobID]
}

// NewTetris creates a Tetris scheduler with the given configuration.
func NewTetris(cfg TetrisConfig) *Tetris {
	if cfg.Scorer == nil {
		cfg.Scorer = CosineScorer{}
	}
	if cfg.Barrier <= 0 {
		cfg.Barrier = 1 // disabled
	}
	return &Tetris{
		cfg:         cfg,
		stageScore:  make(map[[2]int]stageScoreEntry),
		indexedJobs: make(map[int]*workload.Job),
		localsRound: 1,
		firstSeen:   make(map[*workload.Task]float64),
		res:         reserve.New(),
		active:      make(map[int]*JobState),
	}
}

// Name implements Scheduler.
func (t *Tetris) Name() string { return "tetris" }

// Reservations exposes the shared reservation table. A gang coordinator
// (internal/gang) wrapping this scheduler installs its capacity hoards
// in the same table the starvation guard uses, so each side's holds are
// visible to the other: the fill loops treat any reserved machine as
// closed, and detectStarvation never reserves a machine a gang already
// holds.
func (t *Tetris) Reservations() *reserve.Table { return t.res }

// taskSRTFScore is one task's contribution to the job's remaining-work
// score: duration × Σ of capacity-normalized demands (§3.3.1). Each
// factor saturates at srtfCap, so an admissible demand over a vanishing
// capacity component still scores finite: an infinite score would make
// ε zero and every candidate's score 0·Inf = NaN.
func taskSRTFScore(peak resources.Vector, duration float64, total resources.Vector) float64 {
	return min(duration, srtfCap) * min(peak.Normalize(total).Sum(), srtfCap)
}

// srtfCap bounds each factor of taskSRTFScore (the workload package's
// duration sentinel): a job's score stays far below overflow.
const srtfCap = 1e30

// stageScoreEntry is one (job, stage) SRTF average plus the estimate of
// the stage's first task at the time the average was computed. Estimates
// move per (job, stage) — the §4.1 estimator keys its statistics that
// way, so every task of a stage shifts together — which makes the first
// task a sufficient staleness probe. Custom View.EstimateDemand oracles
// must preserve that property (move a stage's estimates together) for
// the cache to track them; the built-in estimator does.
type stageScoreEntry struct {
	avg       float64
	probePeak resources.Vector
	probeDur  float64
}

// remainingWork returns the multi-resource SRTF score of a job: the total
// resource×time consumption of its not-yet-finished tasks. Per-stage
// averages are cached and recomputed whenever the scheduler-visible
// estimate of the stage moves (see stageScoreEntry).
func (t *Tetris) remainingWork(v *View, j *JobState) float64 {
	p := 0.0
	for si := range j.Job.Stages {
		rem := j.Status.RemainingInStage(si)
		if rem == 0 {
			continue
		}
		tasks := j.Job.Stages[si].Tasks
		if len(tasks) == 0 {
			continue
		}
		probePeak, probeDur := v.Demand(j, tasks[0])
		key := [2]int{j.Job.ID, si}
		e, ok := t.stageScore[key]
		if t.uncachedSRTF || !ok || e.probePeak != probePeak || e.probeDur != probeDur {
			sum := taskSRTFScore(probePeak, probeDur, v.Total)
			for _, task := range tasks[1:] {
				peak, dur := v.Demand(j, task)
				sum += taskSRTFScore(peak, dur, v.Total)
			}
			e = stageScoreEntry{avg: sum / float64(len(tasks)), probePeak: probePeak, probeDur: probeDur}
			t.stageScore[key] = e
		}
		p += e.avg * float64(rem)
	}
	return p
}

// evictDeparted rebuilds the active-job index for this round and sweeps
// each indexed job no longer in the View (a job a gang coordinator hid is
// indexed afresh when shown again) out of stageScore, indexedJobs,
// firstSeen, reservations, the locality index and the task cache,
// visiting only what the job owns. The core and its oracle share it; map
// order never leaks into decisions (the sweeps only delete, and
// compaction preserves order).
func (t *Tetris) evictDeparted(v *View) {
	clear(t.active)
	for _, j := range v.Jobs {
		t.active[j.Job.ID] = j
	}
	departed := false
	for id, job := range t.indexedJobs {
		if t.active[id] != nil {
			continue
		}
		delete(t.indexedJobs, id)
		departed = true
		for si, st := range job.Stages {
			delete(t.stageScore, [2]int{id, si})
			for _, task := range st.Tasks {
				t.inc.retire(task)
				for _, b := range task.Inputs {
					if b.Machine >= 0 {
						t.localsSwept[b.Machine] = true
					}
				}
			}
		}
	}
	// firstSeen also drops tasks that left the pending state while
	// recorded as a starvation head: they can never starve again.
	for task := range t.firstSeen {
		j := t.active[task.ID.Job]
		if j == nil || j.Status.State(task.ID) != workload.Pending {
			delete(t.firstSeen, task)
		}
	}
	// Only starved-task reservations are swept here: gang hoards are
	// owned by the coordinator (which hides their holder jobs from this
	// scheduler's view, so they would always look departed).
	t.res.Sweep(0, func(_ int, r reserve.Reservation) bool {
		return r.Kind == reserve.Starved && t.active[r.Holder] == nil
	}, nil)
	if !departed {
		return
	}
	// Every cursor is reduced: scanLocals stores it unreduced, and a list
	// that grows later would otherwise start its next scan elsewhere.
	for mid, entries := range t.locals {
		if n := len(entries); n > 0 && !t.localsSwept[mid] {
			t.localsCursor[mid] %= n
		} else if n > 0 {
			last, gone := (*locStage)(nil), false // one job lookup per run of a stage's entries
			for i, e := range entries {
				if e.st != last {
					last, gone = e.st, t.active[e.st.jobID] == nil
				}
				if gone {
					entries[i].st = nil
				}
			}
			t.compactLocals(mid, t.localsCursor[mid]%n)
		}
	}
	clear(t.localsSwept)
}

// indexJob adds a newly seen job's input block locations to the locality
// index, one entry per (task, machine).
func (t *Tetris) indexJob(j *JobState) {
	if t.indexedJobs[j.Job.ID] != nil {
		return
	}
	t.indexedJobs[j.Job.ID] = j.Job
	for si, st := range j.Job.Stages {
		var ls *locStage
		for ti, task := range st.Tasks {
			for k, b := range task.Inputs {
				if b.Machine < 0 || slices.ContainsFunc(task.Inputs[:k], func(o workload.InputBlock) bool { return o.Machine == b.Machine }) {
					continue
				}
				if ls == nil {
					ls = &locStage{jobID: j.Job.ID, stage: si, tasks: st.Tasks}
				}
				for len(t.locals) <= b.Machine {
					t.locals = append(t.locals, nil)
					t.localsCursor = append(t.localsCursor, 0)
					t.localsSwept = append(t.localsSwept, false)
				}
				t.locals[b.Machine] = append(t.locals[b.Machine], locEntry{ls, ti})
			}
		}
	}
}

// candidate is one feasible (task, machine) option under evaluation.
type candidate struct {
	task   *workload.Task
	demand resources.Vector
	remote []RemoteCharge
	align  float64
	inTail bool
	// p is the job's remaining-work score, denormalized into the
	// candidate so selection needs no map lookups. The oracle leaves it
	// zero and reads its own pScore map.
	p float64
	// tr is the core's cache entry for the task, so a placement can stamp
	// it taken without a map access. Nil in the oracle's candidates.
	tr *taskRound
}

// stageRun is the per-round view of one job stage's pending tasks. Tasks
// within a stage are statistically similar (§4.1), so per machine we
// evaluate only a few of them (plus any with input local to the machine)
// instead of all — the same aggregation the real system's asks perform.
type stageRun struct {
	job      *JobState
	stage    int
	tasks    []*workload.Task // fetched pending prefix
	cursor   int              // first possibly-untaken index
	pending  int              // total pending at round start
	inTail   bool
	eligible bool
	// trs caches the core's taskRound entry per position in tasks (padded
	// lazily), replacing a map lookup per scanned task. Within a round the
	// pending set is stable, so positions are too. The oracle leaves it
	// unused.
	trs []*taskRound
	// env is the core's demand envelope of the stage's scan
	// window, valid while envOK: the component-wise minimum, over the
	// window's tasks, of a machine-independent lower bound of each one's
	// placement demand (taskRound.demandFloor). A free vector env does not
	// fit in fits no task of the window, so collectIncr skips the scan
	// (see there). Recorded by a scan that added nothing, retired when a
	// window task is taken (incrState.markTaken) and with the round.
	env   resources.Vector
	envOK bool
}

// ensureFetched extends the fetched prefix when the round has consumed
// most of it and more pending tasks exist.
func (sr *stageRun) ensureFetched() {
	if len(sr.tasks) >= sr.pending {
		return
	}
	want := len(sr.tasks)*2 + 8
	if want > sr.pending {
		want = sr.pending
	}
	sr.tasks = sr.job.Status.AppendPending(sr.stage, want, sr.tasks[:0])
}

// roundState is built once per Schedule invocation.
type roundState struct {
	stages   []*stageRun
	byJob    map[int]*JobState
	eligible map[int]bool
	taken    map[*workload.Task]bool
}

// Schedule implements Scheduler: for every machine with headroom it
// repeatedly picks the feasible task with the highest combined score
// (alignment − ε·remaining-work), honoring the fairness and barrier
// knobs, until nothing more fits (§3.2–§3.5).
//
// One implementation backs it, the incremental core
// (tetris_incremental.go). The straight-line loop the paper's pseudo-code
// maps onto directly lives behind the test boundary as its oracle
// (tetris_reference_test.go): the equivalence suite and
// FuzzScheduleEquivalence keep the two bit-identical, and no production
// code can reach it.
func (t *Tetris) Schedule(v *View) []Assignment {
	t.localsRound++
	t.evictDeparted(v)
	return t.scheduleIncremental(v)
}

// serveReservations places starved tasks on their reserved machines when
// they finally fit, and clears reservations whose task is gone. Caller
// must have StarvationSec > 0. Reservations are visited in ascending
// machine-id order: map iteration order must not leak into the
// assignment sequence, or replays (and the equivalence with the oracle)
// stop being deterministic.
func (t *Tetris) serveReservations(v *View, free []resources.Vector, rs *roundState) []Assignment {
	var out []Assignment
	for _, mid := range t.res.Machines() {
		r, _ := t.res.Get(mid)
		if r.Kind != reserve.Starved {
			continue // gang hoards are managed by the coordinator
		}
		task := r.Task
		j, ok := rs.byJob[task.ID.Job]
		if !ok || j.Status.State(task.ID) != workload.Pending {
			t.res.Release(mid) // placed elsewhere or job finished
			continue
		}
		if mid >= len(v.Machines) || v.Machines[mid].Down {
			// Reserved machine gone or crashed: release the reservation;
			// the task re-enters starvation detection on a live machine.
			t.res.Release(mid)
			continue
		}
		peak := v.DemandPeak(j, task)
		d := EffectiveDemand(peak, task, mid)
		if !d.FitsIn(free[mid]) {
			continue // keep waiting; machine stays closed
		}
		remote := LiveCharges(v, RemoteCharges(task, mid))
		feasible := true
		for _, rc := range remote {
			if !rc.Charge.FitsIn(free[rc.Machine]) {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		out = append(out, Assignment{Task: task, Machine: mid, Local: d, Remote: remote})
		rs.taken[task] = true
		free[mid] = free[mid].Sub(d).Max(resources.Vector{})
		for _, rc := range remote {
			free[rc.Machine] = free[rc.Machine].Sub(rc.Charge).Max(resources.Vector{})
		}
		t.res.Release(mid)
		delete(t.firstSeen, task)
	}
	return out
}

// detectStarvation records how long each stage's head task has been
// runnable and reserves a machine for at most one newly starved task per
// round. Caller must have StarvationSec > 0.
func (t *Tetris) detectStarvation(v *View, rs *roundState) {
	alreadyReserved := make(map[*workload.Task]bool, t.res.Len())
	t.res.Each(func(_ int, r reserve.Reservation) {
		if r.Task != nil {
			alreadyReserved[r.Task] = true
		}
	})
	for _, sr := range rs.stages {
		if sr.cursor >= len(sr.tasks) {
			continue
		}
		task := sr.tasks[sr.cursor]
		if rs.taken[task] || alreadyReserved[task] {
			delete(t.firstSeen, task)
			continue
		}
		seen, ok := t.firstSeen[task]
		if !ok {
			t.firstSeen[task] = v.Time
			continue
		}
		if v.Time-seen < t.cfg.StarvationSec {
			continue
		}
		// Starved: reserve the unreserved machine with the most capacity
		// headroom for it — but only a machine the task could ever run
		// on. Without the max-peak feasibility check the reservation
		// pins a machine the task never fits (e.g. a whale task on a
		// minnow-sized fleet), closing that machine to everyone forever.
		peak := v.DemandPeak(sr.job, task)
		best, bestFree := -1, -1.0
		for _, m := range v.Machines {
			if m.Down || t.res.Held(m.ID) {
				continue
			}
			if !EffectiveDemand(peak, task, m.ID).FitsIn(m.Capacity) {
				continue
			}
			if f := m.Capacity.Sum(); f > bestFree {
				best, bestFree = m.ID, f
			}
		}
		if best >= 0 {
			t.res.Put(best, reserve.Reservation{
				Kind:   reserve.Starved,
				Holder: task.ID.Job,
				Task:   task,
			})
			return // at most one new reservation per round
		}
	}
}

// perStage and scanBudget bound each stage's candidate gathering: up to
// perStage *feasible* candidates per stage, examining at most scanBudget
// pending tasks. Tasks within a stage have similar demands but different
// input locations, so an infeasible head (its source machines busy) must
// not block the rest of the stage. The core and its oracle share the
// constants — the scan shape is part of the policy's decisions.
const (
	perStage   = 3
	scanBudget = 16
)

// projectCPUMem restricts a demand vector to CPU and memory — the
// CPUMemOnly ablation's view of the world. Shared with the oracle so the
// arithmetic (and therefore the decisions) stays identical.
func projectCPUMem(d resources.Vector) resources.Vector {
	return resources.Vector{}.
		With(resources.CPU, d.Get(resources.CPU)).
		With(resources.Memory, d.Get(resources.Memory))
}

// scanLocals walks the locality index of machine mid, feeding pending
// local tasks of eligible jobs to consider. Entries whose task is no
// longer pending (or whose job is gone) are compacted away. The scan
// starts at a per-machine rotating cursor so blocked entries at the list
// head cannot permanently hide the rest.
//
// No tombstone lies ahead of a scan (scans and evictDeparted compact
// theirs) and a (job, stage)'s entries on a machine are adjacent, so a
// run of them from a stage that is not ready is stepped by pointer alone.
func (t *Tetris) scanLocals(mid int, rs *roundState, consider func(*JobState, *workload.Task, bool)) {
	if mid >= len(t.locals) || len(t.locals[mid]) == 0 {
		return
	}
	entries, n := t.locals[mid], len(t.locals[mid])
	const (
		maxConsider = 8
		maxScan     = 64
	)
	start := t.localsCursor[mid] % n
	considered, scanned, dead := 0, 0, 0
	off, i := 0, start // i is (start+off) mod n
	for off < n && considered < maxConsider && scanned < maxScan {
		ls, k := entries[i].st, 1 // k: the entries this step covers
		if ls.stamp != t.localsRound {
			ls.stamp = t.localsRound
			ls.job = rs.byJob[ls.jobID]
			if ls.job != nil {
				st := ls.job.Status
				ls.states = st.StageStates(ls.stage)
				ls.ready = st.StageReady(ls.stage)
				ls.inTail = st.InBarrierTail(workload.TaskID{Job: ls.jobID, Stage: ls.stage}, t.cfg.Barrier)
				ls.eligible = rs.eligible[ls.jobID]
			}
		}
		switch {
		case ls.job == nil:
			// Job gone: finished, or hidden (indexed afresh if shown).
			entries[i].st = nil
			dead++
		case !ls.ready:
			// Tested before the task's state, skipping no tombstone:
			// every task of a stage that is not ready is Pending (a
			// ready stage stays ready, and placing needs readiness).
			for run := min(n-off, maxScan-scanned, n-i); k < run && entries[i+k].st == ls; {
				k++
			}
		case ls.states[entries[i].idx] != workload.Pending:
			// Running or done. A task that fails returns to Pending,
			// but the locality scan no longer offers it (DESIGN §7).
			entries[i].st = nil
			dead++
		case !ls.inTail && !ls.eligible:
			// fairness restriction applies to non-tail tasks
		default:
			if task := ls.tasks[entries[i].idx]; !rs.taken[task] {
				consider(ls.job, task, ls.inTail)
				considered++
			}
		}
		scanned += k
		off += k
		if i += k; i == n {
			i = 0
		}
	}
	if dead == 0 {
		t.localsCursor[mid] = start + off
		return
	}
	t.compactLocals(mid, i)
}

// compactLocals drops the tombstones of machine mid's list, preserving
// order, and points its cursor at position next in post-compaction
// coordinates: a pre-compaction cursor points past the wrong entry once
// the list shrank, repeatedly skipping live local tasks.
func (t *Tetris) compactLocals(mid, next int) {
	entries := t.locals[mid]
	cursor := 0
	out := entries[:0]
	for i, e := range entries {
		if e.st != nil {
			if i < next {
				cursor++
			}
			out = append(out, e)
		}
	}
	clear(entries[len(out):]) // no stale stage record outlives its job
	t.locals[mid] = out
	t.localsCursor[mid] = cursor % max(len(out), 1)
}
