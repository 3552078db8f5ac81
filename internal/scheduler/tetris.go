package scheduler

import (
	"math"
	"slices"
	"sort"

	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
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
// incremental state across Schedule calls (a record per job, a task
// cache and a locality index); use one instance per cluster.
type Tetris struct {
	cfg TetrisConfig
	// jobs holds one record per job in the View, created when the job
	// first enters it and deleted by the departure sweep of the first
	// round it is missing from (evictDeparted).
	jobs map[int]*jobRecord
	// round numbers the Schedule calls, the first being 1. It stamps the
	// records, the locality index's per-stage records (locStage), the
	// task cache's entries and the taken marks; a zero stamp is valid for
	// no round.
	round uint64
	fresh []*jobRecord // beginRound's scratch: the round's new records
	// locals indexes tasks by the machines holding their input blocks,
	// one list per machine ID. Entries are dropped lazily once their task
	// is no longer pending; localsCursor rotates each machine's scan start
	// so blocked entries at the front cannot starve the rest of the list.
	locals       [][]locEntry
	localsCursor []int
	localsSwept  []bool // evictDeparted's scratch
	// Starvation prevention (§3.5 extension): when a runnable task has
	// waited past StarvationSec, a whole machine is reserved for it in
	// res — the shared reservation table (internal/reserve) that gang
	// capacity holds also live in when a gang coordinator wraps this
	// scheduler.
	firstSeen map[*workload.Task]float64
	res       *reserve.Table
	reserved  []*workload.Task // detectStarvation's scratch: the tasks res holds machines for
	// uncachedSRTF disables the per-stage score cache entirely. Test
	// hook: the estimator-rescoring differential suite compares cached
	// runs against this from-scratch oracle.
	uncachedSRTF bool
	// epsTrace, when non-nil, records every ε value the inner loop
	// computes, in decision order. Test hook for the ε regression suite.
	epsTrace *[]float64

	// What follows is the core's round-scoped caches and scratch
	// buffers, reused across Schedule calls.
	tick     uint32
	runnable []*jobRecord // beginRound's result
	sorter   deficitSorter

	free []resources.Vector

	stages   []*stageRun // the round's stage runs, in scan order (buildRound)
	stageBuf []stageRun  // backing array for stages; task slices recycled

	// spare holds entries retired from the records' slots, zeroed, for
	// reuse. It is refilled at the end of a round, in one pass over the
	// round's assignments, and when a job departs.
	spare []*taskRound
	// carries holds the envelope records (stageCarry) of departed jobs,
	// for reuse by keepEnvelope.
	carries []*stageCarry

	// out backs the round's assignments; Schedule's result is valid
	// until the next call.
	out []Assignment

	cands    []candidate
	aSumAll  float64 // Σ align over all candidates, in append order
	aSumTail float64 // Σ align over barrier-tail candidates only
	anyTail  bool

	// machEnv is the minimum of the envelopes of the stages a walk
	// visits; machEnvStages counts them, 0 while one has no envelope and
	// -1 while machEnv is stale (collectIncr).
	machEnv       resources.Vector
	machEnvStages int

	// total is the View.Total of the last round and totalRound the round
	// it last moved in: an envelope kept across rounds dies with it (see
	// stageCarry).
	total      resources.Vector
	totalRound uint64

	// Context of the collect call in flight, threaded through fields so
	// the scanLocals callback needs no per-call closure. curNormA is
	// computed at the first alignment.
	curV       *View
	curMid     int
	curAvail   resources.Vector
	curCap     resources.Vector
	curNormA   resources.Vector
	curNormAOK bool
	consider   func(*jobRecord, *workload.Task, bool)

	// rt is the decision trace of the round in flight; nil when tracing
	// is off or the round is sampled out (the common case — every hook
	// is then one nil check). A sampled round is built in rtBuf, whose
	// slices every sampled round reuses; the ring gets a clone.
	rt    *RoundTrace
	rtBuf RoundTrace

	scan ScanStats // cumulative, see Tetris.ScanStats
}

// jobRecord is what the core keeps about one job of the View. state,
// seen and eligible are rewritten every round the job is in the View,
// p every round it has runnable work; the rest lives as long as the
// record.
type jobRecord struct {
	job      *workload.Job // as indexed
	state    *JobState     // the View's, as of round seen
	seen     uint64        // the last round the job was in the View
	eligible bool          // under the fairness knob this round (§3.4)
	p        float64       // remaining-work score this round
	// stages caches the average per-task SRTF score of each stage:
	// Σ-normalized-demand × duration, averaged over the stage's tasks.
	// Remaining work is then remainingTasks × avg per stage. Entries
	// carry the estimate of the stage's first task as an invalidation
	// probe: when the estimator (§4.1) refines a stage — Overestimated →
	// FromStage, or a running mean moving — the probe changes and the
	// average is recomputed, so SRTF ordering tracks the current
	// estimates instead of whatever was seen first.
	stages []stageScoreEntry
	// slots holds the job's per-task round state, one slice per stage
	// indexed by Task.ID.Index (see taskSlot).
	slots [][]taskSlot
}

// taskSlot is a job record's place for one task: the task's cache entry,
// nil until a round first evaluates the task and again once the entry is
// retired, and the round that placed the task, 0 for none. A task is
// taken in the round its slot's stamp equals.
type taskSlot struct {
	tr    *taskRound
	taken uint64
}

// slot returns the record's slot of task, one of the job's tasks.
func (rec *jobRecord) slot(task *workload.Task) *taskSlot {
	return &rec.slots[task.ID.Stage][task.ID.Index]
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
// (job, stage). All of it is fixed for a scheduling round — whether the
// job is in the View, a stage's readiness and barrier-tail status
// (functions of done counts, which move only between rounds) and the
// job's eligibility — so the first visit of a round derives it and every
// other visit of any of the stage's entries, from any machine, reads it.
type locStage struct {
	rec   *jobRecord
	stage int
	tasks []*workload.Task // the stage's tasks, indexed by locEntry.idx
	// stamp is the Tetris.round the fields below were derived in; they
	// are derived only while rec.seen is that round too.
	stamp  uint64
	states []workload.TaskState // Status.StageStates: one round's task states
	ready  bool                 // Status.StageReady
	inTail bool                 // Status.InBarrierTail under cfg.Barrier
}

// NewTetris creates a Tetris scheduler with the given configuration.
func NewTetris(cfg TetrisConfig) *Tetris {
	if cfg.Scorer == nil {
		cfg.Scorer = CosineScorer{}
	}
	if cfg.Barrier <= 0 {
		cfg.Barrier = 1 // disabled
	}
	t := &Tetris{
		cfg:       cfg,
		jobs:      make(map[int]*jobRecord),
		firstSeen: make(map[*workload.Task]float64),
		res:       reserve.New(),
	}
	t.consider = t.considerIncr
	return t
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
//
// The entry also holds what the incremental core keeps of the stage
// between rounds: the stage's index in the round's runs (run, see runOf)
// and its envelope (carry). A recomputed average drops the envelope,
// since the estimates it was taken from moved. run shares a word with
// set, and carry is nil for a stage that never recorded an envelope, so a
// one-stage job's slice stays in the 80-B size class.
type stageScoreEntry struct {
	set       bool  // computed at least once
	run       int32 // the stage's index in Tetris.stages, written by buildRound
	avg       float64
	probePeak resources.Vector
	probeDur  float64
	carry     *stageCarry
}

// stageCarry is a stage envelope kept for later rounds: the envelope a
// scan recorded over a window that was the stage's first n pending tasks,
// none of them taken, the last of them of index last. buildRound installs
// it in the stage's run while the window is sure to be the same tasks
// with the same floors: the job's pending set has not moved (the Status
// and its PendingGen are the ones read at recording), the estimates have
// not moved (the stage's SRTF probe, which sets status to nil when it
// recomputes), and neither has View.Total (an estimate may read the
// fleet: the RM's is clamped to its largest machine).
type stageCarry struct {
	env     resources.Vector
	status  *workload.Status
	gen     uint64
	round   uint64 // the round it was recorded in
	n, last int
}

// remainingWork returns the multi-resource SRTF score of a job: the total
// resource×time consumption of its not-yet-finished tasks. Per-stage
// averages are cached in the job's record and recomputed whenever the
// scheduler-visible estimate of the stage moves (see stageScoreEntry).
func (t *Tetris) remainingWork(v *View, rec *jobRecord) float64 {
	j := rec.state
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
		e := &rec.stages[si]
		if t.uncachedSRTF || !e.set || e.probePeak != probePeak || e.probeDur != probeDur {
			sum := taskSRTFScore(probePeak, probeDur, v.Total)
			for _, task := range tasks[1:] {
				peak, dur := v.Demand(j, task)
				sum += taskSRTFScore(peak, dur, v.Total)
			}
			e.set, e.avg, e.probePeak, e.probeDur = true, sum/float64(len(tasks)), probePeak, probeDur
			if e.carry != nil {
				e.carry.status = nil
			}
		}
		p += e.avg * float64(rem)
	}
	return p
}

// beginRound is the prologue the core and its oracle share. It stamps
// the record of every job in the View (creating one for a job seen for
// the first time), sweeps the departed jobs, then indexes the new ones in
// View order — the order the locality cursors depend on. It returns the
// records of the View's jobs with runnable work, in View order, in a
// buffer the next round reuses.
func (t *Tetris) beginRound(v *View) []*jobRecord {
	t.round++
	t.runnable = t.runnable[:0]
	for _, j := range v.Jobs {
		rec := t.jobs[j.Job.ID]
		if rec == nil {
			rec = t.newRecord(j)
			t.fresh = append(t.fresh, rec)
		}
		rec.state, rec.seen, rec.eligible = j, t.round, false
		if j.Status.HasRunnable() {
			t.runnable = append(t.runnable, rec)
		}
	}
	t.evictDeparted(len(t.jobs) > len(v.Jobs)) // every View job has a record
	for _, rec := range t.fresh {
		t.indexJob(rec)
	}
	clear(t.fresh)
	t.fresh = t.fresh[:0]
	return t.runnable
}

// newRecord adds the record of a job the View shows for the first time.
func (t *Tetris) newRecord(j *JobState) *jobRecord {
	rec := &jobRecord{
		job:    j.Job,
		stages: make([]stageScoreEntry, len(j.Job.Stages)),
		slots:  make([][]taskSlot, len(j.Job.Stages)),
	}
	for si, st := range j.Job.Stages {
		rec.slots[si] = make([]taskSlot, len(st.Tasks))
	}
	t.jobs[j.Job.ID] = rec
	return rec
}

// inView returns the record of job id if the job is in this round's View.
func (t *Tetris) inView(id int) *jobRecord {
	if rec := t.jobs[id]; rec != nil && rec.seen == t.round {
		return rec
	}
	return nil
}

// evictDeparted sweeps each job whose record this round did not stamp (a
// job a gang coordinator hid is indexed afresh when shown again) out of
// the records, firstSeen, reservations, the locality index and the task
// cache, visiting only what the job owns. Map order never leaks into
// decisions (the sweeps only delete, and compaction preserves order).
// beginRound passes departed false when the records are no more than the
// View's jobs, each of which it stamped: then the records are not walked.
func (t *Tetris) evictDeparted(departed bool) {
	if departed {
		for id, rec := range t.jobs {
			if rec.seen == t.round {
				continue
			}
			delete(t.jobs, id)
			for _, e := range rec.stages {
				if e.carry != nil {
					e.carry.status = nil
					t.carries = append(t.carries, e.carry)
				}
			}
			for _, st := range rec.job.Stages {
				for _, task := range st.Tasks {
					t.retire(rec, task)
					for _, b := range task.Inputs {
						if b.Machine >= 0 {
							t.localsSwept[b.Machine] = true
						}
					}
				}
			}
		}
	}
	// firstSeen also drops tasks that left the pending state while
	// recorded as a starvation head: they can never starve again.
	for task := range t.firstSeen {
		rec := t.inView(task.ID.Job)
		if rec == nil || rec.state.Status.State(task.ID) != workload.Pending {
			delete(t.firstSeen, task)
		}
	}
	// Only starved-task reservations are swept here: gang hoards are
	// owned by the coordinator (which hides their holder jobs from this
	// scheduler's view, so they would always look departed).
	t.res.Sweep(func(r reserve.Reservation) bool {
		return r.Kind == reserve.Starved && t.inView(r.Holder) == nil
	})
	if !departed {
		return
	}
	// Every cursor is reduced: scanLocals stores it unreduced, and a list
	// that grows later would otherwise start its next scan elsewhere.
	for mid, entries := range t.locals {
		if n := len(entries); n > 0 && !t.localsSwept[mid] {
			t.localsCursor[mid] %= n
		} else if n > 0 {
			for i, e := range entries {
				if e.st.rec.seen != t.round {
					entries[i].st = nil
				}
			}
			t.compactLocals(mid, t.localsCursor[mid]%n)
		}
	}
	clear(t.localsSwept)
}

// indexJob adds a new record's input block locations to the locality
// index, one entry per (task, machine).
func (t *Tetris) indexJob(rec *jobRecord) {
	for si, st := range rec.job.Stages {
		var ls *locStage
		for ti, task := range st.Tasks {
			for k, b := range task.Inputs {
				if b.Machine < 0 || slices.ContainsFunc(task.Inputs[:k], func(o workload.InputBlock) bool { return o.Machine == b.Machine }) {
					continue
				}
				if ls == nil {
					ls = &locStage{rec: rec, stage: si, tasks: st.Tasks}
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

// candidate is one feasible (task, machine) option under evaluation:
// what selection reads. The placement demand and charges stay in tr,
// written for the machine being packed until the next collect call.
type candidate struct {
	tr     *taskRound
	task   *workload.Task
	align  float64
	p      float64 // the job's remaining-work score, denormalized
	inTail bool
}

// stageRun is the per-round view of one job stage's pending tasks. Tasks
// within a stage are statistically similar (§4.1), so per machine we
// evaluate only a few of them (plus any with input local to the machine)
// instead of all — the same aggregation the real system's asks perform.
type stageRun struct {
	rec     *jobRecord
	stage   int
	tasks   []*workload.Task // fetched pending prefix
	cursor  int              // first possibly-untaken index
	pending int              // total pending at round start
	inTail  bool
	// env is the core's demand envelope of the stage, valid while envOK:
	// the component-wise minimum of a machine-independent lower bound of
	// the placement demand (taskRound.demandFloor) of each of the covered
	// untaken tasks at positions [cursor, end) of tasks, the last of which
	// has index last. A free vector env does not fit in fits none of them,
	// so collectIncr skips their evaluation (see there). Recorded by a
	// scan that added nothing, or installed from an earlier round
	// (stageCarry); a take among the covered tasks decrements covered
	// (markTaken), and the window the scan would walk then holds up to
	// scanBudget − covered entrants past end (owes).
	env     resources.Vector
	envOK   bool
	covered int
	end     int
	last    int
	// took: a task of the stage was taken since its last visit, whose
	// first act is to step cursor past the taken heads.
	took bool
}

// has reports whether position i of the stage's pending tasks exists,
// fetching up to it.
func (sr *stageRun) has(i int) bool {
	for i >= len(sr.tasks) {
		if len(sr.tasks) >= sr.pending {
			return false
		}
		sr.ensureFetched()
	}
	return true
}

// owes reports whether the envelope's window has lost covered tasks to
// takes while pending tasks lie past it: the scan it stands for would
// evaluate up to scanBudget − covered of them too.
func (sr *stageRun) owes() bool {
	return sr.covered < scanBudget && sr.end < sr.pending
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
	sr.tasks = sr.rec.state.Status.AppendPending(sr.stage, want, sr.tasks[:0])
}

// Schedule implements Scheduler: for every machine with headroom it
// repeatedly picks the feasible task with the highest combined score
// (alignment − ε·remaining-work), honoring the fairness and barrier
// knobs, until nothing more fits (§3.2–§3.5).
//
// The slice and its assignments' Remote charges are valid until the next
// call.
//
// One implementation backs it, the incremental core below. The
// straight-line loop the paper's pseudo-code maps onto directly lives
// behind the test boundary as its oracle (tetris_reference_test.go): the
// equivalence suite and FuzzScheduleEquivalence keep the two
// bit-identical, and no production code can reach it.
func (t *Tetris) Schedule(v *View) []Assignment {
	return t.scheduleIncremental(v, t.beginRound(v))
}

// serveReservations places starved tasks on their reserved machines when
// they finally fit, appending the placements to out and marking their
// tasks taken, and clears reservations whose task is gone. Caller must
// have StarvationSec > 0. Reservations are visited in ascending
// machine-id order: map iteration order must not leak into the
// assignment sequence, or replays (and the equivalence with the oracle)
// stop being deterministic.
func (t *Tetris) serveReservations(v *View, free []resources.Vector, out []Assignment) []Assignment {
	for _, mid := range t.res.Machines() {
		r, _ := t.res.Get(mid)
		if r.Kind != reserve.Starved {
			continue // gang hoards are managed by the coordinator
		}
		task := r.Task
		rec := t.inView(task.ID.Job)
		if rec == nil || rec.state.Status.State(task.ID) != workload.Pending {
			t.res.Release(mid) // placed elsewhere or job finished
			continue
		}
		if mid >= len(v.Machines) || v.Machines[mid].Down {
			// Reserved machine gone or crashed: release the reservation;
			// the task re-enters starvation detection on a live machine.
			t.res.Release(mid)
			continue
		}
		peak := v.DemandPeak(rec.state, task)
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
		t.markTaken(rec.slot(task), t.runOf(rec, task.ID.Stage), task.ID.Index)
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
// round, over the round's stage runs. Caller must have StarvationSec > 0.
func (t *Tetris) detectStarvation(v *View, stages []*stageRun) {
	clear(t.reserved)
	t.reserved = t.reserved[:0]
	t.res.Each(func(_ int, r reserve.Reservation) {
		if r.Task != nil {
			t.reserved = append(t.reserved, r.Task)
		}
	})
	for _, sr := range stages {
		if sr.cursor >= len(sr.tasks) {
			continue
		}
		task := sr.tasks[sr.cursor]
		if sr.rec.slot(task).taken == t.round || slices.Contains(t.reserved, task) {
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
		peak := v.DemandPeak(sr.rec.state, task)
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
func (t *Tetris) scanLocals(mid int, consider func(*jobRecord, *workload.Task, bool)) {
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
		rec := ls.rec
		if ls.stamp != t.round && rec.seen == t.round {
			ls.stamp = t.round
			st := rec.state.Status
			ls.states = st.StageStates(ls.stage)
			ls.ready = st.StageReady(ls.stage)
			ls.inTail = st.InBarrierTail(workload.TaskID{Job: rec.job.ID, Stage: ls.stage}, t.cfg.Barrier)
		}
		switch {
		case rec.seen != t.round:
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
		case !ls.inTail && !rec.eligible:
			// fairness restriction applies to non-tail tasks
		case rec.slots[ls.stage][entries[i].idx].taken != t.round:
			consider(rec, ls.tasks[entries[i].idx], ls.inTail)
			considered++
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

// What follows is the incremental core, the one Schedule
// implementation. It makes the same decisions as the straight-line loop
// of §3.2–§3.5 kept behind the test boundary as its oracle
// (tetris_reference_test.go) — the differential equivalence suite and
// FuzzScheduleEquivalence assert the two emit bit-identical assignment
// sequences — but avoids the oracle's per-placement recomputation:
//
//   - Per-task round state (taskRound) caches the demand estimate, the
//     placement-adjusted demand vector, its capacity-normalized form and
//     the remote-source charges, so each is computed once per (task,
//     machine) instead of once per placement.
//   - Feasibility failures are remembered: free vectors only ever shrink
//     within a round, so a task that did not fit a machine (or whose
//     remote sources could not absorb its charges) is skipped with a
//     single flag test on every later placement — the early-exit prune.
//   - A stage whose scan window produced no candidate leaves a demand
//     envelope behind (stageRun.env); every later visit in the round —
//     another fill, another machine — that the envelope proves fruitless
//     is skipped with one comparison, so a full machine costs one FitsIn
//     per stage instead of one per pending task (collectIncr), or one
//     per machine once every stage has an envelope (their minimum).
//   - A locality-scan option whose demand floor does not fit the machine
//     is dropped before the task cache is opened (considerIncr).
//   - What is a pure function of (estimate, task) — the base demand —
//     is kept across rounds for as long as the estimate stays
//     bit-identical (taskRoundFor).
//   - A job's per-round facts — presence in the View, eligibility,
//     remaining work — are written into its record (jobRecord), which
//     the stage runs, the locality index and the task cache point at, so
//     no job-keyed map is rebuilt or looked up per round. A task's cache
//     entry and taken mark sit in its slot of the record, reached by
//     position, so none is keyed by task pointer either.
//   - Every round-scoped structure (candidate buffer, stage runs, free
//     ledger, the returned assignments and their remote charges) is
//     scratch reused across rounds, so a steady-state round performs no
//     heap allocations, placing or not, partly local tasks included
//     (asserted by TestScheduleAllocs).
//
// Equivalence hinges on mirroring the oracle's control flow exactly:
// the stage scans advance the same cursors, trigger the same fetches and
// feed scanLocals the same way, because those side effects persist into
// starvation detection and later rounds. Only redundant recomputation is
// elided, never a decision-shaping step.
//
// One caching assumption: View.EstimateDemand must be deterministic per
// (job, task) within a round. The incremental core evaluates it once per
// task per round, while the oracle re-evaluates per placement — a
// stateful estimator (e.g. one drawing fresh random noise per call) is
// call-order-dependent under either and cannot be replayed.

// taskRound is the incremental core's cached per-task state. Entries
// persist across rounds (in the task's slot of its job record) while the
// task is pending, and self-invalidate via the round stamp; per-machine
// fields self-invalidate via mach. An entry whose task was placed or
// whose job departed is zeroed and goes to Tetris.spare.
type taskRound struct {
	round uint64    // validity stamp for all per-round fields below
	slot  *taskSlot // the record's slot holding this entry

	p  float64   // job's remaining-work score this round
	sr *stageRun // the task's stage run this round (runOf)

	// peak is the scheduler-visible peak demand. Re-read from the View
	// every round; what is derived from it alone (base) outlives the
	// round while the new reading is bit-identical.
	peak resources.Vector

	// base demand and charges for machines holding none of the task's
	// input — the common case, identical for every such machine.
	base resources.Vector // EffectiveDemand(peak, task, -1), projected

	// The flags sit in two groups of eight bytes, this one and the last
	// fields', so an entry has no padding and fits the 352-B size class.
	baseSet bool
	liveSet bool
	// baseRemoteDead: a base charge failed at its source. Free vectors
	// only shrink within a round, so the failure is permanent for every
	// machine using the base charges.
	baseRemoteDead bool
	baseChargesSet bool
	// hasPlaced persists across rounds (input blocks are immutable): a
	// task with no placed input has no affinity and no remote reads on
	// any machine, skipping both input scans on every machine refresh.
	hasPlaced     bool
	inputsScanned bool
	affinity      bool // the task has input on mach

	live []RemoteCharge // LiveCharges over baseCharges, this round

	// baseCharges persists across rounds: RemoteCharges depends only on
	// the task's immutable input blocks and flow cap, so it never changes.
	baseCharges []RemoteCharge

	// charges backs remote for a task with input on mach (partial
	// locality), refilled per machine; remote is it unless a source is
	// down. A placement's Assignment points into it (or into
	// baseCharges), so both are valid until the next round: retire keeps
	// their storage for the entry's next task, which refills it.
	charges []RemoteCharge

	// Per-(round, machine) state, valid while mach matches the machine
	// currently being packed. Machines are packed one at a time and
	// never revisited within a round, so one machine's worth suffices.
	mach     int
	remoteMB float64
	d        resources.Vector // placement demand on mach
	normD    resources.Vector // d normalized by mach's capacity
	remote   []RemoteCharge   // live charges for placement on mach

	normDOK    bool // normD computed for mach (lazy: a task that fails a fit test needs none)
	remoteSet  bool
	failLocal  bool   // d did not fit free[mach]: monotone within the round
	failRemote bool   // a charge did not fit its source: monotone
	tick       uint32 // appended-as-candidate stamp for the current collect call
}

// demandFloor returns a lower bound, valid on every machine, of the
// task's placement demand, derived from the demand cached for the machine
// it was last considered on. EffectiveDemand varies by machine only in
// DiskRead and NetIn (NetOut is always zero, and CPUMemOnly projects
// before either), and only for a task with placed input; any other task
// demands base everywhere. A zeroed dimension can never be the one that
// fails FitsIn against a (non-negative) free vector, so zeroing bounds
// from below whatever the estimate's sign.
func (tr *taskRound) demandFloor() resources.Vector {
	if !tr.hasPlaced {
		return tr.d
	}
	return placementFloor(tr.d)
}

// placementFloor zeroes the dimensions EffectiveDemand sets by placement
// (NetOut, NetIn, DiskRead); the rest pass through bit for bit.
func placementFloor(d resources.Vector) resources.Vector {
	return d.With(resources.NetOut, 0).With(resources.NetIn, 0).With(resources.DiskRead, 0)
}

// floorFits is FitsIn of demandFloor of a task with placed input, in
// place: the dimensions the floor zeroes fit any (clamped) free vector,
// so only CPU, memory and, unless CPUMemOnly, disk write are compared.
func (t *Tetris) floorFits(peak, avail resources.Vector) bool {
	const eps = 1e-9 // FitsIn's tolerance
	c, m, w := resources.CPU, resources.Memory, resources.DiskWrite
	return !(peak[c] > avail[c]+eps) && !(peak[m] > avail[m]+eps) &&
		(t.cfg.CPUMemOnly || !(peak[w] > avail[w]+eps))
}

// ScanStats is a snapshot of the core's cumulative candidate-scan
// counters: how much of the rounds' stage walking the demand envelopes
// pruned. The oracle counts nothing.
type ScanStats struct {
	StageScans    uint64 `json:"stage_scans"`    // stage windows walked task by task
	StagePrunes   uint64 `json:"stage_prunes"`   // stage visits skipped by an envelope comparison
	Entrants      uint64 `json:"entrants"`       // stage visits that walked only the entrants an envelope owed
	MachinePrunes uint64 `json:"machine_prunes"` // stage walks skipped whole by one machine-envelope comparison
	LocalPrunes   uint64 `json:"local_prunes"`   // locality-scan options skipped by one floor comparison
	Considered    uint64 `json:"considered"`     // (task, machine) options evaluated by considerTR
	Carried       uint64 `json:"carried"`        // stage envelopes a round took over from an earlier round
}

// sub returns the counters gained since prev.
func (s ScanStats) sub(prev ScanStats) ScanStats {
	return ScanStats{
		StageScans:    s.StageScans - prev.StageScans,
		StagePrunes:   s.StagePrunes - prev.StagePrunes,
		Entrants:      s.Entrants - prev.Entrants,
		MachinePrunes: s.MachinePrunes - prev.MachinePrunes,
		LocalPrunes:   s.LocalPrunes - prev.LocalPrunes,
		Considered:    s.Considered - prev.Considered,
		Carried:       s.Carried - prev.Carried,
	}
}

// ScanStats reports the scan counters. They are plain fields, not
// atomics: read them from the goroutine that calls Schedule (the RM does
// so under the shard lock, right after the round).
func (t *Tetris) ScanStats() ScanStats { return t.scan }

// ScanMetrics publishes the core's scan counters as telemetry series:
// stage visits walked task by task, skipped by one envelope comparison
// and walking only an envelope's entrants, whole stage walks one
// machine-envelope comparison skipped, locality-scan options one floor
// comparison rejected, and envelopes carried into a later round. The
// simulator and every RM shard each own one.
type ScanMetrics struct {
	stageScans, stagePrunes, entrants, machinePrunes, localPrunes, carried *telemetry.Counter
	// prev is the last cumulative snapshot published: the registry's
	// counters may be shared with other owners, so they are never read
	// back.
	prev ScanStats
}

// NewScanMetrics resolves the series in reg; name maps a series'
// unprefixed name ("sched_local_prunes_total") to the full, labeled one.
func NewScanMetrics(reg *telemetry.Registry, name func(string) string) *ScanMetrics {
	const scansHelp = "Stage visits of the Tetris core's candidate collection: windows walked task by task (scanned), visits skipped by one demand-envelope comparison (pruned) and visits that walked only the tasks entering an envelope's window after a take (entrants)."
	return &ScanMetrics{
		stageScans:    reg.Counter(telemetry.Label(name("sched_stage_scans_total"), "result", "scanned"), scansHelp),
		stagePrunes:   reg.Counter(telemetry.Label(name("sched_stage_scans_total"), "result", "pruned"), scansHelp),
		entrants:      reg.Counter(telemetry.Label(name("sched_stage_scans_total"), "result", "entrants"), scansHelp),
		machinePrunes: reg.Counter(name("sched_machine_prunes_total"), "Machine visits of the Tetris core whose whole stage walk one comparison with the minimum of the stages' demand envelopes skipped."),
		localPrunes:   reg.Counter(name("sched_local_prunes_total"), "Locality-scan options of the Tetris core rejected by one demand-floor comparison, before the task cache is opened."),
		carried:       reg.Counter(name("sched_carried_envelopes_total"), "Stage demand envelopes the Tetris core took over from an earlier round, whose stage's pending tasks and estimates had not moved."),
	}
}

// Observe adds what sched's counters gained since the last call. Call it
// from the goroutine that calls Schedule, after the round. No-op for
// schedulers without scan counters.
func (m *ScanMetrics) Observe(sched Scheduler) {
	p, ok := sched.(interface{ ScanStats() ScanStats })
	if !ok {
		return
	}
	st := p.ScanStats()
	d := st.sub(m.prev)
	m.stageScans.Add(d.StageScans)
	m.stagePrunes.Add(d.StagePrunes)
	m.entrants.Add(d.Entrants)
	m.machinePrunes.Add(d.MachinePrunes)
	m.localPrunes.Add(d.LocalPrunes)
	m.carried.Add(d.Carried)
	m.prev = st
}

// deficitSorter sorts jobs by fairness deficit (most deprived first, ties
// by ascending job ID) over scratch slices, without allocating. Job IDs
// are unique, so the order is a strict total order and any sort yields
// the oracle's permutation.
type deficitSorter struct {
	jobs []*jobRecord
	def  []float64
}

func (s *deficitSorter) Len() int { return len(s.jobs) }
func (s *deficitSorter) Less(a, b int) bool {
	if s.def[a] != s.def[b] {
		return s.def[a] > s.def[b]
	}
	return s.jobs[a].job.ID < s.jobs[b].job.ID
}
func (s *deficitSorter) Swap(a, b int) {
	s.jobs[a], s.jobs[b] = s.jobs[b], s.jobs[a]
	s.def[a], s.def[b] = s.def[b], s.def[a]
}

// taskRoundFor returns the task's cache entry, resetting per-round fields
// on first touch in the current round. The base demand is a pure
// function of (peak, task) — input blocks and the flow cap are immutable
// — so it is dropped only when the estimator moved the peak, compared bit
// for bit (== equates ±0, and the kept value must reproduce the
// recomputation exactly).
func (t *Tetris) taskRoundFor(rec *jobRecord, task *workload.Task) *taskRound {
	s := rec.slot(task)
	tr := s.tr
	if tr == nil {
		if n := len(t.spare); n > 0 {
			tr = t.spare[n-1]
			t.spare = t.spare[:n-1]
		} else {
			tr = &taskRound{}
		}
		tr.slot = s
		s.tr = tr
	}
	if tr.round != t.round {
		tr.round = t.round
		tr.p = rec.p
		tr.sr = t.runOf(rec, task.ID.Stage)
		if peak := t.curV.DemandPeak(rec.state, task); !peak.SameBits(tr.peak) {
			tr.peak = peak
			tr.baseSet = false
		}
		tr.liveSet = false
		tr.baseRemoteDead = false
		tr.mach = -1
		tr.tick = 0
	}
	return tr
}

// retire drops the cache entry of task, one of rec's tasks, and keeps
// the entry, zeroed but for its charge buffers' storage, for reuse. The
// round's Assignments may still read the buffers; the entry is refilled
// in a later round at the earliest.
func (t *Tetris) retire(rec *jobRecord, task *workload.Task) {
	s := rec.slot(task)
	if tr := s.tr; tr != nil {
		*tr = taskRound{charges: tr.charges[:0], baseCharges: tr.baseCharges[:0]}
		t.spare = append(t.spare, tr)
		s.tr = nil
	}
}

// markTaken stamps the task in slot s, of index index in its stage, as
// placed this round, and tells its stage's run sr: the stage's next visit
// steps its cursor, and a task its envelope covers leaves the window, so
// the envelope stays a lower bound of what is left and owes the window
// one entrant. Every path that takes a task goes through here, the
// oracle's serveReservations too, with a nil sr.
func (t *Tetris) markTaken(s *taskSlot, sr *stageRun, index int) {
	s.taken = t.round
	if sr == nil {
		return
	}
	sr.took = true
	if sr.envOK && index <= sr.last {
		sr.covered--
	}
	if t.machEnvStages > 0 && (sr.rec.eligible || sr.inTail) {
		t.machEnvStages = 0 // until the stage's cursor step (machineEnvelope)
	}
}

// runOf returns the round's run of rec's stage si, or nil if it has none
// (so always in the oracle, whose runs are its own).
func (t *Tetris) runOf(rec *jobRecord, si int) *stageRun {
	if k := int(rec.stages[si].run); k < len(t.stages) {
		if sr := t.stages[k]; sr.rec == rec && sr.stage == si {
			return sr
		}
	}
	return nil
}

// keepEnvelope records sr's envelope, whose window holds the stage's
// first pending tasks and no taken one, for later rounds (stageCarry).
func (t *Tetris) keepEnvelope(sr *stageRun) {
	e := &sr.rec.stages[sr.stage]
	if e.carry == nil {
		if n := len(t.carries); n > 0 {
			e.carry, t.carries = t.carries[n-1], t.carries[:n-1]
		} else {
			e.carry = new(stageCarry)
		}
	}
	st := sr.rec.state.Status
	*e.carry = stageCarry{env: sr.env, status: st, gen: st.PendingGen(), round: t.round, n: sr.covered, last: sr.last}
}

// machineEnvelope recomputes machEnv over the round's stages. A stage
// that must be visited for its cursor step or its entrants disables it.
func (t *Tetris) machineEnvelope() {
	t.machEnvStages = 0
	for _, sr := range t.stages {
		switch {
		case !sr.rec.eligible && !sr.inTail:
		case !sr.envOK || sr.took || sr.owes():
			t.machEnvStages = 0
			return
		case t.machEnvStages == 0:
			t.machEnv, t.machEnvStages = sr.env, 1
		default:
			t.machEnv, t.machEnvStages = t.machEnv.Min(sr.env), t.machEnvStages+1
		}
	}
}

// sortRunnable orders the runnable records by how far each job is below
// its fair share (weight-proportional over all active jobs in the view),
// without allocating.
func (t *Tetris) sortRunnable(v *View, runnable []*jobRecord) []*jobRecord {
	var totalWeight float64
	for _, j := range v.Jobs {
		totalWeight += j.Job.Weight
	}
	s := &t.sorter
	s.jobs = runnable
	s.def = s.def[:0]
	for _, rec := range runnable {
		fair := 0.0
		if totalWeight > 0 {
			fair = rec.job.Weight / totalWeight
		}
		s.def = append(s.def, fair-dominantShare(rec.state, v.Total))
	}
	sort.Stable(s)
	return s.jobs
}

// buildRound lays out the round's stage runs in t.stages over recycled
// storage, in the oracle's stage order and with its initial fetch and
// tail flags, and installs the envelopes kept from earlier rounds that
// still hold (stageCarry).
func (t *Tetris) buildRound(sorted []*jobRecord) {
	// Pre-size the stageRun backing array: t.stages holds pointers into
	// it, so it must not grow (and relocate) once pointers are taken.
	// stageBuf always has len == cap so recycled task buffers survive.
	maxStages := 0
	for _, rec := range sorted {
		maxStages += len(rec.state.Job.Stages)
	}
	if cap(t.stageBuf) < maxStages {
		grown := make([]stageRun, maxStages)
		copy(grown, t.stageBuf)
		t.stageBuf = grown
	}
	t.stageBuf = t.stageBuf[:cap(t.stageBuf)]
	t.stages = t.stages[:0]
	const initialFetch = 4
	used := 0
	for _, rec := range sorted {
		j := rec.state
		for si := range j.Job.Stages {
			pending := j.Status.PendingInStage(si)
			if pending == 0 || !j.Status.StageReady(si) {
				continue
			}
			e := &rec.stages[si]
			e.run = int32(used)
			sr := &t.stageBuf[used]
			used++
			buf := sr.tasks[:0]
			*sr = stageRun{
				rec:     rec,
				stage:   si,
				pending: pending,
				inTail:  j.Status.InBarrierTail(workload.TaskID{Job: j.Job.ID, Stage: si}, t.cfg.Barrier),
			}
			if c := e.carry; c != nil && c.status == j.Status && c.gen == j.Status.PendingGen() && c.round >= t.totalRound {
				sr.env, sr.envOK, sr.covered, sr.end, sr.last = c.env, true, c.n, c.n, c.last
				t.scan.Carried++
			}
			n := initialFetch
			if n > pending {
				n = pending
			}
			sr.tasks = j.Status.AppendPending(si, n, buf)
			t.stages = append(t.stages, sr)
		}
	}
}

// scheduleIncremental is the incremental core's Schedule implementation,
// after the shared prologue (beginRound) returned the runnable records.
// Step for step it follows the oracle; see the comment above taskRound
// for what is cached between steps.
func (t *Tetris) scheduleIncremental(v *View, runnable []*jobRecord) []Assignment {
	t.tick = 0
	t.curV = v
	t.machEnvStages = -1

	t.rt = nil
	if t.cfg.Trace != nil && t.cfg.Trace.sample() {
		// Scan holds the counters at round start until the round ends.
		t.rtBuf = RoundTrace{
			Round: t.round, Time: v.Time, Machines: len(v.Machines), Scan: t.scan,
			CutoffJobIDs: t.rtBuf.CutoffJobIDs[:0], Decisions: t.rtBuf.Decisions[:0],
		}
		t.rt = &t.rtBuf
	}

	if len(runnable) == 0 {
		return nil
	}
	sorted := t.sortRunnable(v, runnable)

	eligibleCount := int(math.Ceil((1 - t.cfg.Fairness) * float64(len(sorted))))
	if eligibleCount < 1 {
		eligibleCount = 1
	}
	for _, rec := range sorted[:eligibleCount] {
		rec.eligible = true
	}
	if rt := t.rt; rt != nil {
		rt.RunnableJobs = len(sorted)
		rt.EligibleJobs = eligibleCount
		for _, rec := range sorted[eligibleCount:] {
			rt.CutoffJobIDs = append(rt.CutoffJobIDs, rec.job.ID)
		}
	}

	var pSum float64
	for _, rec := range sorted {
		rec.p = t.remainingWork(v, rec)
		pSum += rec.p
	}
	pMean := pSum / float64(len(sorted))

	if cap(t.free) < len(v.Machines) {
		t.free = make([]resources.Vector, len(v.Machines))
	}
	t.free = t.free[:len(v.Machines)]
	for i, m := range v.Machines {
		t.free[i] = resources.Vector{}
		if m.Down {
			continue // no headroom: also blocks remote charges at dead sources
		}
		t.free[i] = m.FreePacking()
		if t.cfg.HotspotThreshold > 0 {
			for _, k := range resources.Kinds() {
				if c := m.Capacity.Get(k); c > 0 && m.Reported.Get(k) > t.cfg.HotspotThreshold*c {
					t.free[i] = resources.Vector{} // hot machine: place nothing
					break
				}
			}
		}
	}

	if !v.Total.SameBits(t.total) {
		t.total, t.totalRound = v.Total, t.round
	}
	t.buildRound(sorted)
	out := t.out[:0]

	if t.cfg.StarvationSec > 0 {
		// A served task is taken before the round's first scan, from
		// windows whose envelopes only an earlier round recorded.
		out = t.serveReservations(v, t.free, out)
	}

	for _, m := range v.Machines {
		if m.Down {
			continue // crashed/unreachable machine: place nothing
		}
		if t.res.Held(m.ID) {
			continue // machine held for a starved task
		}
		for fill := 0; ; fill++ {
			cands, aSum := t.collectIncr(v, m.ID)
			if len(cands) == 0 {
				break
			}
			// ε normalization, with the candidate alignment sum carried
			// out of collection instead of re-summed per placement.
			aMean := aSum / float64(len(cands))
			eps := 0.0
			if pMean > 0 {
				eps = t.cfg.EpsilonMultiplier * aMean / pMean
			}
			t.recordEps(eps)

			best := -1
			bestScore := math.Inf(-1)
			for i := range cands {
				score := cands[i].align - eps*cands[i].p
				if t.cfg.SRTFOnly {
					score = -cands[i].p
				}
				if score > bestScore {
					bestScore = score
					best = i
				}
			}
			c := cands[best]
			if t.rt != nil {
				t.rt.Eps = eps
				// Losers are recorded once per machine (the first fill
				// comparison); later fills would re-record the same
				// still-feasible candidates every placement.
				if fill == 0 {
					for i := range cands {
						if i == best {
							continue
						}
						sc := cands[i].align - eps*cands[i].p
						if t.cfg.SRTFOnly {
							sc = -cands[i].p
						}
						t.trace(TaskDecision{
							Task: cands[i].task.ID, Machine: m.ID,
							Outcome: OutcomeOutscored,
							Align:   cands[i].align, P: cands[i].p, Score: sc,
							Remote: cands[i].tr.remote != nil,
						})
					}
				}
				t.trace(TaskDecision{
					Task: c.task.ID, Machine: m.ID,
					Outcome: OutcomePlaced,
					Align:   c.align, P: c.p, Score: bestScore,
					Remote: c.tr.remote != nil,
				})
			}
			tr := c.tr
			out = append(out, Assignment{
				Task:    c.task,
				Machine: m.ID,
				Local:   tr.d,
				Remote:  tr.remote,
			})
			t.markTaken(tr.slot, tr.sr, c.task.ID.Index)
			t.free[m.ID] = t.free[m.ID].Sub(tr.d).Max(resources.Vector{})
			for _, rc := range tr.remote {
				t.free[rc.Machine] = t.free[rc.Machine].Sub(rc.Charge).Max(resources.Vector{})
			}
		}
	}
	if t.cfg.StarvationSec > 0 {
		t.detectStarvation(v, t.stages)
	}
	if rt := t.rt; rt != nil {
		rt.Placed = len(out)
		rt.Scan = t.scan.sub(rt.Scan)
		t.cfg.Trace.ring.Append(rt.clone())
		t.rt = nil
	}
	// A cache entry lives as long as its task can be considered: a placed
	// task leaves Pending (it comes back, if it fails, as a fresh entry),
	// and evictDeparted drops the tasks of departed jobs.
	for _, a := range out {
		t.retire(t.jobs[a.Task.ID.Job], a.Task)
	}
	t.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// collectIncr gathers the feasible candidates for machine mid with the
// oracle's stage scans (advancing the same cursors and triggering the
// same fetches) and the same locality scan, but candidate evaluation goes
// through the taskRound caches. Returns the candidates and the sum of
// their alignment scores (over the tail subset when tail preference
// applies), accumulated during collection.
//
// The envelope prune. A stage scan that ends having added no candidate
// has visited the stage's whole window — the first ≤ scanBudget untaken
// pending tasks from sr.cursor — and leaves the minimum of their demand
// floors in sr.env. On a later visit, !sr.env.FitsIn(avail) proves that
// every covered task fails its own local-fit test on this machine (FitsIn
// is per-dimension and monotone, and a minimum involves no arithmetic).
// While no covered task has been taken the scan would add nothing and
// visit exactly the window again, so the visit is skipped. A take among
// the covered tasks shrinks the window the envelope bounds and, if
// pending tasks lie past it, lets as many entrants into the scan's
// window; the visit then evaluates only those, under the scan's stop
// rule, and folds them into the envelope if none is added. Either way
// the visit adds what the scan would add, in the same order, and leaves
// the cursor where the scan would: the first visit after a take steps it
// past the taken heads, as the scan's loop does. Fetches may differ, but
// the fetched prefix is only ever read by position. A sampled round
// prunes too, so its trace lists only the options considerTR evaluated;
// RoundTrace.Scan counts the visits the prunes skipped.
//
// The machine envelope. While every stage the walk visits has an
// envelope that owes no entrant and no stage awaits its cursor step, a
// free vector that does not fit their minimum fits none of them, so one
// comparison skips the walk, StagePrunes counts each visit it covers, and
// the locality scan still runs.
func (t *Tetris) collectIncr(v *View, mid int) ([]candidate, float64) {
	avail := t.free[mid]
	if avail.IsZero() {
		return nil, 0
	}
	t.curMid = mid
	t.curAvail = avail
	t.curCap = v.Machines[mid].Capacity
	t.curNormAOK = false
	t.cands = t.cands[:0]
	t.aSumAll, t.aSumTail = 0, 0
	t.anyTail = false
	t.tick++

	walk := t.stages
	if t.machEnvStages < 0 {
		t.machineEnvelope()
	}
	if t.machEnvStages > 0 && !t.machEnv.FitsIn(avail) {
		t.scan.MachinePrunes++
		t.scan.StagePrunes += uint64(t.machEnvStages)
		walk = nil
	}
	for _, sr := range walk {
		if !sr.rec.eligible && !sr.inTail {
			continue
		}
		if sr.took {
			sr.took = false
			for sr.has(sr.cursor) && sr.rec.slot(sr.tasks[sr.cursor]).taken == t.round {
				sr.cursor++
			}
			if sr.envOK && !sr.owes() {
				t.machEnvStages = -1 // the stage may have been the one disabling it
			}
		}
		// A full scan starts at the cursor with nothing covered; an
		// entrant visit past the covered tasks, with their envelope.
		i, scanned, env, last, entrants := sr.cursor, 0, resources.Vector{}, 0, false
		if sr.envOK && !sr.env.FitsIn(avail) {
			if !sr.owes() {
				t.scan.StagePrunes++
				continue
			}
			t.scan.Entrants++
			i, scanned, env, last, entrants = max(sr.end, sr.cursor), sr.covered, sr.env, sr.last, true
		} else {
			t.scan.StageScans++
		}
		added := 0
		for ; added < perStage && scanned < scanBudget && sr.has(i); i++ {
			task := sr.tasks[i]
			if sr.rec.slot(task).taken == t.round {
				continue
			}
			tr := t.taskRoundFor(sr.rec, task)
			scanned++
			before := len(t.cands)
			t.considerTR(tr, task, sr.inTail)
			if len(t.cands) > before {
				added++
			} else if added == 0 {
				if floor := tr.demandFloor(); scanned == 1 {
					env = floor
				} else {
					env = env.Min(floor)
				}
				last = task.ID.Index
			}
		}
		if added == 0 && (scanned > 0 || entrants) {
			sr.env, sr.envOK, sr.covered, sr.end, sr.last = env, true, scanned, i, last
			t.machEnvStages = -1
			if i == scanned {
				t.keepEnvelope(sr)
			}
		}
	}
	t.scanLocals(mid, t.consider)

	cands := t.cands
	aSum := t.aSumAll
	if t.anyTail {
		tail := cands[:0]
		for _, c := range cands {
			if c.inTail {
				tail = append(tail, c)
			}
		}
		t.cands = tail
		cands = tail
		aSum = t.aSumTail
	}
	return cands, aSum
}

// considerIncr evaluates one (task, machine) option through the caches,
// reproducing the oracle's consider closure's outcome: it appends a
// candidate exactly when the oracle would, with bit-identical demand,
// charges and alignment.
//
// The local prune. scanLocals feeds only tasks with input on the
// machine, and most of them do not fit what is left of it. floorFits
// tests demandFloor of the entry the cache would build, so when it fails
// neither does the demand fit, and considerTR would only set failLocal:
// the option is rejected before the cache is opened, and a sampled
// round records no decision for it, as for the stage envelope.
func (t *Tetris) considerIncr(rec *jobRecord, task *workload.Task, inTail bool) {
	if !t.floorFits(t.curV.DemandPeak(rec.state, task), t.curAvail) {
		t.scan.LocalPrunes++
		return
	}
	t.considerTR(t.taskRoundFor(rec, task), task, inTail)
}

// considerTR is considerIncr after the cache-entry lookup — the stage
// scans resolve tr positionally and call it directly.
func (t *Tetris) considerTR(tr *taskRound, task *workload.Task, inTail bool) {
	t.scan.Considered++
	if tr.tick == t.tick {
		return // already a candidate in this collect call
	}
	mid := t.curMid
	if tr.mach != mid {
		tr.mach = mid
		if !tr.inputsScanned {
			tr.inputsScanned = true
			for _, b := range task.Inputs {
				if b.Machine >= 0 {
					tr.hasPlaced = true
					break
				}
			}
		}
		if tr.hasPlaced {
			tr.affinity = task.HasLocalAffinity(mid)
			tr.remoteMB = task.RemoteInputMB(mid)
		} else {
			tr.affinity = false
			tr.remoteMB = 0
		}
		if tr.affinity {
			d := EffectiveDemand(tr.peak, task, mid)
			if t.cfg.CPUMemOnly {
				d = projectCPUMem(d)
			}
			tr.d = d
		} else {
			if !tr.baseSet {
				d := EffectiveDemand(tr.peak, task, -1)
				if t.cfg.CPUMemOnly {
					d = projectCPUMem(d)
				}
				tr.base = d
				tr.baseSet = true
			}
			tr.d = tr.base
		}
		tr.normDOK = false // normalized lazily where alignment is computed
		tr.remote = nil
		tr.remoteSet = false
		tr.failLocal = false
		tr.failRemote = !tr.affinity && tr.baseRemoteDead
	}
	if tr.failLocal || tr.failRemote {
		return // early-exit prune: free only shrinks, the failure stands
	}
	if !tr.d.FitsIn(t.curAvail) {
		tr.failLocal = true
		// Traced at first detection only; the early-exit prune above
		// keeps re-tests (and re-records) off later placements.
		if t.rt != nil {
			t.trace(TaskDecision{Task: task.ID, Machine: mid, Outcome: OutcomeInfeasibleLocal})
		}
		return
	}
	if !t.cfg.CPUMemOnly && tr.remoteMB > 0 {
		if !tr.remoteSet {
			if tr.affinity {
				// Partial locality: charges are machine-specific.
				tr.charges = refillRemoteCharges(tr.charges[:0], task, mid)
				tr.remote = LiveCharges(t.curV, tr.charges)
			} else {
				if !tr.liveSet {
					if !tr.baseChargesSet {
						tr.baseCharges = refillRemoteCharges(tr.baseCharges[:0], task, -1)
						tr.baseChargesSet = true
					}
					tr.live = LiveCharges(t.curV, tr.baseCharges)
					tr.liveSet = true
				}
				tr.remote = tr.live
			}
			tr.remoteSet = true
		}
		for _, rc := range tr.remote {
			if !rc.Charge.FitsIn(t.free[rc.Machine]) {
				tr.failRemote = true
				if !tr.affinity {
					tr.baseRemoteDead = true
				}
				if t.rt != nil {
					t.trace(TaskDecision{Task: task.ID, Machine: mid, Outcome: OutcomeInfeasibleRemote})
				}
				return
			}
		}
	}
	if !t.curNormAOK {
		t.curNormA = t.curAvail.Normalize(t.curCap)
		t.curNormAOK = true
	}
	if !tr.normDOK {
		tr.normD = tr.d.Normalize(t.curCap)
		tr.normDOK = true
	}
	align := t.cfg.Scorer.ScoreNorm(tr.normD, t.curNormA)
	if tr.remote != nil {
		align *= 1 - t.cfg.RemotePenalty
	}
	tr.tick = t.tick
	t.cands = append(t.cands, candidate{tr: tr, task: task, align: align, p: tr.p, inTail: inTail})
	t.aSumAll += align
	if inTail {
		t.anyTail = true
		t.aSumTail += align
	}
}
