package scheduler

import (
	"math"
	"sort"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/workload"
)

// This file is the incremental Tetris core, the one Schedule
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
//   - Alignment scores are cached per (task, machine) and stamped with
//     the machine's free-vector version (freeVer); a placement bumps the
//     version of every machine whose ledger it touched (the target and
//     each remote source), which is the dirty-set that invalidates only
//     the affected scores.
//   - Feasibility failures are remembered: free vectors only ever shrink
//     within a round, so a task that did not fit a machine (or whose
//     remote sources could not absorb its charges) is skipped with a
//     single flag test on every later placement — the early-exit prune.
//   - Remote-source feasibility is memoized with the version-sum of the
//     source machines' ledgers and rechecked only when one changed.
//   - A stage whose scan window produced no candidate leaves a demand
//     envelope behind (stageRun.env); every later visit in the round —
//     another fill, another machine — that the envelope proves fruitless
//     is skipped with one comparison, so a full machine costs one FitsIn
//     per stage instead of one per pending task (collectIncr), or one
//     per machine once every stage has an envelope (their minimum).
//   - A locality-scan option whose demand floor does not fit the machine
//     is dropped before the task cache is opened (considerIncr).
//   - What is a pure function of (estimate, task) — the base demand and
//     its normalized form — is kept across rounds for as long as the
//     estimate stays bit-identical (taskRoundFor).
//   - Every round-scoped structure (candidate buffer, stage runs, free
//     ledger, maps) is scratch reused across rounds, so a steady-state
//     round performs no heap allocations beyond the returned
//     assignments (asserted by TestScheduleAllocs).
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
// persist across rounds (keyed by task pointer) while the task is
// pending, and self-invalidate via the round stamp; per-machine fields
// self-invalidate via mach. An entry whose task was placed or whose job
// departed goes to incrState.spare and is zeroed when a new task takes
// it.
type taskRound struct {
	round uint64 // validity stamp for all per-round fields below

	p  float64   // job's remaining-work score this round
	sr *stageRun // the task's stage this round, once a stage scan saw it

	// peak is the scheduler-visible peak demand. Re-read from the View
	// every round; everything derived from it alone (base, normBase)
	// outlives the round while the new reading is bit-identical.
	peak resources.Vector

	// base demand and charges for machines holding none of the task's
	// input — the common case, identical for every such machine.
	base    resources.Vector // EffectiveDemand(peak, task, -1), projected
	baseSet bool
	live    []RemoteCharge // LiveCharges over baseCharges, this round
	liveSet bool
	// baseRemoteDead: a base charge failed at its source. Free vectors
	// only shrink within a round, so the failure is permanent for every
	// machine using the base charges.
	baseRemoteDead bool

	// baseCharges persists across rounds: RemoteCharges depends only on
	// the task's immutable input blocks and flow cap, so it never changes.
	baseCharges    []RemoteCharge
	baseChargesSet bool

	// hasPlaced persists across rounds (input blocks are immutable): a
	// task with no placed input has no affinity and no remote reads on
	// any machine, skipping both input scans on every machine refresh.
	hasPlaced     bool
	inputsScanned bool

	// normBase caches base.Normalize(cap) keyed by the exact capacity
	// vector: clusters have few machine classes, so consecutive machines
	// often share one. Valid as long as base is.
	normBase    resources.Vector
	normBaseCap resources.Vector
	normBaseSet bool

	// takenRound stamps the task as placed this round — the allocation-
	// free mirror of roundState.taken for the stage scans.
	takenRound uint64

	// Per-(round, machine) state, valid while mach matches the machine
	// currently being packed. Machines are packed one at a time and
	// never revisited within a round, so one machine's worth suffices.
	mach         int
	affinity     bool
	remoteMB     float64
	d            resources.Vector // placement demand on mach
	normD        resources.Vector // d normalized by mach's capacity
	normDOK      bool             // normD computed for mach (lazy: a task that fails a fit test needs none)
	remote       []RemoteCharge   // live charges for placement on mach
	remoteSet    bool
	failLocal    bool   // d did not fit free[mach]: monotone within the round
	failRemote   bool   // a charge did not fit its source: monotone
	remoteOK     bool   // last remote check passed...
	remoteVerSum uint64 // ...at this Σ freeVer over the source machines
	alignOK      bool   // cached align valid...
	alignVer     uint32 // ...while freeVer[mach] still equals this
	align        float64

	tick uint32 // appended-as-candidate stamp for the current collect call
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
	StageScans    uint64 // stage windows walked task by task
	StagePrunes   uint64 // stage visits skipped by an envelope comparison
	MachinePrunes uint64 // stage walks skipped whole by one machine-envelope comparison
	LocalPrunes   uint64 // locality-scan options skipped by one floor comparison
	Considered    uint64 // (task, machine) options evaluated by considerTR
}

// ScanStats reports the scan counters. They are plain fields, not
// atomics: read them from the goroutine that calls Schedule (the RM does
// so under the shard lock, right after the round).
func (t *Tetris) ScanStats() ScanStats { return t.inc.scan }

// ScanMetrics publishes the core's scan counters as telemetry series:
// stage visits walked task by task and skipped by one envelope comparison,
// whole stage walks one machine-envelope comparison skipped, and
// locality-scan options one floor comparison rejected. The simulator and
// every RM shard each own one.
type ScanMetrics struct {
	stageScans, stagePrunes, machinePrunes, localPrunes *telemetry.Counter
	// prev is the last cumulative snapshot published: the registry's
	// counters may be shared with other owners, so they are never read
	// back.
	prev ScanStats
}

// NewScanMetrics resolves the series in reg; name maps a series'
// unprefixed name ("sched_local_prunes_total") to the full, labeled one.
func NewScanMetrics(reg *telemetry.Registry, name func(string) string) *ScanMetrics {
	const scansHelp = "Stage visits of the Tetris core's candidate collection: windows walked task by task (scanned) and visits skipped by one demand-envelope comparison (pruned)."
	return &ScanMetrics{
		stageScans:    reg.Counter(telemetry.Label(name("sched_stage_scans_total"), "result", "scanned"), scansHelp),
		stagePrunes:   reg.Counter(telemetry.Label(name("sched_stage_scans_total"), "result", "pruned"), scansHelp),
		machinePrunes: reg.Counter(name("sched_machine_prunes_total"), "Machine visits of the Tetris core whose whole stage walk one comparison with the minimum of the stages' demand envelopes skipped."),
		localPrunes:   reg.Counter(name("sched_local_prunes_total"), "Locality-scan options of the Tetris core rejected by one demand-floor comparison, before the task cache is opened."),
	}
}

// Observe adds what sched's counters gained since the last call, looking
// through a wrapper that exposes its inner scheduler (the gang
// coordinator). Call it from the goroutine that calls Schedule, after the
// round. No-op for schedulers without scan counters.
func (m *ScanMetrics) Observe(sched Scheduler) {
	if w, ok := sched.(interface{ Inner() Scheduler }); ok {
		sched = w.Inner()
	}
	p, ok := sched.(interface{ ScanStats() ScanStats })
	if !ok {
		return
	}
	st := p.ScanStats()
	m.stageScans.Add(st.StageScans - m.prev.StageScans)
	m.stagePrunes.Add(st.StagePrunes - m.prev.StagePrunes)
	m.machinePrunes.Add(st.MachinePrunes - m.prev.MachinePrunes)
	m.localPrunes.Add(st.LocalPrunes - m.prev.LocalPrunes)
	m.prev = st
}

// deficitSorter sorts jobs by fairness deficit (most deprived first, ties
// by ascending job ID) over scratch slices, without allocating. Job IDs
// are unique, so the order is a strict total order and any sort yields
// the oracle's permutation.
type deficitSorter struct {
	jobs []*JobState
	def  []float64
}

func (s *deficitSorter) Len() int { return len(s.jobs) }
func (s *deficitSorter) Less(a, b int) bool {
	if s.def[a] != s.def[b] {
		return s.def[a] > s.def[b]
	}
	return s.jobs[a].Job.ID < s.jobs[b].Job.ID
}
func (s *deficitSorter) Swap(a, b int) {
	s.jobs[a], s.jobs[b] = s.jobs[b], s.jobs[a]
	s.def[a], s.def[b] = s.def[b], s.def[a]
}

// incrState holds the incremental core's caches and scratch buffers,
// owned by a Tetris instance and reused across Schedule calls.
type incrState struct {
	round uint64
	tick  uint32

	runnable []*JobState
	sorter   deficitSorter
	eligible map[int]bool
	pScore   map[int]float64

	free    []resources.Vector
	freeVer []uint32

	rs       roundState
	stageBuf []stageRun // backing array for rs.stages; task slices recycled

	tasks map[*workload.Task]*taskRound
	// spare holds entries retired from tasks, for reuse. It is refilled
	// only between rounds: within one, stage runs and candidates still
	// point at the entries of tasks placed earlier in the round.
	spare []*taskRound

	cands    []candidate
	aSumAll  float64 // Σ align over all candidates, in append order
	aSumTail float64 // Σ align over barrier-tail candidates only
	anyTail  bool

	// machEnv is the minimum of the envelopes of the stages a walk
	// visits; machEnvStages counts them, 0 while one has no envelope and
	// -1 while machEnv is stale (collectIncr).
	machEnv       resources.Vector
	machEnvStages int

	// Context of the collect call in flight, threaded through fields so
	// the scanLocals callback needs no per-call closure. curNormA is
	// computed at the first alignment.
	curV       *View
	curMid     int
	curAvail   resources.Vector
	curCap     resources.Vector
	curNormA   resources.Vector
	curNormAOK bool
	consider   func(*JobState, *workload.Task, bool)

	// rt is the decision trace of the round in flight; nil when tracing
	// is off or the round is sampled out (the common case — every hook
	// is then one nil check).
	rt *RoundTrace

	scan ScanStats // cumulative, see Tetris.ScanStats
}

// beginRound advances the round stamp and lazily initializes the state.
func (ic *incrState) beginRound(t *Tetris, v *View) {
	if ic.tasks == nil {
		ic.tasks = make(map[*workload.Task]*taskRound)
		ic.eligible = make(map[int]bool)
		ic.pScore = make(map[int]float64)
		ic.consider = t.considerIncr
	}
	ic.round++
	ic.tick = 0
	ic.curV = v
	ic.machEnvStages = -1
}

// taskRoundFor returns the task's cache entry, resetting per-round fields
// on first touch in the current round. The base demand (and its
// normalized form) is a pure function of (peak, task) — input blocks and
// the flow cap are immutable — so it is dropped only when the estimator
// moved the peak, compared bit for bit (== equates ±0, and the kept value
// must reproduce the recomputation exactly).
func (ic *incrState) taskRoundFor(j *JobState, task *workload.Task) *taskRound {
	tr := ic.tasks[task]
	if tr == nil {
		if n := len(ic.spare); n > 0 {
			tr = ic.spare[n-1]
			ic.spare = ic.spare[:n-1]
			*tr = taskRound{}
		} else {
			tr = &taskRound{}
		}
		ic.tasks[task] = tr
	}
	if tr.round != ic.round {
		tr.round = ic.round
		tr.p = ic.pScore[j.Job.ID]
		tr.sr = nil
		if peak := ic.curV.DemandPeak(j, task); !peak.SameBits(tr.peak) {
			tr.peak = peak
			tr.baseSet = false
			tr.normBaseSet = false
		}
		tr.liveSet = false
		tr.baseRemoteDead = false
		tr.mach = -1
		tr.tick = 0
	}
	return tr
}

// retire drops a task's cache entry and keeps the entry for reuse. Call
// it only outside a round's placement loop (see spare).
func (ic *incrState) retire(task *workload.Task) {
	if tr := ic.tasks[task]; tr != nil {
		ic.spare = append(ic.spare, tr)
		delete(ic.tasks, task)
	}
}

// markTaken stamps the task as placed this round and retires its stage's
// demand envelope, whose window it has just left. Every path that takes a
// task goes through here. A task no stage scan has seen carries no
// back-pointer and needs none: it lies outside every recorded window (a
// window's tasks were all visited by the scan that recorded it), so
// taking it leaves the scan the envelope stands for unchanged.
func (ic *incrState) markTaken(tr *taskRound) {
	tr.takenRound = ic.round
	if tr.sr != nil && tr.sr.envOK {
		tr.sr.envOK = false
		ic.machEnvStages = -1
	}
}

// machineEnvelope recomputes machEnv over the round's stages.
func (ic *incrState) machineEnvelope(rs *roundState) {
	ic.machEnvStages = 0
	for _, sr := range rs.stages {
		switch {
		case !sr.eligible && !sr.inTail:
		case !sr.envOK:
			ic.machEnvStages = 0
			return
		case ic.machEnvStages == 0:
			ic.machEnv, ic.machEnvStages = sr.env, 1
		default:
			ic.machEnv, ic.machEnvStages = ic.machEnv.Min(sr.env), ic.machEnvStages+1
		}
	}
}

// sortRunnable orders ic.runnable by how far each job is below its fair
// share (weight-proportional over all active jobs in the view), without
// allocating.
func (ic *incrState) sortRunnable(v *View) []*JobState {
	var totalWeight float64
	for _, j := range v.Jobs {
		totalWeight += j.Job.Weight
	}
	s := &ic.sorter
	s.jobs = ic.runnable
	s.def = s.def[:0]
	for _, j := range ic.runnable {
		fair := 0.0
		if totalWeight > 0 {
			fair = j.Job.Weight / totalWeight
		}
		s.def = append(s.def, fair-dominantShare(j, v.Total, nil))
	}
	sort.Stable(s)
	return s.jobs
}

// buildRound lays out the round's stage runs over recycled storage, in
// the oracle's stage order and with its initial fetch, eligibility and
// tail flags.
func (ic *incrState) buildRound(t *Tetris, v *View, sorted []*JobState) *roundState {
	rs := &ic.rs
	if rs.byJob == nil {
		rs.byJob = make(map[int]*JobState)
		rs.taken = make(map[*workload.Task]bool)
	}
	clear(rs.byJob)
	clear(rs.taken)
	rs.eligible = ic.eligible
	for _, j := range v.Jobs {
		rs.byJob[j.Job.ID] = j
	}
	// Pre-size the stageRun backing array: rs.stages holds pointers into
	// it, so it must not grow (and relocate) once pointers are taken.
	// stageBuf always has len == cap so recycled task buffers survive.
	maxStages := 0
	for _, j := range sorted {
		maxStages += len(j.Job.Stages)
	}
	if cap(ic.stageBuf) < maxStages {
		grown := make([]stageRun, maxStages)
		copy(grown, ic.stageBuf)
		ic.stageBuf = grown
	}
	ic.stageBuf = ic.stageBuf[:cap(ic.stageBuf)]
	rs.stages = rs.stages[:0]
	const initialFetch = 4
	used := 0
	for _, j := range sorted {
		for si := range j.Job.Stages {
			pending := j.Status.PendingInStage(si)
			if pending == 0 || !j.Status.StageReady(si) {
				continue
			}
			sr := &ic.stageBuf[used]
			used++
			buf := sr.tasks[:0]
			trsBuf := sr.trs[:0]
			*sr = stageRun{
				job:      j,
				stage:    si,
				pending:  pending,
				inTail:   j.Status.InBarrierTail(workload.TaskID{Job: j.Job.ID, Stage: si}, t.cfg.Barrier),
				eligible: ic.eligible[j.Job.ID],
			}
			n := initialFetch
			if n > pending {
				n = pending
			}
			sr.tasks = j.Status.AppendPending(si, n, buf)
			sr.trs = trsBuf
			rs.stages = append(rs.stages, sr)
		}
	}
	return rs
}

// scheduleIncremental is the incremental core's Schedule implementation.
// Step for step it follows the oracle; see the file comment for what is
// cached between steps.
func (t *Tetris) scheduleIncremental(v *View) []Assignment {
	ic := &t.inc
	ic.beginRound(t, v)

	ic.rt = nil
	if t.cfg.Trace != nil && t.cfg.Trace.sample() {
		ic.rt = &RoundTrace{Round: ic.round, Time: v.Time, Machines: len(v.Machines)}
	}

	ic.runnable = ic.runnable[:0]
	for _, j := range v.Jobs {
		t.indexJob(j)
		if j.Status.HasRunnable() {
			ic.runnable = append(ic.runnable, j)
		}
	}
	if len(ic.runnable) == 0 {
		return nil
	}
	sorted := ic.sortRunnable(v)

	eligibleCount := int(math.Ceil((1 - t.cfg.Fairness) * float64(len(sorted))))
	if eligibleCount < 1 {
		eligibleCount = 1
	}
	clear(ic.eligible)
	for _, j := range sorted[:eligibleCount] {
		ic.eligible[j.Job.ID] = true
	}
	if rt := ic.rt; rt != nil {
		rt.RunnableJobs = len(sorted)
		rt.EligibleJobs = eligibleCount
		for _, j := range sorted[eligibleCount:] {
			rt.CutoffJobIDs = append(rt.CutoffJobIDs, j.Job.ID)
		}
	}

	clear(ic.pScore)
	var pSum float64
	for _, j := range sorted {
		p := t.remainingWork(v, j)
		ic.pScore[j.Job.ID] = p
		pSum += p
	}
	pMean := pSum / float64(len(sorted))

	if cap(ic.free) < len(v.Machines) {
		ic.free = make([]resources.Vector, len(v.Machines))
		ic.freeVer = make([]uint32, len(v.Machines))
	}
	ic.free = ic.free[:len(v.Machines)]
	ic.freeVer = ic.freeVer[:len(v.Machines)]
	for i := range ic.freeVer {
		ic.freeVer[i] = 0
	}
	for i, m := range v.Machines {
		ic.free[i] = resources.Vector{}
		if m.Down {
			continue // no headroom: also blocks remote charges at dead sources
		}
		ic.free[i] = m.FreePacking()
		if t.cfg.HotspotThreshold > 0 {
			for _, k := range resources.Kinds() {
				if c := m.Capacity.Get(k); c > 0 && m.Reported.Get(k) > t.cfg.HotspotThreshold*c {
					ic.free[i] = resources.Vector{} // hot machine: place nothing
					break
				}
			}
		}
	}

	rs := ic.buildRound(t, v, sorted)
	var out []Assignment

	if t.cfg.StarvationSec > 0 {
		served := t.serveReservations(v, ic.free, rs)
		out = append(out, served...)
		// Mirror the shared rs.taken entries into the takenRound stamps
		// the incremental stage scans test instead of the map.
		for _, a := range served {
			ic.markTaken(ic.taskRoundFor(rs.byJob[a.Task.ID.Job], a.Task))
		}
	}

	for _, m := range v.Machines {
		if m.Down {
			continue // crashed/unreachable machine: place nothing
		}
		if t.res.Held(m.ID) {
			continue // machine held for a starved task
		}
		for fill := 0; ; fill++ {
			cands, aSum := t.collectIncr(v, m.ID, rs)
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
			if ic.rt != nil {
				ic.rt.Eps = eps
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
						ic.trace(TaskDecision{
							Task: cands[i].task.ID, Machine: m.ID,
							Outcome: OutcomeOutscored,
							Align:   cands[i].align, P: cands[i].p, Score: sc,
							Remote: cands[i].remote != nil,
						})
					}
				}
				ic.trace(TaskDecision{
					Task: c.task.ID, Machine: m.ID,
					Outcome: OutcomePlaced,
					Align:   c.align, P: c.p, Score: bestScore,
					Remote: c.remote != nil,
				})
			}
			out = append(out, Assignment{
				Task:    c.task,
				Machine: m.ID,
				Local:   c.demand,
				Remote:  c.remote,
			})
			rs.taken[c.task] = true // scanLocals (shared) reads the map
			ic.markTaken(c.tr)
			ic.free[m.ID] = ic.free[m.ID].Sub(c.demand).Max(resources.Vector{})
			ic.freeVer[m.ID]++
			for _, rc := range c.remote {
				ic.free[rc.Machine] = ic.free[rc.Machine].Sub(rc.Charge).Max(resources.Vector{})
				ic.freeVer[rc.Machine]++
			}
		}
	}
	if t.cfg.StarvationSec > 0 {
		t.detectStarvation(v, rs)
	}
	if rt := ic.rt; rt != nil {
		rt.Placed = len(out)
		t.cfg.Trace.ring.Append(*rt)
		ic.rt = nil
	}
	// A cache entry lives as long as its task can be considered: a placed
	// task leaves Pending (it comes back, if it fails, as a fresh entry),
	// and evictDeparted drops the tasks of departed jobs.
	for _, a := range out {
		ic.retire(a.Task)
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
// pending tasks from sr.cursor, all fetched — and leaves the minimum of
// their demand floors in sr.env. On a later visit in the same round,
// while no window task has been taken, !sr.env.FitsIn(avail) proves that
// every window task fails its own local-fit test on this machine (FitsIn
// is per-dimension and monotone, and a minimum involves no arithmetic),
// so the scan would add nothing, visit exactly the window again, fetch
// nothing and advance no cursor: skipping it changes no decision and no
// state a later step reads. A sampled round takes the unpruned path, so
// its infeasible-local records stay those of the first detection per
// (task, machine).
//
// The machine envelope. While every stage the walk visits has an
// envelope, a free vector that does not fit their minimum fits none of
// them, so one comparison skips the walk, StagePrunes counts each visit
// it covers, and the locality scan still runs.
func (t *Tetris) collectIncr(v *View, mid int, rs *roundState) ([]candidate, float64) {
	ic := &t.inc
	avail := ic.free[mid]
	if avail.IsZero() {
		return nil, 0
	}
	ic.curMid = mid
	ic.curAvail = avail
	ic.curCap = v.Machines[mid].Capacity
	ic.curNormAOK = false
	ic.cands = ic.cands[:0]
	ic.aSumAll, ic.aSumTail = 0, 0
	ic.anyTail = false
	ic.tick++

	walk := rs.stages
	if ic.rt == nil {
		if ic.machEnvStages < 0 {
			ic.machineEnvelope(rs)
		}
		if ic.machEnvStages > 0 && !ic.machEnv.FitsIn(avail) {
			ic.scan.MachinePrunes++
			ic.scan.StagePrunes += uint64(ic.machEnvStages)
			walk = nil
		}
	}
	for _, sr := range walk {
		if !sr.eligible && !sr.inTail {
			continue
		}
		if sr.envOK && ic.rt == nil && !sr.env.FitsIn(avail) {
			ic.scan.StagePrunes++
			continue
		}
		ic.scan.StageScans++
		var env resources.Vector
		added, scanned := 0, 0
		for i := sr.cursor; added < perStage && scanned < scanBudget; i++ {
			if i >= len(sr.tasks) {
				if len(sr.tasks) >= sr.pending {
					break
				}
				sr.ensureFetched()
				if i >= len(sr.tasks) {
					break
				}
			}
			for len(sr.trs) < len(sr.tasks) {
				sr.trs = append(sr.trs, nil)
			}
			task := sr.tasks[i]
			tr := sr.trs[i]
			if tr == nil {
				tr = ic.taskRoundFor(sr.job, task)
				tr.sr = sr
				sr.trs[i] = tr
			}
			if tr.takenRound == ic.round {
				if i == sr.cursor {
					sr.cursor++
				}
				continue
			}
			scanned++
			before := len(ic.cands)
			t.considerTR(tr, task, sr.inTail)
			if len(ic.cands) > before {
				added++
			} else if added == 0 {
				if floor := tr.demandFloor(); scanned == 1 {
					env = floor
				} else {
					env = env.Min(floor)
				}
			}
		}
		if added == 0 && scanned > 0 {
			sr.env, sr.envOK = env, true
			ic.machEnvStages = -1
		}
	}
	t.scanLocals(mid, rs, ic.consider)

	cands := ic.cands
	aSum := ic.aSumAll
	if ic.anyTail {
		tail := cands[:0]
		for _, c := range cands {
			if c.inTail {
				tail = append(tail, c)
			}
		}
		ic.cands = tail
		cands = tail
		aSum = ic.aSumTail
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
// the option is rejected before the cache is opened. A sampled round
// takes the unpruned path, as for the stage envelope.
func (t *Tetris) considerIncr(j *JobState, task *workload.Task, inTail bool) {
	ic := &t.inc
	if ic.rt == nil && !t.floorFits(ic.curV.DemandPeak(j, task), ic.curAvail) {
		ic.scan.LocalPrunes++
		return
	}
	t.considerTR(ic.taskRoundFor(j, task), task, inTail)
}

// considerTR is considerIncr after the cache-entry lookup — the stage
// scans resolve tr positionally and call it directly.
func (t *Tetris) considerTR(tr *taskRound, task *workload.Task, inTail bool) {
	ic := &t.inc
	ic.scan.Considered++
	if tr.tick == ic.tick {
		return // already a candidate in this collect call
	}
	mid := ic.curMid
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
		tr.remoteOK = false
		tr.alignOK = false
	}
	if tr.failLocal || tr.failRemote {
		return // early-exit prune: free only shrinks, the failure stands
	}
	if !tr.d.FitsIn(ic.curAvail) {
		tr.failLocal = true
		// Traced at first detection only; the early-exit prune above
		// keeps re-tests (and re-records) off later placements.
		if ic.rt != nil {
			ic.trace(TaskDecision{Task: task.ID, Machine: mid, Outcome: OutcomeInfeasibleLocal})
		}
		return
	}
	if !t.cfg.CPUMemOnly && tr.remoteMB > 0 {
		if !tr.remoteSet {
			if tr.affinity {
				// Partial locality: charges are machine-specific.
				tr.remote = LiveCharges(ic.curV, RemoteCharges(task, mid))
			} else {
				if !tr.liveSet {
					if !tr.baseChargesSet {
						tr.baseCharges = RemoteCharges(task, -1)
						tr.baseChargesSet = true
					}
					tr.live = LiveCharges(ic.curV, tr.baseCharges)
					tr.liveSet = true
				}
				tr.remote = tr.live
			}
			tr.remoteSet = true
		}
		// Recheck source feasibility only when some source's ledger
		// version moved since the last passing check.
		var verSum uint64
		for _, rc := range tr.remote {
			verSum += uint64(ic.freeVer[rc.Machine])
		}
		if !tr.remoteOK || verSum != tr.remoteVerSum {
			for _, rc := range tr.remote {
				if !rc.Charge.FitsIn(ic.free[rc.Machine]) {
					tr.failRemote = true
					if !tr.affinity {
						tr.baseRemoteDead = true
					}
					if ic.rt != nil {
						ic.trace(TaskDecision{Task: task.ID, Machine: mid, Outcome: OutcomeInfeasibleRemote})
					}
					return
				}
			}
			tr.remoteOK = true
			tr.remoteVerSum = verSum
		}
	}
	var align float64
	if tr.alignOK && tr.alignVer == ic.freeVer[mid] {
		align = tr.align
	} else {
		if !ic.curNormAOK {
			ic.curNormA = ic.curAvail.Normalize(ic.curCap)
			ic.curNormAOK = true
		}
		if !tr.normDOK {
			if tr.affinity {
				tr.normD = tr.d.Normalize(ic.curCap)
			} else {
				if !tr.normBaseSet || tr.normBaseCap != ic.curCap {
					tr.normBase = tr.base.Normalize(ic.curCap)
					tr.normBaseCap = ic.curCap
					tr.normBaseSet = true
				}
				tr.normD = tr.normBase
			}
			tr.normDOK = true
		}
		align = t.cfg.Scorer.ScoreNorm(tr.normD, ic.curNormA)
		if tr.remote != nil {
			align *= 1 - t.cfg.RemotePenalty
		}
		tr.align = align
		tr.alignVer = ic.freeVer[mid]
		tr.alignOK = true
	}
	tr.tick = ic.tick
	ic.cands = append(ic.cands, candidate{
		task:   task,
		demand: tr.d,
		remote: tr.remote,
		align:  align,
		inTail: inTail,
		p:      tr.p,
		tr:     tr,
	})
	ic.aSumAll += align
	if inTail {
		ic.anyTail = true
		ic.aSumTail += align
	}
}
