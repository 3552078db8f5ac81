package scheduler

import (
	"math"
	"sort"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// This file is the reference Tetris core: the original, straight-line
// implementation of §3.2–§3.5. It rebuilds the full candidate set —
// feasibility, remote checks and alignment scores — after every
// placement on every machine, which is easy to audit against the paper
// but O(machines × placements × tasks × sources) per round.
//
// It is kept, verbatim, as the behavioural oracle for the incremental
// core (tetris_incremental.go): the differential equivalence suite and
// FuzzScheduleEquivalence assert that both emit bit-identical assignment
// sequences. Fix bugs here first, then make the incremental core match.
// It lives in a _test.go file so that no production binary carries a
// second scheduler code path and nothing outside the tests can select it.

// referenceTetris runs the oracle behind the Scheduler interface: the
// prologue of Tetris.Schedule, then the reference loop in place of the
// incremental one. Everything else — configuration, the locality index,
// reservations, the state evictDeparted sweeps — is the embedded Tetris.
type referenceTetris struct{ *Tetris }

func newReferenceTetris(cfg TetrisConfig) referenceTetris {
	return referenceTetris{NewTetris(cfg)}
}

// Schedule implements Scheduler.
func (r referenceTetris) Schedule(v *View) []Assignment {
	r.localsRound++
	r.evictDeparted(v)
	return r.scheduleReference(v)
}

// tetrisOf returns the Tetris state behind either build of a differential
// test, so assertions on long-lived state read both the same way.
func tetrisOf(s Scheduler) *Tetris {
	if r, ok := s.(referenceTetris); ok {
		return r.Tetris
	}
	return s.(*Tetris)
}

// tetrisCoreMakers builds the two sides of a Tetris differential test for
// one knob configuration: the production core and its oracle. The
// equivalence driver compares them round by round.
func tetrisCoreMakers(cfg TetrisConfig) ([]string, []func() Scheduler) {
	return []string{"incremental", "reference"}, []func() Scheduler{
		func() Scheduler { return NewTetris(cfg) },
		func() Scheduler { return newReferenceTetris(cfg) },
	}
}

// fairnessEntry pairs a job with its distance below fair share.
type fairnessEntry struct {
	job     *JobState
	deficit float64
}

// sortByDeficit returns the given jobs sorted by how far they are below
// their fair share (most deprived first). share computes a job's current
// share in [0,1]; fair share is weight-proportional over all active jobs
// in the view.
func sortByDeficit(v *View, jobs []*JobState, share func(*JobState) float64) []*JobState {
	var totalWeight float64
	for _, j := range v.Jobs {
		totalWeight += j.Job.Weight
	}
	entries := make([]fairnessEntry, 0, len(jobs))
	for _, j := range jobs {
		fair := 0.0
		if totalWeight > 0 {
			fair = j.Job.Weight / totalWeight
		}
		entries = append(entries, fairnessEntry{job: j, deficit: fair - share(j)})
	}
	sort.SliceStable(entries, func(a, b int) bool {
		if entries[a].deficit != entries[b].deficit {
			return entries[a].deficit > entries[b].deficit
		}
		return entries[a].job.Job.ID < entries[b].job.Job.ID
	})
	out := make([]*JobState, len(entries))
	for i, e := range entries {
		out[i] = e.job
	}
	return out
}

// referenceRound is the oracle's round: the roundState it shares with
// serveReservations, detectStarvation and scanLocals, plus two memo
// tables only it reads.
type referenceRound struct {
	*roundState
	// chargeCache and demandCache memoize RemoteCharges and
	// EffectiveDemand per task for "no local block" placements —
	// identical for every machine holding none of the task's input,
	// which is the overwhelmingly common case.
	chargeCache map[*workload.Task][]RemoteCharge
	demandCache map[*workload.Task]resources.Vector
}

func (t *Tetris) buildRound(v *View, sorted []*JobState, eligible map[int]bool) *referenceRound {
	rs := &referenceRound{
		roundState: &roundState{
			byJob:    make(map[int]*JobState, len(v.Jobs)),
			eligible: eligible,
			taken:    make(map[*workload.Task]bool),
		},
		chargeCache: make(map[*workload.Task][]RemoteCharge),
		demandCache: make(map[*workload.Task]resources.Vector),
	}
	for _, j := range v.Jobs {
		rs.byJob[j.Job.ID] = j
	}
	const initialFetch = 4
	for _, j := range sorted {
		for si := range j.Job.Stages {
			pending := j.Status.PendingInStage(si)
			if pending == 0 || !j.Status.StageReady(si) {
				continue
			}
			sr := &stageRun{
				job:      j,
				stage:    si,
				pending:  pending,
				inTail:   j.Status.InBarrierTail(workload.TaskID{Job: j.Job.ID, Stage: si}, t.cfg.Barrier),
				eligible: eligible[j.Job.ID],
			}
			n := initialFetch
			if n > pending {
				n = pending
			}
			sr.tasks = j.Status.AppendPending(si, n, nil)
			rs.stages = append(rs.stages, sr)
		}
	}
	return rs
}

// scheduleReference is the reference core's Schedule implementation.
func (t *Tetris) scheduleReference(v *View) []Assignment {
	var withRunnable []*JobState
	for _, j := range v.Jobs {
		t.indexJob(j)
		if j.Status.HasRunnable() {
			withRunnable = append(withRunnable, j)
		}
	}
	if len(withRunnable) == 0 {
		return nil
	}
	// Fairness restriction: consider only the (1−f) fraction of jobs
	// furthest from their fair (dominant-resource) share.
	sorted := sortByDeficit(v, withRunnable, func(j *JobState) float64 {
		return dominantShare(j, v.Total, nil)
	})
	eligibleCount := int(math.Ceil((1 - t.cfg.Fairness) * float64(len(sorted))))
	if eligibleCount < 1 {
		eligibleCount = 1
	}
	eligible := make(map[int]bool, eligibleCount)
	for _, j := range sorted[:eligibleCount] {
		eligible[j.Job.ID] = true
	}

	// Job remaining-work scores and their mean, computed once per round.
	pScore := make(map[int]float64, len(sorted))
	var pSum float64
	for _, j := range sorted {
		p := t.remainingWork(v, j)
		pScore[j.Job.ID] = p
		pSum += p
	}
	pMean := pSum / float64(len(sorted))

	// Per-round free-resource ledger.
	free := make([]resources.Vector, len(v.Machines))
	for i, m := range v.Machines {
		if m.Down {
			continue // no headroom: also blocks remote charges at dead sources
		}
		free[i] = m.FreePacking()
		if t.cfg.HotspotThreshold > 0 {
			for _, k := range resources.Kinds() {
				if c := m.Capacity.Get(k); c > 0 && m.Reported.Get(k) > t.cfg.HotspotThreshold*c {
					free[i] = resources.Vector{} // hot machine: place nothing
					break
				}
			}
		}
	}
	rs := t.buildRound(v, sorted, eligible)
	var out []Assignment

	// Starvation prevention: retire stale reservations, try to place
	// reserved tasks first, and keep reserved machines closed otherwise.
	if t.cfg.StarvationSec > 0 {
		out = append(out, t.serveReservations(v, free, rs.roundState)...)
	}

	for _, m := range v.Machines {
		if m.Down {
			continue // crashed/unreachable machine: place nothing
		}
		if t.res.Held(m.ID) {
			continue // machine held for a starved task
		}
		for {
			cands := t.collectCandidates(v, m.ID, free, rs)
			if len(cands) == 0 {
				break
			}
			// ε normalization: mean alignment of current candidates over
			// mean remaining work of active jobs (§3.3.2).
			var aSum float64
			for i := range cands {
				aSum += cands[i].align
			}
			aMean := aSum / float64(len(cands))
			eps := 0.0
			if pMean > 0 {
				eps = t.cfg.EpsilonMultiplier * aMean / pMean
			}
			t.recordEps(eps)

			best := -1
			bestScore := math.Inf(-1)
			for i := range cands {
				score := cands[i].align - eps*pScore[cands[i].task.ID.Job]
				if t.cfg.SRTFOnly {
					score = -pScore[cands[i].task.ID.Job]
				}
				if score > bestScore {
					bestScore = score
					best = i
				}
			}
			c := cands[best]
			out = append(out, Assignment{
				Task:    c.task,
				Machine: m.ID,
				Local:   c.demand,
				Remote:  c.remote,
			})
			rs.taken[c.task] = true
			free[m.ID] = free[m.ID].Sub(c.demand).Max(resources.Vector{})
			for _, rc := range c.remote {
				free[rc.Machine] = free[rc.Machine].Sub(rc.Charge).Max(resources.Vector{})
			}
		}
	}
	if t.cfg.StarvationSec > 0 {
		t.detectStarvation(v, rs.roundState)
	}
	return out
}

// collectCandidates gathers the feasible tasks for machine mid: per
// (job, stage) the first few untaken pending tasks, plus pending tasks
// with input local to the machine. If any candidate is in a barrier tail
// (§3.5), only tail candidates are returned; tail preference bypasses the
// fairness restriction, since it takes only a small amount of resources.
func (t *Tetris) collectCandidates(v *View, mid int, free []resources.Vector, rs *referenceRound) []candidate {
	avail := free[mid]
	if avail.IsZero() {
		return nil
	}
	capacity := v.Machines[mid].Capacity
	var cands []candidate
	anyTail := false
	var seen map[*workload.Task]bool // allocated lazily; locals may duplicate

	consider := func(j *JobState, task *workload.Task, inTail bool) {
		if seen[task] {
			return
		}
		peak := v.DemandPeak(j, task)
		affinity := task.HasLocalAffinity(mid)
		var d resources.Vector
		if affinity {
			d = EffectiveDemand(peak, task, mid)
		} else {
			var ok bool
			d, ok = rs.demandCache[task]
			if !ok {
				d = EffectiveDemand(peak, task, -1)
				rs.demandCache[task] = d
			}
		}
		if t.cfg.CPUMemOnly {
			d = projectCPUMem(d)
		}
		if !d.FitsIn(avail) {
			return
		}
		var remote []RemoteCharge
		if !t.cfg.CPUMemOnly && task.RemoteInputMB(mid) > 0 {
			if affinity {
				remote = RemoteCharges(task, mid) // partial locality: machine-specific
			} else {
				var ok bool
				remote, ok = rs.chargeCache[task]
				if !ok {
					remote = RemoteCharges(task, -1)
					rs.chargeCache[task] = remote
				}
			}
			remote = LiveCharges(v, remote) // dead sources read from replicas
			for _, rc := range remote {
				if !rc.Charge.FitsIn(free[rc.Machine]) {
					return
				}
			}
		}
		if seen == nil {
			seen = make(map[*workload.Task]bool, 8)
		}
		seen[task] = true
		align := t.cfg.Scorer.ScoreNorm(d.Normalize(capacity), avail.Normalize(capacity))
		if remote != nil {
			align *= 1 - t.cfg.RemotePenalty
		}
		cands = append(cands, candidate{task: task, demand: d, remote: remote, align: align, inTail: inTail})
		if inTail {
			anyTail = true
		}
	}

	for _, sr := range rs.stages {
		if !sr.eligible && !sr.inTail {
			continue
		}
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
			task := sr.tasks[i]
			if rs.taken[task] {
				if i == sr.cursor {
					sr.cursor++
				}
				continue
			}
			scanned++
			before := len(cands)
			consider(sr.job, task, sr.inTail)
			if len(cands) > before {
				added++
			}
		}
	}
	// Tasks with input blocks on this machine (bounded scan with lazy
	// compaction: entries whose task left the pending state are dropped).
	t.scanLocals(mid, rs.roundState, consider)

	if anyTail {
		tail := cands[:0]
		for _, c := range cands {
			if c.inTail {
				tail = append(tail, c)
			}
		}
		return tail
	}
	return cands
}
