package scheduler

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Regression tests for the long-lived scheduler-state bugs: per-job map
// leaks (everything a finished job left behind must be evicted), the
// scanLocals cursor drift after tombstone compaction, and the stale
// stageScore SRTF cache that ignored refining estimates.

// tetrisStateSizes snapshots every long-lived per-job/per-task map. The
// locality index is dense (one list and one cursor per machine ID), so
// it counts the entries still held and the cursors not back at 0.
func tetrisStateSizes(t *Tetris) map[string]int {
	locEntries, cursors := 0, 0
	for mid, es := range t.locals {
		locEntries += len(es)
		if t.localsCursor[mid] != 0 {
			cursors++
		}
	}
	return map[string]int{
		"stageScore":   len(t.stageScore),
		"localEntries": locEntries,
		"localsCursor": cursors,
		"indexedJobs":  len(t.indexedJobs),
		"firstSeen":    len(t.firstSeen),
		"reserved":     t.res.Len(),
		"active":       len(t.active),
		"incTasks":     len(t.inc.tasks),
	}
}

// TestTetrisStateEvictionAfterCompletion drives a fault-injected world
// until every job has finished and asserts all long-lived maps return
// to their empty baseline — previously stageScore, indexedJobs,
// firstSeen, locals/localsCursor, orphaned reservations and the
// incremental core's task cache kept keys for finished jobs forever.
func TestTetrisStateEvictionAfterCompletion(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.StarvationSec = 2 // exercise firstSeen + reserved too
	labels, mks := tetrisCoreMakers(cfg)
	for i, mk := range mks {
		t.Run(labels[i], func(t *testing.T) {
			sched := mk()

			rng := rand.New(rand.NewSource(11))
			const nMach, nJobs = 8, 12
			caps := genCaps(rng, nMach)
			jobs := genJobs(rng, nJobs, nMach)
			arrive := make([]int, nJobs)
			for i := range arrive {
				arrive[i] = rng.Intn(10)
			}
			w := newEqWorld(sched, jobs, caps, arrive, 12)

			finishedAll := false
			for r := 0; r < 600; r++ {
				w.step(r, true, false)
				finishedAll = true
				for _, j := range w.jobs {
					if !j.Status.Finished() {
						finishedAll = false
						break
					}
				}
				if finishedAll {
					// One more round: the View is now empty of jobs, so
					// evictDeparted sweeps the last departures.
					w.step(r+1, false, false)
					break
				}
			}
			if !finishedAll {
				t.Fatalf("jobs did not finish within 600 rounds")
			}
			for name, size := range tetrisStateSizes(tetrisOf(sched)) {
				if size != 0 {
					t.Errorf("%s holds %d entries after all jobs completed; want 0", name, size)
				}
			}
		})
	}
}

// TestTetrisStateBounded asserts the maps track only active jobs while
// a rolling workload churns: at any point, sizes must be bounded by the
// live task/job population, not by everything ever seen.
func TestTetrisStateBounded(t *testing.T) {
	cfg := DefaultTetrisConfig()
	sched := NewTetris(cfg)
	rng := rand.New(rand.NewSource(5))
	const nMach, nJobs = 10, 30
	caps := genCaps(rng, nMach)
	jobs := genJobs(rng, nJobs, nMach)
	arrive := make([]int, nJobs)
	for i := range arrive {
		arrive[i] = i * 4 // staggered arrivals: early jobs finish while late ones run
	}
	w := newEqWorld(sched, jobs, caps, arrive, 6)
	for r := 0; r < 300; r++ {
		// Snapshot the population this round's View will carry — eviction
		// runs at the top of Schedule against exactly this set (jobs that
		// finish during the round's completion phase are swept next round).
		activeTasks := 0
		activeJobs := 0
		for i, j := range w.jobs {
			if arrive[i] <= r && !j.Status.Finished() {
				activeJobs++
				for _, st := range j.Job.Stages {
					activeTasks += len(st.Tasks)
				}
			}
		}
		w.step(r, false, false)
		sizes := tetrisStateSizes(sched)
		if sizes["indexedJobs"] > activeJobs {
			t.Fatalf("round %d: indexedJobs=%d exceeds %d active jobs", r, sizes["indexedJobs"], activeJobs)
		}
		if sizes["localEntries"] > activeTasks {
			t.Fatalf("round %d: locality index holds %d entries for %d live tasks", r, sizes["localEntries"], activeTasks)
		}
		if sizes["incTasks"] > activeTasks {
			t.Fatalf("round %d: incremental task cache holds %d entries for %d live tasks", r, sizes["incTasks"], activeTasks)
		}
	}
}

// TestTaskCacheHoldsOnlyPendingTasks: a task-cache entry lives exactly as
// long as its task can be considered. After every round of a
// fault-injected deep world with input blocks — where most local options
// are pruned before the cache is opened, and failed tasks come back to
// Pending — every entry belongs to a pending task of an active job.
func TestTaskCacheHoldsOnlyPendingTasks(t *testing.T) {
	sched := NewTetris(DefaultTetrisConfig())
	const rounds = 120
	w := newDeepWorlds([]func() Scheduler{func() Scheduler { return sched }}, 41, rounds, true)[0]
	peak := 0
	for r := 0; r < rounds; r++ {
		w.step(r, true, false)
		pending := 0
		for i, j := range w.jobs {
			if w.arrive[i] > r || j.Status.Finished() {
				continue
			}
			for _, st := range j.Job.Stages {
				for _, task := range st.Tasks {
					if j.Status.State(task.ID) == workload.Pending {
						pending++
					}
				}
			}
		}
		for task := range sched.inc.tasks {
			if st := w.jobByID(task.ID.Job).Status.State(task.ID); st != workload.Pending {
				t.Fatalf("round %d: task %v is cached in state %v", r, task.ID, st)
			}
		}
		if n := len(sched.inc.tasks); n > pending {
			t.Fatalf("round %d: task cache holds %d entries for %d pending tasks", r, n, pending)
		}
		peak = max(peak, len(sched.inc.tasks))
	}
	if st := sched.ScanStats(); peak == 0 || st.LocalPrunes == 0 {
		t.Fatalf("vacuous run: peak cache %d entries, %+v", peak, st)
	}
}

// TestScanLocalsRotationAfterCompaction drives tombstone compaction and
// asserts the rotating cursor still delivers full, non-repeating
// coverage: the pre-fix cursor was computed against pre-compaction
// indices, so after a compaction the next scan started at the wrong
// entry, re-considering some live local tasks while persistently
// skipping others. The discriminating shape is tasks that die at
// positions the scan has already passed (tombstoned only on a later
// wrap-around visit): those shrink the list without entering the
// pre-fix cursor arithmetic.
func TestScanLocalsRotationAfterCompaction(t *testing.T) {
	const nTasks = 30
	job := &workload.Job{ID: 1, Weight: 1}
	st := &workload.Stage{Name: "s0"}
	for i := 0; i < nTasks; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:     workload.TaskID{Job: 1, Stage: 0, Index: i},
			Peak:   resources.New(1, 1, 0, 0, 0, 0),
			Work:   workload.Work{CPUSeconds: 10},
			Inputs: []workload.InputBlock{{Machine: 0, SizeMB: 100}},
		})
	}
	job.Stages = append(job.Stages, st)
	j := &JobState{Job: job, Status: workload.NewStatus(job)}

	sched := NewTetris(DefaultTetrisConfig())
	sched.indexJob(j)
	if got := len(sched.locals[0]); got != nTasks {
		t.Fatalf("locality index holds %d entries, want %d", got, nTasks)
	}
	rs := &roundState{
		byJob:    map[int]*JobState{1: j},
		eligible: map[int]bool{1: true},
		taken:    map[*workload.Task]bool{},
	}

	var order []int
	scan := func() {
		sched.scanLocals(0, rs, func(_ *JobState, task *workload.Task, _ bool) {
			order = append(order, task.ID.Index)
		})
	}

	// Scan 1 considers entries 0..7 (everything pending, 8 per scan).
	scan()
	if len(order) != 8 || order[0] != 0 || order[7] != 7 {
		t.Fatalf("first scan considered %v, want tasks 0..7", order)
	}
	// Tasks 0..5 (behind the cursor — only tombstoned once the scan wraps
	// back around) and 8..13 (right at the cursor) leave the pending
	// state between rounds.
	for _, i := range []int{0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13} {
		j.Status.MarkRunning(st.Tasks[i].ID)
	}
	order = order[:0]

	// Live set is now {6,7,14..29}: 18 tasks. Successive scans must
	// deliver all 18 distinct before re-considering any, across the
	// compactions the dead entries trigger.
	live := map[int]bool{6: true, 7: true}
	for i := 14; i < nTasks; i++ {
		live[i] = true
	}
	for call := 0; call < 3; call++ {
		scan()
	}
	if len(order) < len(live) {
		t.Fatalf("only %d considerations over three scans, want >= %d", len(order), len(live))
	}
	firstLap := map[int]int{}
	for _, idx := range order[:len(live)] {
		firstLap[idx]++
	}
	for idx := range live {
		if firstLap[idx] != 1 {
			t.Errorf("live local task %d considered %d times within the first full rotation, want exactly 1 (order: %v)",
				idx, firstLap[idx], order)
		}
	}
}

// TestStageScoreInvalidation: when the scheduler-visible estimate of a
// stage moves (the §4.1 estimator refining Overestimated → FromStage),
// remainingWork must recompute the cached per-stage average. The stale
// cache returned the first-seen score for the job's whole life.
func TestStageScoreInvalidation(t *testing.T) {
	job := &workload.Job{ID: 7, Weight: 1}
	st := &workload.Stage{Name: "s0"}
	for i := 0; i < 4; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: 7, Stage: 0, Index: i},
			Peak: resources.New(2, 4, 10, 10, 50, 50),
			Work: workload.Work{CPUSeconds: 20},
		})
	}
	job.Stages = append(job.Stages, st)
	j := &JobState{Job: job, Status: workload.NewStatus(job)}

	total := resources.New(64, 128, 800, 800, 4000, 4000)
	mkView := func(scale float64) *View {
		return &View{
			Total: total,
			EstimateDemand: func(_ *JobState, task *workload.Task) (resources.Vector, float64) {
				return task.Peak.Scale(scale), 30 * scale
			},
		}
	}

	sched := NewTetris(DefaultTetrisConfig())
	over := sched.remainingWork(mkView(1.8), j)  // overestimated first sight
	refined := sched.remainingWork(mkView(1), j) // estimator refined

	fresh := NewTetris(DefaultTetrisConfig())
	want := fresh.remainingWork(mkView(1), j)
	if refined != want {
		t.Fatalf("remainingWork after refinement = %v, want the from-scratch %v (stale cache)", refined, want)
	}
	if refined == over {
		t.Fatalf("remainingWork ignored the estimate change (stuck at %v)", over)
	}
	// And back: a moving running mean must keep tracking.
	again := sched.remainingWork(mkView(1.8), j)
	if again != over {
		t.Fatalf("remainingWork did not re-track a moving estimate: %v vs %v", again, over)
	}
}

// TestTetrisRescoringMatchesUncachedOracle is the satellite differential
// test: estimates refine mid-workload (per stage, at staggered rounds)
// and the cached scheduler must match a from-scratch oracle that never
// caches stage scores — bit-identical assignment sequences and job
// completion order, on the core and on its oracle.
func TestTetrisRescoringMatchesUncachedOracle(t *testing.T) {
	// refining estimator: every stage starts overestimated by 60% and
	// snaps to the true value at a stage-dependent round, the way §4.1
	// estimates move from Overestimated to FromStage mid-workload.
	refine := func(round int, j *JobState, task *workload.Task) (resources.Vector, float64) {
		refineAt := 3 + (j.Job.ID*5+task.ID.Stage*3)%12
		if round < refineAt {
			return task.Peak.Scale(1.6), task.PeakDuration() * 1.5
		}
		return task.Peak, task.PeakDuration()
	}

	labels, mks := tetrisCoreMakers(DefaultTetrisConfig())
	for i, mk := range mks {
		t.Run(labels[i], func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cached := mk()
				oracle := mk()
				tetrisOf(oracle).uncachedSRTF = true

				rng := rand.New(rand.NewSource(seed))
				nMach := 4 + rng.Intn(8)
				nJobs := 4 + rng.Intn(6)
				caps := genCaps(rng, nMach)
				jobs := genJobs(rng, nJobs, nMach)
				arrive := make([]int, nJobs)
				for i := range arrive {
					arrive[i] = rng.Intn(6)
				}
				wa := newEqWorld(cached, jobs, caps, arrive, seed+1)
				wb := newEqWorld(oracle, jobs, caps, arrive, seed+1)
				wa.est, wb.est = refine, refine

				var doneA, doneB []string
				finishedA, finishedB := map[int]bool{}, map[int]bool{}
				for r := 0; r < 120; r++ {
					a := wa.step(r, true, false)
					b := wb.step(r, true, false)
					if msg := diffAssignments(a, b); msg != "" {
						t.Fatalf("seed=%d round=%d: cached vs uncached-oracle diverge: %s", seed, r, msg)
					}
					doneA = appendNewlyFinished(doneA, finishedA, wa, r)
					doneB = appendNewlyFinished(doneB, finishedB, wb, r)
				}
				if fmt.Sprint(doneA) != fmt.Sprint(doneB) {
					t.Fatalf("seed=%d: completion order diverged:\ncached:  %v\noracle:  %v", seed, doneA, doneB)
				}
			}
		})
	}
}

func appendNewlyFinished(done []string, seen map[int]bool, w *eqWorld, round int) []string {
	for _, j := range w.jobs {
		if !seen[j.Job.ID] && j.Status.Finished() {
			seen[j.Job.ID] = true
			done = append(done, fmt.Sprintf("j%d@r%d", j.Job.ID, round))
		}
	}
	return done
}
