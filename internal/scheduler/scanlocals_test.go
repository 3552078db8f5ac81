package scheduler

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// scanLocalsReference is scanLocals as it stood before the per-stage
// records: the job lookup, the state, readiness, taken, barrier-tail and
// eligibility tests are all made afresh on every entry visit, in the
// original order. scanLocals is shared by every core, so the core
// equivalence suites cannot see a mistake in it; this is its oracle.
func (t *Tetris) scanLocalsReference(v *View, mid int, rs *roundState, consider func(*JobState, *workload.Task, bool)) {
	entries := t.locals[mid]
	n := len(entries)
	if n == 0 {
		return
	}
	const (
		maxConsider = 8
		maxScan     = 64
	)
	start := t.localsCursor[mid] % n
	considered, scanned := 0, 0
	dead := 0
	off := 0
	for ; off < n && considered < maxConsider && scanned < maxScan; off++ {
		i := (start + off) % n
		e := entries[i]
		if e.task == nil {
			continue
		}
		scanned++
		j, ok := rs.byJob[e.st.jobID]
		if !ok {
			entries[i].task = nil
			dead++
			continue
		}
		st := j.Status
		id := e.task.ID
		if st.State(id) != workload.Pending {
			entries[i].task = nil
			dead++
			continue
		}
		if !st.StageReady(id.Stage) || rs.taken[e.task] {
			continue
		}
		inTail := st.InBarrierTail(id, t.cfg.Barrier)
		if !inTail && !rs.eligibleJob(e.st.jobID) {
			continue
		}
		consider(j, e.task, inTail)
		considered++
	}
	if dead == 0 {
		t.localsCursor[mid] = start + off
		return
	}
	nextOld := (start + off) % n
	newCursor := 0
	out := entries[:0]
	for i, e := range entries {
		if e.task != nil {
			if i < nextOld {
				newCursor++
			}
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		delete(t.locals, mid)
		delete(t.localsCursor, mid)
		return
	}
	t.locals[mid] = out
	t.localsCursor[mid] = newCursor % len(out)
}

// TestScanLocalsMatchesReference drives scanLocals and its oracle over
// the same randomised histories — multi-stage jobs whose later stages
// are not ready, jobs leaving the view, tasks going running, done and
// failed behind, at and ahead of the cursors, lists longer than maxScan,
// more than maxConsider live entries, ineligible jobs with and without
// barrier-tail stages, entries taken in the middle of a round — and
// requires, after every single scan, the same sequence of consider calls,
// the same surviving entries and the same cursor.
func TestScanLocalsMatchesReference(t *testing.T) {
	const (
		machines = 3
		seeds    = 60
		rounds   = 40
	)
	// What the histories exercised, summed over seeds.
	var cov struct {
		scans, capped, long, compacted, emptied     int
		notReady, departed, taken, tail, ineligTail int
		ineligible                                  int
	}
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		var jobs []*JobState
		for id, nJobs := 0, 4+r.Intn(5); id < nJobs; id++ {
			job := &workload.Job{ID: id, Weight: 1}
			for si, nStages := 0, 1+r.Intn(3); si < nStages; si++ {
				st := &workload.Stage{Name: fmt.Sprintf("s%d", si)}
				if si > 0 {
					st.Deps = []int{si - 1}
				}
				for ti, nTasks := 0, 4+r.Intn(50); ti < nTasks; ti++ {
					task := &workload.Task{
						ID:   workload.TaskID{Job: id, Stage: si, Index: ti},
						Peak: resources.New(1, 1, 0, 0, 0, 0),
						Work: workload.Work{CPUSeconds: 1},
					}
					for b, nBlocks := 0, r.Intn(4); b < nBlocks; b++ {
						task.Inputs = append(task.Inputs, workload.InputBlock{Machine: r.Intn(machines+1) - 1, SizeMB: 64})
					}
					st.Tasks = append(st.Tasks, task)
				}
				job.Stages = append(job.Stages, st)
			}
			jobs = append(jobs, &JobState{Job: job, Status: workload.NewStatus(job)})
		}
		cfg := DefaultTetrisConfig()
		cfg.Barrier = 0.5
		got, want := NewTetris(cfg), NewTetris(cfg)
		for _, j := range jobs {
			got.indexJob(j)
			want.indexJob(j)
		}

		type call struct {
			task   workload.TaskID
			inTail bool
		}
		present := make([]bool, len(jobs))
		for i := range present {
			present[i] = true
		}
		var running []*workload.Task
		for round := 0; round < rounds; round++ {
			byJob := map[int]*JobState{}
			eligible := map[int]bool{}
			for i, j := range jobs {
				if present[i] {
					byJob[j.Job.ID] = j
					eligible[j.Job.ID] = r.Intn(3) > 0
				}
			}
			takeSeed := r.Int63()
			got.localsRound++ // a new round, as Schedule would start it
			// One round on one side: a few scans per machine, as the fill
			// loop makes them, taking some of what is offered.
			play := func(sched *Tetris, scan func(*View, int, *roundState, func(*JobState, *workload.Task, bool))) (calls [][]call, taken []*workload.Task) {
				rs := &roundState{byJob: byJob, eligible: eligible, taken: map[*workload.Task]bool{}}
				take := rand.New(rand.NewSource(takeSeed))
				for mid := 0; mid < machines; mid++ {
					for fill := 0; fill < 3; fill++ {
						var cs []call
						scan(&View{}, mid, rs, func(j *JobState, task *workload.Task, inTail bool) {
							if byJob[task.ID.Job] != j {
								t.Fatalf("seed %d round %d: task %v offered with the wrong job", seed, round, task.ID)
							}
							cs = append(cs, call{task.ID, inTail})
							if !rs.taken[task] && take.Intn(3) == 0 {
								rs.taken[task] = true
								taken = append(taken, task)
							}
						})
						calls = append(calls, cs)
					}
				}
				return calls, taken
			}
			before := map[int]int{}
			for mid, es := range want.locals {
				before[mid] = len(es)
			}
			gotCalls, gotTaken := play(got, got.scanLocals)
			wantCalls, wantTaken := play(want, want.scanLocalsReference)

			for i := range wantCalls {
				if fmt.Sprint(gotCalls[i]) != fmt.Sprint(wantCalls[i]) {
					t.Fatalf("seed %d round %d scan %d (machine %d): considered\n  %v\nthe reference\n  %v",
						seed, round, i, i/3, gotCalls[i], wantCalls[i])
				}
			}
			if len(gotTaken) != len(wantTaken) {
				t.Fatalf("seed %d round %d: %d tasks taken, reference %d", seed, round, len(gotTaken), len(wantTaken))
			}
			for mid := 0; mid < machines; mid++ {
				g, w := got.locals[mid], want.locals[mid]
				if len(g) != len(w) {
					t.Fatalf("seed %d round %d machine %d: %d entries survive, reference %d", seed, round, mid, len(g), len(w))
				}
				for i := range w {
					if g[i].task != w[i].task {
						t.Fatalf("seed %d round %d machine %d entry %d: %v, reference %v", seed, round, mid, i, g[i].task.ID, w[i].task.ID)
					}
				}
				gc, gok := got.localsCursor[mid]
				wc, wok := want.localsCursor[mid]
				if gc != wc || gok != wok {
					t.Fatalf("seed %d round %d machine %d: cursor %d (%v), reference %d (%v)", seed, round, mid, gc, gok, wc, wok)
				}
			}

			// Coverage, read off the reference side.
			for i, cs := range wantCalls {
				cov.scans++
				if len(cs) == 8 {
					cov.capped++
				}
				if before[i/3] > 64 {
					cov.long++
				}
				for _, c := range cs {
					if c.inTail {
						cov.tail++
						if !eligible[c.task.Job] {
							cov.ineligTail++
						}
					}
				}
			}
			for mid, n := range before {
				switch after := len(want.locals[mid]); {
				case after == 0:
					cov.emptied++
				case after < n:
					cov.compacted++
				}
			}
			cov.taken += len(wantTaken)
			for i, j := range jobs {
				if !present[i] {
					continue
				}
				if !eligible[j.Job.ID] {
					cov.ineligible++
				}
				for si := range j.Job.Stages {
					if !j.Status.StageReady(si) {
						cov.notReady++
					}
				}
			}

			// Between rounds: what was taken starts running; running tasks
			// finish or fail; a finished job leaves the view, and now and
			// then so does an unfinished one (never to return).
			for _, task := range wantTaken {
				jobs[task.ID.Job].Status.MarkRunning(task.ID)
				running = append(running, task)
			}
			keep := running[:0]
			for _, task := range running {
				st := jobs[task.ID.Job].Status
				switch x := r.Intn(10); {
				case x < 6:
					st.MarkDone(task.ID, float64(round))
				case x < 7:
					st.MarkFailed(task.ID)
				default:
					keep = append(keep, task)
				}
			}
			running = keep
			for i, j := range jobs {
				if present[i] && (j.Status.Finished() || r.Intn(60) == 0) {
					present[i] = false
					cov.departed++
				}
			}
		}
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"scans that hit maxConsider": cov.capped, "scans of lists longer than maxScan": cov.long,
		"compactions": cov.compacted, "lists emptied": cov.emptied, "not-ready stages": cov.notReady,
		"departed jobs": cov.departed, "tasks taken mid-round": cov.taken, "tail offers": cov.tail,
		"tail offers of ineligible jobs": cov.ineligTail, "ineligible jobs": cov.ineligible,
	} {
		if n == 0 {
			t.Errorf("the histories never exercised: %s", name)
		}
	}
}

// TestLocalsVerdictIsPerRound: what scanLocals remembers about a (job,
// stage) holds for one Schedule call only. A stage that was not ready in
// one round and is in the next must have its local tasks offered — here
// they sit behind sixteen tasks no machine can hold, beyond the stage
// scan's window, so the locality scan is the only way to reach them. The
// core equivalence suites cannot see a stale verdict: every core would
// read the same one.
func TestLocalsVerdictIsPerRound(t *testing.T) {
	job := &workload.Job{ID: 0, Weight: 1}
	first := &workload.Stage{Name: "first", Tasks: []*workload.Task{{
		ID: workload.TaskID{Job: 0, Stage: 0, Index: 0}, Peak: resources.New(1, 1, 0, 0, 0, 0), Work: workload.Work{CPUSeconds: 1},
	}}}
	second := &workload.Stage{Name: "second", Deps: []int{0}}
	for i := 0; i < scanBudget+4; i++ {
		task := &workload.Task{
			ID:   workload.TaskID{Job: 0, Stage: 1, Index: i},
			Peak: resources.New(64, 1, 0, 0, 0, 0), // fits nowhere
			Work: workload.Work{CPUSeconds: 1},
		}
		if i >= scanBudget {
			task.Peak = resources.New(1, 1, 0, 0, 0, 0)
			task.Inputs = []workload.InputBlock{{Machine: 0, SizeMB: 1}}
		}
		second.Tasks = append(second.Tasks, task)
	}
	job.Stages = []*workload.Stage{first, second}
	j := &JobState{Job: job, Status: workload.NewStatus(job)}
	capacity := resources.New(8, 8, 100, 100, 100, 100)
	v := &View{Machines: []*MachineState{{ID: 0, Capacity: capacity}}, Total: capacity, Jobs: []*JobState{j}}

	labels, mks := tetrisCoreMakers(DefaultTetrisConfig())
	for i, mk := range mks {
		core := labels[i]
		*j.Status = *workload.NewStatus(job)
		sched := mk()
		asgs := sched.Schedule(v)
		if len(asgs) != 1 || asgs[0].Task != first.Tasks[0] {
			t.Fatalf("%v core, round 1: placed %d tasks, want the first stage's one", core, len(asgs))
		}
		j.Status.MarkRunning(first.Tasks[0].ID)
		j.Status.MarkDone(first.Tasks[0].ID, 1)
		v.Time = 1
		asgs = sched.Schedule(v)
		if len(asgs) != 4 {
			t.Fatalf("%v core, round 2: placed %d tasks, want the second stage's 4 local ones", core, len(asgs))
		}
		for _, a := range asgs {
			if a.Task.ID.Stage != 1 || a.Task.ID.Index < scanBudget {
				t.Errorf("%v core, round 2: placed %v", core, a.Task.ID)
			}
		}
	}
}
