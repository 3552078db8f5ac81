package scheduler

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// scanLocalsReference is scanLocals as it stood before the per-stage
// records: the job lookup, the state, readiness, taken, barrier-tail and
// eligibility tests are all made afresh on every entry visit, in the
// original order, from the task itself. scanLocals is shared by every
// core, so the core equivalence suites cannot see a mistake in it; this
// is its oracle.
func (t *Tetris) scanLocalsReference(mid int, rs *roundState, consider func(*JobState, *workload.Task, bool)) {
	entries := localsOf(t, mid)
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
		if e.st == nil {
			continue
		}
		scanned++
		task := entryTask(e)
		j, ok := rs.byJob[e.st.jobID]
		if !ok {
			entries[i].st = nil
			dead++
			continue
		}
		st := j.Status
		id := task.ID
		if st.State(id) != workload.Pending {
			entries[i].st = nil
			dead++
			continue
		}
		if !st.StageReady(id.Stage) || rs.taken[task] {
			continue
		}
		inTail := st.InBarrierTail(id, t.cfg.Barrier)
		if !inTail && !rs.eligible[e.st.jobID] {
			continue
		}
		consider(j, task, inTail)
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
		if e.st != nil {
			if i < nextOld {
				newCursor++
			}
			out = append(out, e)
		}
	}
	t.locals[mid] = out
	if len(out) == 0 {
		t.localsCursor[mid] = 0
		return
	}
	t.localsCursor[mid] = newCursor % len(out)
}

// localsOf is machine mid's locality list, nil for a machine past the
// index's end.
func localsOf(t *Tetris, mid int) []locEntry {
	if mid >= len(t.locals) {
		return nil
	}
	return t.locals[mid]
}

// cursorOf is machine mid's locality cursor, 0 past the index's end.
func cursorOf(t *Tetris, mid int) int {
	if mid >= len(t.localsCursor) {
		return 0
	}
	return t.localsCursor[mid]
}

// entryTask is the task of a live locality entry.
func entryTask(e locEntry) *workload.Task { return e.st.tasks[e.idx] }

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
			play := func(sched *Tetris, scan func(int, *roundState, func(*JobState, *workload.Task, bool))) (calls [][]call, taken []*workload.Task) {
				rs := &roundState{byJob: byJob, eligible: eligible, taken: map[*workload.Task]bool{}}
				take := rand.New(rand.NewSource(takeSeed))
				for mid := 0; mid < machines; mid++ {
					for fill := 0; fill < 3; fill++ {
						var cs []call
						scan(mid, rs, func(j *JobState, task *workload.Task, inTail bool) {
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
			for mid := 0; mid < machines; mid++ {
				before[mid] = len(localsOf(want, mid))
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
				if msg := diffLocals(got, want, mid); msg != "" {
					t.Fatalf("seed %d round %d: %s", seed, round, msg)
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
				switch after := len(localsOf(want, mid)); {
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
					st.MarkDone(task.ID)
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
		j.Status.MarkDone(first.Tasks[0].ID)
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

// diffLocals compares machine mid's locality list and cursor on two
// schedulers over the same jobs, "" when they agree.
func diffLocals(got, want *Tetris, mid int) string {
	g, w := localsOf(got, mid), localsOf(want, mid)
	if len(g) != len(w) {
		return fmt.Sprintf("machine %d: %d entries survive, reference %d", mid, len(g), len(w))
	}
	for i := range w {
		if (g[i].st == nil) != (w[i].st == nil) || w[i].st != nil && entryTask(g[i]) != entryTask(w[i]) {
			return fmt.Sprintf("machine %d entry %d differs from the reference", mid, i)
		}
	}
	if gc, wc := cursorOf(got, mid), cursorOf(want, mid); gc != wc {
		return fmt.Sprintf("machine %d: cursor %d, reference %d", mid, gc, wc)
	}
	return ""
}

// evictDepartedReference is evictDeparted as it stood before the per-job
// sweep: once any indexed job has departed, every stageScore key, every
// task-cache entry and every locality list is walked, and whatever
// belongs to a job outside the View goes. evictDeparted is shared by
// every core, so the core equivalence suites cannot see a mistake in it;
// this is its oracle.
func (t *Tetris) evictDepartedReference(v *View) {
	clear(t.active)
	for _, j := range v.Jobs {
		t.active[j.Job.ID] = j
	}
	departed := false
	for id := range t.indexedJobs {
		if t.active[id] == nil {
			delete(t.indexedJobs, id)
			departed = true
		}
	}
	for task := range t.firstSeen {
		j := t.active[task.ID.Job]
		if j == nil || j.Status.State(task.ID) != workload.Pending {
			delete(t.firstSeen, task)
		}
	}
	t.res.Sweep(0, func(mid int, r reserve.Reservation) bool {
		return r.Kind == reserve.Starved && t.active[r.Holder] == nil
	}, nil)
	if !departed {
		return
	}
	for key := range t.stageScore {
		if t.active[key[0]] == nil {
			delete(t.stageScore, key)
		}
	}
	for task := range t.inc.tasks {
		if t.active[task.ID.Job] == nil {
			t.inc.retire(task)
		}
	}
	for mid, entries := range t.locals {
		n := len(entries)
		cursor := 0
		if n > 0 {
			cursor = t.localsCursor[mid] % n
		}
		newCursor := 0
		out := entries[:0]
		for i, e := range entries {
			if t.active[e.st.jobID] != nil {
				if i < cursor {
					newCursor++
				}
				out = append(out, e)
			}
		}
		t.locals[mid] = out
		if len(out) == 0 {
			t.localsCursor[mid] = 0
			continue
		}
		t.localsCursor[mid] = newCursor % len(out)
	}
}

// localityCoverage counts what one locality history exercised.
type localityCoverage struct {
	offers, swept, reshown, failed, unreduced, repeats int
}

// TestLocalityIndexMatchesReference runs seeded locality histories (see
// localityHistory) and requires that, summed over them, every kind of
// step the departure sweep and the scan must get right happened.
func TestLocalityIndexMatchesReference(t *testing.T) {
	var sum localityCoverage
	for seed := int64(1); seed <= 60; seed++ {
		c := localityHistory(t, seed, uint8(seed*37))
		sum.offers += c.offers
		sum.swept += c.swept
		sum.reshown += c.reshown
		sum.failed += c.failed
		sum.unreduced += c.unreduced
		sum.repeats += c.repeats
	}
	t.Logf("coverage: %+v", sum)
	for name, n := range map[string]int{
		"locality offers": sum.offers, "entries swept at a departure": sum.swept,
		"jobs hidden and shown again": sum.reshown, "failed attempts": sum.failed,
		"departures over an unreduced cursor": sum.unreduced, "blocks repeating a machine": sum.repeats,
	} {
		if n == 0 {
			t.Errorf("the histories never exercised: %s", name)
		}
	}
}

// FuzzLocalityIndex runs localityHistory over fuzzed seeds and shapes.
func FuzzLocalityIndex(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, -5} {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		localityHistory(t, seed, shape)
	})
}

// localityHistory drives the locality index — indexJob, scanLocals and
// evictDeparted — on one scheduler and the two oracles (the same
// indexJob, scanLocalsReference, evictDepartedReference) on another,
// over the same jobs, through a random history: arrivals, scans that
// take some of what they are offered (as placements), attempts that
// finish or fail, departures of finished and unfinished jobs, jobs
// hidden for a few rounds and shown again (the gang coordinator's case),
// and cursors pushed at and past their list's length. After every step
// it requires the same offers, entries, cursors, task-cache keys and
// stageScore keys, and that every live entry names a task with a block
// on its machine, once.
func localityHistory(t *testing.T, seed int64, shape uint8) localityCoverage {
	var cov localityCoverage
	r := rand.New(rand.NewSource(seed))
	machines := 1 + int(shape%5)
	rounds := 8 + int(shape/5)%24
	jobs := make([]*JobState, 2+r.Intn(7))
	arrive := make([]int, len(jobs))
	for id := range jobs {
		job := &workload.Job{ID: id, Weight: 1}
		for si, nStages := 0, 1+r.Intn(3); si < nStages; si++ {
			st := &workload.Stage{Name: fmt.Sprintf("s%d", si)}
			if si > 0 {
				st.Deps = []int{si - 1}
			}
			for ti, nTasks := 0, 1+r.Intn(40); ti < nTasks; ti++ {
				task := &workload.Task{
					ID:   workload.TaskID{Job: id, Stage: si, Index: ti},
					Peak: resources.New(1, 1, 0, 0, 0, 0),
					Work: workload.Work{CPUSeconds: 1},
				}
				for b, nBlocks := 0, r.Intn(4); b < nBlocks; b++ {
					m := r.Intn(machines+1) - 1 // -1: no replica placed
					if m >= 0 && task.HasLocalAffinity(m) {
						cov.repeats++
					}
					task.Inputs = append(task.Inputs, workload.InputBlock{Machine: m, SizeMB: 64})
				}
				st.Tasks = append(st.Tasks, task)
			}
			job.Stages = append(job.Stages, st)
		}
		jobs[id] = &JobState{Job: job, Status: workload.NewStatus(job)}
		arrive[id] = r.Intn(rounds/2 + 1)
	}
	cfg := DefaultTetrisConfig()
	cfg.Barrier = 0.5
	got, want := NewTetris(cfg), NewTetris(cfg)
	total := resources.New(64, 64, 64, 64, 64, 64)

	check := func(round int, step string) {
		t.Helper()
		for mid := 0; mid < machines; mid++ {
			if msg := diffLocals(got, want, mid); msg != "" {
				t.Fatalf("seed %d shape %d round %d, after %s: %s", seed, shape, round, step, msg)
			}
			seen := map[*workload.Task]bool{}
			for _, e := range localsOf(got, mid) {
				task := entryTask(e)
				if seen[task] || !task.HasLocalAffinity(mid) || got.indexedJobs[e.st.jobID] == nil {
					t.Fatalf("seed %d shape %d round %d, after %s: machine %d holds a stray entry for %v", seed, shape, round, step, mid, task.ID)
				}
				seen[task] = true
			}
		}
		if len(got.inc.tasks) != len(want.inc.tasks) || len(got.stageScore) != len(want.stageScore) {
			t.Fatalf("seed %d shape %d round %d, after %s: %d cached tasks and %d stage scores, reference %d and %d",
				seed, shape, round, step, len(got.inc.tasks), len(got.stageScore), len(want.inc.tasks), len(want.stageScore))
		}
		for task := range want.inc.tasks {
			if got.inc.tasks[task] == nil {
				t.Fatalf("seed %d shape %d round %d, after %s: task %v not cached", seed, shape, round, step, task.ID)
			}
		}
		for key := range want.stageScore {
			if _, ok := got.stageScore[key]; !ok {
				t.Fatalf("seed %d shape %d round %d, after %s: no stage score for %v", seed, shape, round, step, key)
			}
		}
	}

	hiddenUntil := make([]int, len(jobs)) // hidden while round < hiddenUntil
	shownAgain := make([]bool, len(jobs))
	gone := make([]bool, len(jobs))
	var running []*workload.Task
	for round := 0; round < rounds; round++ {
		v := &View{Total: total}
		for id, j := range jobs {
			if arrive[id] <= round && !gone[id] && round >= hiddenUntil[id] {
				v.Jobs = append(v.Jobs, j)
				if shownAgain[id] {
					shownAgain[id] = false
					cov.reshown++
				}
			}
		}
		departing := false
		for id := range want.indexedJobs {
			departing = departing || !slices.Contains(v.Jobs, jobs[id])
		}
		before := 0
		for mid := 0; mid < machines; mid++ {
			n := len(localsOf(want, mid))
			before += n
			if departing && n > 0 && cursorOf(want, mid) >= n {
				cov.unreduced++
			}
		}
		got.localsRound++
		want.localsRound++
		got.evictDeparted(v)
		want.evictDepartedReference(v)
		check(round, "the departure sweep")
		for mid := 0; mid < machines; mid++ {
			before -= len(localsOf(want, mid))
		}
		cov.swept += before

		byJob, eligible := map[int]*JobState{}, map[int]bool{}
		for _, j := range v.Jobs {
			got.indexJob(j)
			want.indexJob(j)
			byJob[j.Job.ID] = j
			eligible[j.Job.ID] = r.Intn(3) > 0
		}
		check(round, "indexing")

		takeSeed := r.Int63()
		play := func(sched *Tetris, scan func(int, *roundState, func(*JobState, *workload.Task, bool))) (offers []string, taken []*workload.Task) {
			sched.inc.beginRound(sched, v)
			for _, j := range v.Jobs {
				sched.remainingWork(v, j)
			}
			rs := &roundState{byJob: byJob, eligible: eligible, taken: map[*workload.Task]bool{}}
			take := rand.New(rand.NewSource(takeSeed))
			for mid := 0; mid < machines; mid++ {
				for fill := 0; fill < 2; fill++ {
					scan(mid, rs, func(j *JobState, task *workload.Task, inTail bool) {
						offers = append(offers, fmt.Sprint(mid, task.ID, inTail))
						sched.inc.taskRoundFor(j, task)
						if !rs.taken[task] && take.Intn(3) == 0 {
							rs.taken[task] = true
							taken = append(taken, task)
						}
					})
				}
			}
			for _, task := range taken {
				sched.inc.retire(task)
			}
			return offers, taken
		}
		gotOffers, _ := play(got, got.scanLocals)
		wantOffers, taken := play(want, want.scanLocalsReference)
		if fmt.Sprint(gotOffers) != fmt.Sprint(wantOffers) {
			t.Fatalf("seed %d shape %d round %d: offered\n  %v\nthe reference\n  %v", seed, shape, round, gotOffers, wantOffers)
		}
		cov.offers += len(wantOffers)
		check(round, "the scans")

		// Between rounds: what was taken runs; attempts finish or fail; a
		// finished job departs, and now and then an unfinished one, for
		// good or hidden for a few rounds.
		for _, task := range taken {
			jobs[task.ID.Job].Status.MarkRunning(task.ID)
			running = append(running, task)
		}
		keep := running[:0]
		for _, task := range running {
			st := jobs[task.ID.Job].Status
			switch x := r.Intn(10); {
			case x < 5:
				st.MarkDone(task.ID)
			case x < 7:
				st.MarkFailed(task.ID)
				cov.failed++
			default:
				keep = append(keep, task)
			}
		}
		running = keep
		for id, j := range jobs {
			switch {
			case arrive[id] > round || gone[id] || round < hiddenUntil[id]:
			case j.Status.Finished() || r.Intn(40) == 0:
				gone[id] = true
			case r.Intn(10) == 0:
				hiddenUntil[id] = round + 2 + r.Intn(3)
				shownAgain[id] = true
			}
		}
		// Cursors past their list's end, on both sides alike: scanLocals
		// leaves its cursor unreduced, so this is a state it produces.
		for mid := 0; mid < machines; mid++ {
			if n := len(localsOf(got, mid)); n > 0 && r.Intn(3) == 0 {
				k := n * (1 + r.Intn(3))
				got.localsCursor[mid] += k
				want.localsCursor[mid] += k
			}
		}
	}
	return cov
}
