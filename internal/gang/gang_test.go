package gang

import (
	"testing"

	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/workload"
)

var machine = resources.New(16, 32, 200, 200, 1000, 1000)

func mkView(n int, capacity resources.Vector, jobs ...*scheduler.JobState) *scheduler.View {
	v := &scheduler.View{}
	for i := 0; i < n; i++ {
		v.Machines = append(v.Machines, &scheduler.MachineState{ID: i, Capacity: capacity})
		v.Total = v.Total.Add(capacity)
	}
	v.Jobs = jobs
	return v
}

// mkJob builds a single-stage job of n tasks with identical peaks/work.
func mkJob(id, n int, peak resources.Vector, cpuWork float64) *scheduler.JobState {
	j := &workload.Job{ID: id, Weight: 1}
	st := &workload.Stage{Name: "s"}
	for i := 0; i < n; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
			Peak: peak,
			Work: workload.Work{CPUSeconds: cpuWork},
		})
	}
	j.Stages = []*workload.Stage{st}
	return &scheduler.JobState{Job: j, Status: workload.NewStatus(j)}
}

func mkGang(id, n, minMembers, priority int, peak resources.Vector, cpuWork float64) *scheduler.JobState {
	js := mkJob(id, n, peak, cpuWork)
	js.Job.Gang = true
	js.Job.MinMembers = minMembers
	js.Job.Priority = priority
	return js
}

func apply(v *scheduler.View, asgs []scheduler.Assignment) {
	jobByID := map[int]*scheduler.JobState{}
	for _, j := range v.Jobs {
		jobByID[j.Job.ID] = j
	}
	for _, a := range asgs {
		j := jobByID[a.Task.ID.Job]
		j.Status.MarkRunning(a.Task.ID)
		j.Alloc = j.Alloc.Add(a.Local)
		v.Machines[a.Machine].Allocated = v.Machines[a.Machine].Allocated.Add(a.Local)
		for _, rc := range a.Remote {
			v.Machines[rc.Machine].Allocated = v.Machines[rc.Machine].Allocated.Add(rc.Charge)
		}
	}
}

// hoard returns the machines gang job id holds in c's reservation table,
// in ascending ID order.
func hoard(c *Coordinator, id int) []int {
	var mids []int
	c.res.Each(func(mid int, r reserve.Reservation) {
		if r.Kind == reserve.Gang && r.Holder == id {
			mids = append(mids, mid)
		}
	})
	return mids
}

// listed hands Decide a fixed running list.
func listed(running []Running) func() []Running {
	return func() []Running { return running }
}

// newTetris returns a Tetris core with the fairness knob off.
func newTetris() *scheduler.Tetris {
	tc := scheduler.DefaultTetrisConfig()
	tc.Fairness = 0
	return scheduler.NewTetris(tc)
}

func newCoord(cfg Config) *Coordinator { return New(newTetris(), cfg) }

// TestAllOrNothing: a gang that does not fit entirely launches nothing;
// once capacity allows, the whole quorum launches in one round.
func TestAllOrNothing(t *testing.T) {
	c := newCoord(Config{})
	// 4 machines; gang of 6 full-machine tasks with quorum 6 → cannot
	// co-place; nothing may launch.
	g := mkGang(1, 6, 0, 5, resources.New(16, 32, 0, 0, 0, 0), 100)
	v := mkView(4, machine, g)
	dec := c.Decide(v, nil)
	if len(dec.Assignments) != 0 {
		t.Fatalf("partial gang launched: %d assignments", len(dec.Assignments))
	}
	if len(dec.CommitWaits) != 0 {
		t.Fatalf("commit recorded without placement")
	}
	// Same gang over 6 machines: full quorum commits at once.
	v = mkView(6, machine, g)
	v.Time = 10
	dec = c.Decide(v, nil)
	if len(dec.Assignments) != 6 {
		t.Fatalf("expected 6 gang assignments, got %d", len(dec.Assignments))
	}
	if len(dec.CommitWaits) != 1 || dec.CommitWaits[0] != 10 {
		t.Fatalf("commit waits = %v, want one of 10", dec.CommitWaits)
	}
	seen := map[int]bool{}
	for _, a := range dec.Assignments {
		if a.Task.ID.Job != 1 {
			t.Fatalf("unexpected job %d in gang round", a.Task.ID.Job)
		}
		if seen[a.Machine] {
			t.Fatalf("two full-machine members on machine %d", a.Machine)
		}
		seen[a.Machine] = true
	}
}

// TestQuorumThenStragglers: MinMembers < NumTasks — quorum commits
// atomically, stragglers flow through the inner scheduler afterwards.
func TestQuorumThenStragglers(t *testing.T) {
	c := newCoord(Config{})
	g := mkGang(1, 6, 4, 5, resources.New(16, 32, 0, 0, 0, 0), 100)
	v := mkView(4, machine, g)
	dec := c.Decide(v, nil)
	if len(dec.Assignments) != 4 || len(dec.CommitWaits) != 1 {
		t.Fatalf("quorum of 4 should commit on 4 machines: asgs=%d commits=%d",
			len(dec.Assignments), len(dec.CommitWaits))
	}
	apply(v, dec.Assignments)
	// Two machines free up: the 2 stragglers place via the inner
	// scheduler with no gang gate.
	v2 := mkView(6, machine, g)
	for i := 0; i < 4; i++ {
		v2.Machines[i].Allocated = resources.New(16, 32, 0, 0, 0, 0)
	}
	v2.Time = 5
	dec = c.Decide(v2, nil)
	if len(dec.Assignments) != 2 {
		t.Fatalf("stragglers: got %d assignments, want 2", len(dec.Assignments))
	}
	if len(dec.CommitWaits) != 0 {
		t.Fatalf("no second commit expected: %v", dec.CommitWaits)
	}
}

// TestHoardTimeoutAndRelease: a gang hoards its partial placement,
// the hold expires after HoldSec, and a cooldown keeps it from
// immediately re-hoarding.
func TestHoardTimeoutAndRelease(t *testing.T) {
	c := newCoord(Config{HoldSec: 10})
	g := mkGang(1, 6, 0, 5, resources.New(16, 32, 0, 0, 0, 0), 100)
	// 6 machines, 2 fully busy: the gang is feasible (aggregate fits
	// total capacity) but only 4 members fit now → partial hoard.
	mk := func(now float64) *scheduler.View {
		v := mkView(6, machine, g)
		v.Machines[4].Allocated = resources.New(16, 32, 0, 0, 0, 0)
		v.Machines[5].Allocated = resources.New(16, 32, 0, 0, 0, 0)
		v.Time = now
		return v
	}
	dec := c.Decide(mk(0), nil)
	if len(dec.Assignments) != 0 {
		t.Fatalf("partial gang launched")
	}
	if got := len(hoard(c, 1)); got != 4 {
		t.Fatalf("hoard holds %d machines, want 4", got)
	}
	// Before expiry the hoard persists.
	dec = c.Decide(mk(5), nil)
	if dec.Releases != 0 || len(hoard(c, 1)) != 4 {
		t.Fatalf("hoard released early: %d releases", dec.Releases)
	}
	// Past HoldSec: released, cooldown entered.
	dec = c.Decide(mk(11), nil)
	if dec.Releases != 1 {
		t.Fatalf("releases = %d, want 1", dec.Releases)
	}
	if got := len(hoard(c, 1)); got != 0 {
		t.Fatalf("hoard survives its release: %d machines", got)
	}
	// During cooldown: no new hoard.
	c.Decide(mk(15), nil)
	if got := len(hoard(c, 1)); got != 0 {
		t.Fatalf("hoarded during cooldown: %d machines", got)
	}
	// After cooldown: hoarding resumes.
	c.Decide(mk(22), nil)
	if got := len(hoard(c, 1)); got != 4 {
		t.Fatalf("hoard not rebuilt after cooldown: %d machines", got)
	}
}

// TestHoardClosesMachinesToInner: hoarded machines must not be filled
// by the inner scheduler's singleton jobs.
func TestHoardClosesMachinesToInner(t *testing.T) {
	c := newCoord(Config{HoldSec: 100})
	g := mkGang(1, 6, 0, 5, resources.New(16, 32, 0, 0, 0, 0), 100)
	minnows := mkJob(2, 50, resources.New(2, 4, 0, 0, 0, 0), 10)
	v := mkView(6, machine, g, minnows)
	v.Machines[4].Allocated = resources.New(16, 32, 0, 0, 0, 0)
	v.Machines[5].Allocated = resources.New(16, 32, 0, 0, 0, 0)
	dec := c.Decide(v, nil)
	if got := len(hoard(c, 1)); got != 4 {
		t.Fatalf("hoard holds %d machines, want 4", got)
	}
	hoarded := map[int]bool{}
	for _, mid := range hoard(c, 1) {
		hoarded[mid] = true
	}
	for _, a := range dec.Assignments {
		if a.Task.ID.Job == 2 && hoarded[a.Machine] {
			t.Fatalf("inner scheduler placed a minnow on hoarded machine %d", a.Machine)
		}
	}
}

// TestInfeasibleGangNeverHoards: a gang whose members outsize every
// machine must not hoard (the reservation-feasibility rule) nor
// preempt.
func TestInfeasibleGangNeverHoards(t *testing.T) {
	c := newCoord(Config{HoldSec: 5, PreemptSec: 5})
	g := mkGang(1, 2, 0, 5, resources.New(32, 64, 0, 0, 0, 0), 100)
	prey := mkJob(2, 4, resources.New(2, 4, 0, 0, 0, 0), 10)
	prey.Job.Preemptible = true
	var running []Running
	for now := 0.0; now <= 30; now += 5 {
		v := mkView(4, machine, g, prey)
		v.Time = now
		dec := c.Decide(v, listed(running))
		if got := len(hoard(c, 1)); got != 0 {
			t.Fatalf("t=%v: infeasible gang hoarded %d machines", now, got)
		}
		if len(dec.Preempted) != 0 {
			t.Fatalf("t=%v: infeasible gang preempted: %v", now, dec.Preempted)
		}
		running = nil
		for _, a := range dec.Assignments {
			apply(v, []scheduler.Assignment{a})
			running = append(running, Running{Task: a.Task.ID, Job: prey.Job, Demand: a.Local})
		}
	}
}

// TestPreemptionVictimOrder: past PreemptSec, the gang evicts strictly
// lower-priority preemptible tasks, lowest priority first and at most
// maxPreemptPerRound of them per round, spaced by PreemptSec between
// waves, and never touches non-preemptible or higher-priority work.
func TestPreemptionVictimOrder(t *testing.T) {
	c := newCoord(Config{HoldSec: 1000, PreemptSec: 10})
	full := resources.New(16, 32, 0, 0, 0, 0)
	// A gang of ten full machines on a full cluster of eleven, with ten
	// eligible victims: two more than the per-round cap.
	g := mkGang(1, 10, 0, 5, full, 100)
	low := mkJob(2, 9, full, 50) // priority 1, preemptible
	low.Job.Preemptible = true
	low.Job.Priority = 1
	mid := mkJob(3, 1, full, 50) // priority 3, preemptible
	mid.Job.Preemptible = true
	mid.Job.Priority = 3
	pinned := mkJob(4, 1, full, 50) // not preemptible
	pinned.Job.Priority = 0

	mk := func(now float64) (*scheduler.View, []Running) {
		v := mkView(11, machine, g, low, mid, pinned)
		v.Time = now
		var running []Running
		place := func(j *scheduler.JobState, idx, m int) {
			tid := workload.TaskID{Job: j.Job.ID, Stage: 0, Index: idx}
			if j.Status.State(tid) == workload.Pending {
				j.Status.MarkRunning(tid)
			}
			v.Machines[m].Allocated = v.Machines[m].Allocated.Add(full)
			running = append(running, Running{Task: tid, Job: j.Job, Demand: full})
		}
		for i := 0; i < 9; i++ {
			place(low, i, i)
		}
		place(mid, 0, 9)
		place(pinned, 0, 10)
		return v, running
	}

	v, running := mk(0)
	dec := c.Decide(v, listed(running))
	if len(dec.Preempted) != 0 {
		t.Fatalf("preempted before PreemptSec: %v", dec.Preempted)
	}
	v, running = mk(11)
	dec = c.Decide(v, listed(running))
	if len(dec.Preempted) != maxPreemptPerRound {
		t.Fatalf("want %d preemptions (the per-round cap), got %v", maxPreemptPerRound, dec.Preempted)
	}
	for i, p := range dec.Preempted {
		if p.Job != 2 {
			t.Fatalf("victim %d = %v, want lowest-priority job 2", i, p)
		}
		if p.Index != i {
			t.Fatalf("victim order not deterministic: %v", dec.Preempted)
		}
	}
	// Next round inside the wave window: no further evictions.
	v, running = mk(15)
	dec = c.Decide(v, listed(running))
	if len(dec.Preempted) != 0 {
		t.Fatalf("second wave inside PreemptSec window: %v", dec.Preempted)
	}
	// After the window: the next wave may hit job 3 but never job 4
	// (non-preemptible) or anything at/above the gang's priority.
	v, running = mk(25)
	dec = c.Decide(v, listed(running))
	for _, p := range dec.Preempted {
		if p.Job == 4 {
			t.Fatalf("non-preemptible job evicted: %v", p)
		}
	}
}

// TestGangPriorityOrder: two gangs contending — the higher-priority
// gang is served first regardless of job ID.
func TestGangPriorityOrder(t *testing.T) {
	c := newCoord(Config{})
	full := resources.New(16, 32, 0, 0, 0, 0)
	lowGang := mkGang(1, 4, 0, 1, full, 100)
	highGang := mkGang(2, 4, 0, 9, full, 100)
	v := mkView(4, machine, lowGang, highGang)
	dec := c.Decide(v, nil)
	if len(dec.CommitWaits) != 1 || len(dec.Assignments) != 4 {
		t.Fatalf("one gang of 4 should commit: commits=%d asgs=%d", len(dec.CommitWaits), len(dec.Assignments))
	}
	for _, a := range dec.Assignments {
		if a.Task.ID.Job != 2 {
			t.Fatalf("low-priority gang placed alongside: %+v", a)
		}
	}
}

// TestReAdmissionAfterMemberLoss: a committed gang that loses a member
// (machine crash → task back to pending) re-enters admission and only
// launches when quorum can be restored.
func TestReAdmissionAfterMemberLoss(t *testing.T) {
	c := newCoord(Config{})
	full := resources.New(16, 32, 0, 0, 0, 0)
	g := mkGang(1, 4, 0, 5, full, 100)
	v := mkView(4, machine, g)
	dec := c.Decide(v, nil)
	if len(dec.CommitWaits) != 1 {
		t.Fatalf("initial commit failed")
	}
	apply(v, dec.Assignments)
	// Member 0 dies; its machine is down.
	g.Status.MarkFailed(workload.TaskID{Job: 1, Stage: 0, Index: 0})
	g.Alloc = g.Alloc.Sub(full)
	v2 := mkView(4, machine, g)
	v2.Machines[0].Down = true
	for i := 1; i < 4; i++ {
		v2.Machines[i].Allocated = full
	}
	v2.Time = 1
	dec = c.Decide(v2, nil)
	if len(dec.Assignments) != 0 {
		t.Fatalf("re-admitted member with no free machine: %+v", dec.Assignments)
	}
	// Machine 0 recovers: the lost member relaunches, restoring quorum.
	v3 := mkView(4, machine, g)
	for i := 1; i < 4; i++ {
		v3.Machines[i].Allocated = full
	}
	v3.Time = 2
	dec = c.Decide(v3, nil)
	if len(dec.Assignments) != 1 || len(dec.CommitWaits) != 1 {
		t.Fatalf("re-admission: asgs=%d commits=%d", len(dec.Assignments), len(dec.CommitWaits))
	}
}

// TestFeasible covers the feasibility check directly.
func TestFeasible(t *testing.T) {
	Feasible := func(v *scheduler.View, j *scheduler.JobState) bool {
		return feasible(v, j, j.Status.AppendPending(0, j.Status.PendingInStage(0), nil))
	}
	fits := mkGang(1, 4, 0, 0, resources.New(8, 16, 0, 0, 0, 0), 10)
	tooBig := mkGang(2, 1, 0, 0, resources.New(32, 64, 0, 0, 0, 0), 10)
	tooMany := mkGang(3, 20, 0, 0, resources.New(16, 32, 0, 0, 0, 0), 10)
	v := mkView(4, machine, fits, tooBig, tooMany)
	if !Feasible(v, fits) {
		t.Error("4×half-machine gang should be feasible on 4 machines")
	}
	if Feasible(v, tooBig) {
		t.Error("task larger than any machine reported feasible")
	}
	if Feasible(v, tooMany) {
		t.Error("aggregate larger than cluster reported feasible")
	}
	// Down machines offer nothing.
	for _, m := range v.Machines {
		m.Down = true
	}
	if Feasible(v, fits) {
		t.Error("all machines down but gang feasible")
	}
}
