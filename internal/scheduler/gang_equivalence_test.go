package scheduler_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/workload"
)

// The gang twin-world driver mirrors this package's equivalence harness
// one layer up: two worlds share one immutable job set and one
// fault/completion script (identical rng seeds), differ in one respect,
// and must emit field-for-field identical decisions every round —
// assignments, preemptions, commit waits and releases alike — and hold
// identical gang hoards in the shared reservation table. The respect is
// the scheduler under the gang coordinator, the production core or its
// oracle (TestGangScheduleEquivalence), or the coordinator itself
// (TestDigestNeutralWhenUnused). It lives here, as an external test of
// package scheduler, because the oracle is reachable only through this
// package's export_test.go.

func genGangCaps(rng *rand.Rand, n int) []resources.Vector {
	sizes := []resources.Vector{
		resources.New(16, 32, 200, 200, 1000, 1000),
		resources.New(8, 16, 100, 100, 500, 500),
		resources.New(32, 64, 400, 400, 2000, 2000),
	}
	caps := make([]resources.Vector, n)
	for i := range caps {
		caps[i] = sizes[rng.Intn(len(sizes))]
	}
	return caps
}

// genGangJobs builds a mix of preemptible singleton fillers and gang
// jobs with varying priorities and quorums.
func genGangJobs(rng *rand.Rand, n int) ([]*workload.Job, []float64) {
	jobs := make([]*workload.Job, n)
	arrive := make([]float64, n)
	for i := range jobs {
		id := i + 1
		j := &workload.Job{ID: id, Weight: 1}
		st := &workload.Stage{Name: "s"}
		var peak resources.Vector
		var nt int
		if rng.Float64() < 0.4 {
			// Gang: homogeneous members, mid-size demand.
			j.Gang = true
			j.Priority = 3 + rng.Intn(6)
			nt = 2 + rng.Intn(5)
			if rng.Intn(2) == 0 {
				j.MinMembers = 1 + rng.Intn(nt)
			}
			peak = resources.New(6+float64(rng.Intn(10)), 12+float64(rng.Intn(20)), 0, 0, 0, 0)
		} else {
			// Filler: small preemptible singles.
			j.Preemptible = true
			j.Priority = rng.Intn(3)
			nt = 1 + rng.Intn(6)
			peak = resources.New(1+float64(rng.Intn(4)), 2+float64(rng.Intn(6)), 0, 0, 0, 0)
		}
		for k := 0; k < nt; k++ {
			st.Tasks = append(st.Tasks, &workload.Task{
				ID:   workload.TaskID{Job: id, Stage: 0, Index: k},
				Peak: peak,
				Work: workload.Work{CPUSeconds: 20 + rng.Float64()*40},
			})
		}
		j.Stages = []*workload.Stage{st}
		arrive[i] = rng.Float64() * 20
		jobs[i] = j
	}
	return jobs, arrive
}

type gangWorld struct {
	c *gang.Coordinator
	// bare, when non-nil, replaces the coordinator entirely: the world
	// schedules through the raw inner scheduler. Used to prove the
	// coordinator is digest-neutral on non-gang workloads.
	bare scheduler.Scheduler
	// res is the inner scheduler's reservation table, which the
	// coordinator shares; nil for an inner without one.
	res      *reserve.Table
	machines []*scheduler.MachineState
	jobs     []*workload.Job
	arrive   []float64
	states   map[int]*scheduler.JobState
	running  []attempt
	rng      *rand.Rand
	total    resources.Vector
}

// attempt is one running task of a world: what the coordinator sees of
// it, and the machine it runs on.
type attempt struct {
	gang.Running
	machine int
}

func newGangWorld(seed int64, inner scheduler.Scheduler, caps []resources.Vector, jobs []*workload.Job, arrive []float64) *gangWorld {
	w := &gangWorld{
		c:      gang.New(inner, gang.Config{HoldSec: 4, PreemptSec: 8}),
		jobs:   jobs,
		arrive: arrive,
		states: make(map[int]*scheduler.JobState),
		rng:    rand.New(rand.NewSource(seed)),
	}
	if rh, ok := inner.(interface{ Reservations() *reserve.Table }); ok {
		w.res = rh.Reservations()
	}
	for i, c := range caps {
		w.machines = append(w.machines, &scheduler.MachineState{ID: i, Capacity: c})
		w.total = w.total.Add(c)
	}
	for _, j := range jobs {
		w.states[j.ID] = &scheduler.JobState{Job: j, Status: workload.NewStatus(j)}
	}
	return w
}

func (w *gangWorld) finished(js *scheduler.JobState) bool {
	for si := range js.Job.Stages {
		if js.Status.DoneInStage(si) != len(js.Job.Stages[si].Tasks) {
			return false
		}
	}
	return true
}

func (w *gangWorld) dropRunning(tid workload.TaskID) (attempt, bool) {
	for i, r := range w.running {
		if r.Task == tid {
			out := r
			w.running = append(w.running[:i], w.running[i+1:]...)
			return out, true
		}
	}
	return attempt{}, false
}

// candidates lists the running tasks for the coordinator.
func (w *gangWorld) candidates() []gang.Running {
	out := make([]gang.Running, len(w.running))
	for i, r := range w.running {
		out[i] = r.Running
	}
	return out
}

// step advances one round and returns a canonical rendering of the
// round's decision for cross-core comparison.
func (w *gangWorld) step(now float64) string {
	// Fault churn, identical across twins because machine state is.
	for _, m := range w.machines {
		if m.Down {
			if w.rng.Float64() < 0.3 {
				m.Down = false
			}
			continue
		}
		if w.rng.Float64() < 0.08 {
			m.Down = true
			m.Allocated = resources.Vector{}
			m.Reported = resources.Vector{}
			// Fail every running task on the machine.
			kept := w.running[:0]
			for _, r := range w.running {
				if r.machine == m.ID {
					js := w.states[r.Task.Job]
					js.Status.MarkFailed(r.Task)
					js.Alloc = js.Alloc.Sub(r.Demand)
					continue
				}
				kept = append(kept, r)
			}
			w.running = kept
		}
	}
	v := &scheduler.View{Time: now, Machines: w.machines, Total: w.total}
	for _, j := range w.jobs {
		js := w.states[j.ID]
		if w.arrive[j.ID-1] <= now && !w.finished(js) {
			v.Jobs = append(v.Jobs, js)
		}
	}
	for _, m := range w.machines {
		if !m.Down {
			m.Reported = m.Allocated
		}
	}

	var dec gang.Decision
	if w.bare != nil {
		dec = gang.Decision{Assignments: w.bare.Schedule(v)}
	} else {
		dec = w.c.Decide(v, w.candidates)
	}

	var b strings.Builder
	for _, a := range dec.Assignments {
		fmt.Fprintf(&b, "A %v@%d %v|", a.Task.ID, a.Machine, a.Local)
	}
	for _, tid := range dec.Preempted {
		fmt.Fprintf(&b, "P %v|", tid)
	}
	for _, wait := range dec.CommitWaits {
		fmt.Fprintf(&b, "C w%.3f|", wait)
	}
	if dec.Releases > 0 {
		fmt.Fprintf(&b, "R %d|", dec.Releases)
	}
	if w.res != nil {
		w.res.Each(func(mid int, r reserve.Reservation) {
			if r.Kind == reserve.Gang {
				fmt.Fprintf(&b, "H %d@%d|", r.Holder, mid)
			}
		})
	}

	// Apply assignments.
	for _, a := range dec.Assignments {
		js := w.states[a.Task.ID.Job]
		js.Status.MarkRunning(a.Task.ID)
		js.Alloc = js.Alloc.Add(a.Local)
		w.machines[a.Machine].Allocated = w.machines[a.Machine].Allocated.Add(a.Local)
		for _, rc := range a.Remote {
			w.machines[rc.Machine].Allocated = w.machines[rc.Machine].Allocated.Add(rc.Charge)
		}
		w.running = append(w.running, attempt{gang.Running{Task: a.Task.ID, Job: js.Job, Demand: a.Local}, a.Machine})
	}
	// Apply preemptions: the "NM kill" lands within the round here.
	for _, tid := range dec.Preempted {
		r, ok := w.dropRunning(tid)
		if !ok {
			continue
		}
		js := w.states[tid.Job]
		js.Status.MarkFailed(tid)
		js.Alloc = js.Alloc.Sub(r.Demand)
		w.machines[r.machine].Allocated = w.machines[r.machine].Allocated.Sub(r.Demand).Max(resources.Vector{})
	}
	// Random completions over a snapshot of the running list.
	snap := append([]attempt(nil), w.running...)
	for _, r := range snap {
		if w.rng.Float64() < 0.15 {
			if _, ok := w.dropRunning(r.Task); !ok {
				continue
			}
			js := w.states[r.Task.Job]
			js.Status.MarkDone(r.Task)
			js.Alloc = js.Alloc.Sub(r.Demand)
			w.machines[r.machine].Allocated = w.machines[r.machine].Allocated.Sub(r.Demand).Max(resources.Vector{})
		}
	}
	return b.String()
}

// TestGangScheduleEquivalence drives gang-bearing fault-injected worlds
// over the production core and over its oracle and requires bit-identical
// decisions every round.
func TestGangScheduleEquivalence(t *testing.T) {
	tc := scheduler.DefaultTetrisConfig()
	tc.StarvationSec = 8
	for seed := int64(1); seed <= 4; seed++ {
		gen := rand.New(rand.NewSource(seed * 977))
		caps := genGangCaps(gen, 6)
		jobs, arrive := genGangJobs(gen, 12)
		incremental := newGangWorld(seed, scheduler.NewTetris(tc), caps, jobs, arrive)
		reference := newGangWorld(seed, scheduler.NewReferenceTetris(tc), caps, jobs, arrive)
		for round := 0; round < 40; round++ {
			now := float64(round) * 2
			want, got := incremental.step(now), reference.step(now)
			if got != want {
				t.Fatalf("seed %d round %d: reference core diverged\nincremental: %s\nreference: %s",
					seed, round, want, got)
			}
		}
	}
}

// TestDigestNeutralWhenUnused: on a workload with no gang jobs, the
// coordinator must emit exactly the decisions the bare inner scheduler
// would — round for round, byte for byte — for every inner policy: the
// Tetris core with and without its starvation guard (whose reservation
// table the coordinator shares), and DRF and slot-fair (for which the
// coordinator keeps a table of its own).
func TestDigestNeutralWhenUnused(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	caps := genGangCaps(gen, 6)
	jobs, arrive := genGangJobs(gen, 12)
	for _, j := range jobs {
		j.Gang = false
		j.MinMembers = 0
	}

	starving := scheduler.DefaultTetrisConfig()
	starving.StarvationSec = 8
	inners := []struct {
		name string
		new  func() scheduler.Scheduler
	}{
		{"tetris", func() scheduler.Scheduler { return scheduler.NewTetris(scheduler.DefaultTetrisConfig()) }},
		{"tetris-starvation", func() scheduler.Scheduler { return scheduler.NewTetris(starving) }},
		{"drf", func() scheduler.Scheduler { return scheduler.NewDRF() }},
		{"slot-fair", func() scheduler.Scheduler { return scheduler.NewSlotFair() }},
	}
	for _, in := range inners {
		t.Run(in.name, func(t *testing.T) {
			wrapped := newGangWorld(99, in.new(), caps, jobs, arrive)
			bare := in.new()
			plain := newGangWorld(99, bare, caps, jobs, arrive)
			plain.bare = bare
			placed := 0
			for round := 0; round < 30; round++ {
				now := float64(round) * 2
				got, want := wrapped.step(now), plain.step(now)
				if got != want {
					t.Fatalf("round %d: coordinator not digest-neutral on a non-gang workload\nwrapped: %s\nbare:    %s",
						round, got, want)
				}
				placed += strings.Count(want, "A ")
			}
			if placed == 0 {
				t.Fatal("no round placed a task: the comparison shows nothing")
			}
		})
	}
}
