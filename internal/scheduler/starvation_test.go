package scheduler

import (
	"testing"

	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// starvationView builds a 1-machine view with a whale job (full-machine
// task) and a stream of small tasks that keep the machine partly busy.
func starvationView() (*View, *JobState, *JobState) {
	whale := mkJob(0, 1, resources.New(16, 32, 0, 0, 0, 0), 160)
	minnows := mkJob(1, 100, resources.New(2, 4, 0, 0, 0, 0), 20)
	v := mkView(1, machine, whale, minnows)
	return v, whale, minnows
}

func TestStarvationReservationServesWhale(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.StarvationSec = 30
	cfg.Fairness = 0
	tet := NewTetris(cfg)

	v, whale, minnows := starvationView()
	// Round at t=0: machine is empty; the whale fits immediately — so to
	// create starvation, pre-occupy half the machine with running
	// minnows.
	for i := 0; i < 4; i++ {
		id := workload.TaskID{Job: 1, Stage: 0, Index: i}
		minnows.Status.MarkRunning(id)
	}
	minnows.Alloc = resources.New(8, 16, 0, 0, 0, 0)
	v.Machines[0].Allocated = resources.New(8, 16, 0, 0, 0, 0)

	// Rounds while the machine stays half-busy: whale can't fit; smalls
	// keep flowing.
	for _, now := range []float64{0, 10, 20, 40} {
		v.Time = now
		asgs := tet.Schedule(v)
		apply(v, asgs)
		for _, a := range asgs {
			if a.Task.ID.Job == 0 {
				t.Fatalf("whale placed while machine half-busy at t=%v", now)
			}
		}
	}
	// t=40 exceeded StarvationSec → machine 0 reserved. Free the machine
	// and verify the whale gets it even though minnows are runnable.
	v.Time = 50
	v.Machines[0].Allocated = resources.Vector{}
	v.Machines[0].Reported = resources.Vector{}
	asgs := tet.Schedule(v)
	foundWhale := false
	for _, a := range asgs {
		if a.Task.ID.Job == 0 {
			foundWhale = true
		}
	}
	if !foundWhale {
		t.Fatalf("starved whale not served after reservation; assignments: %d", len(asgs))
	}
	_ = whale
}

func TestStarvationDisabledByDefault(t *testing.T) {
	tet := NewTetris(DefaultTetrisConfig())
	v, _, _ := starvationView()
	v.Machines[0].Allocated = resources.New(8, 16, 0, 0, 0, 0)
	for _, now := range []float64{0, 100, 200} {
		v.Time = now
		apply(v, tet.Schedule(v))
	}
	if len(tet.res.Machines()) != 0 {
		t.Error("reservations made with StarvationSec=0")
	}
}

func TestReservationClearedWhenTaskGone(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.StarvationSec = 1
	tet := NewTetris(cfg)
	v, whale, _ := starvationView()
	v.Machines[0].Allocated = resources.New(8, 16, 0, 0, 0, 0)
	v.Time = 0
	tet.Schedule(v)
	v.Time = 5
	tet.Schedule(v) // whale starved → reservation
	if len(tet.res.Machines()) != 1 {
		t.Fatalf("expected 1 reservation, got %d", len(tet.res.Machines()))
	}
	// Whale's task leaves the Pending state out of band: its reservation
	// must clear on the next round. (Another queued task may legitimately
	// earn a fresh reservation at this aggressive StarvationSec, so check
	// specifically that no reservation holds the whale's task.)
	whaleTask := whale.Job.Stages[0].Tasks[0]
	whale.Status.MarkRunning(workload.TaskID{Job: 0, Stage: 0, Index: 0})
	v.Time = 6
	tet.Schedule(v)
	tet.res.Each(func(m int, r reserve.Reservation) {
		if r.Task == whaleTask {
			t.Errorf("machine %d still reserved for the departed whale", m)
		}
	})
}

// TestStarvationNoReservationWhenInfeasible is the regression test for
// the feasibility bug: a starved task whose max-peak demand exceeds
// every machine's total capacity must NOT earn a reservation — the old
// code reserved the largest machine anyway, closing it to all other
// work forever even though the task could never run there.
func TestStarvationNoReservationWhenInfeasible(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.StarvationSec = 1
	cfg.Fairness = 0
	tet := NewTetris(cfg)

	// A leviathan task that outsizes the machine's total capacity, plus
	// minnows keeping the machine busy enough that nothing is idle.
	leviathan := mkJob(0, 1, resources.New(32, 64, 0, 0, 0, 0), 160)
	minnows := mkJob(1, 100, resources.New(2, 4, 0, 0, 0, 0), 20)
	v := mkView(1, machine, leviathan, minnows)
	v.Machines[0].Allocated = resources.New(8, 16, 0, 0, 0, 0)

	for _, now := range []float64{0, 5, 10, 20} {
		v.Time = now
		apply(v, tet.Schedule(v))
	}
	tet.res.Each(func(m int, r reserve.Reservation) {
		if r.Holder == 0 {
			t.Errorf("machine %d reserved for a task that can never fit its capacity", m)
		}
	})
}
