package sim

import (
	"testing"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

// recycleProbe is a policy that places what its inner scheduler places
// and watches the simulator's running-task records at each round.
type recycleProbe struct {
	scheduler.Scheduler
	sim *Sim
	// peak is the most records held at once: running, unlinked and
	// about to start. Starts come right after the round and preemptions
	// after the starts, which only move records from running to
	// unlinked, so the round is when the count peaks.
	peak   int
	placed int
	// recycled counts placements made while spare records waited, and
	// afterPreempt those made once a preemption had happened.
	recycled, afterPreempt int
}

func (p *recycleProbe) Schedule(v *scheduler.View) []scheduler.Assignment {
	asgs := p.Scheduler.Schedule(v)
	s := p.sim
	p.placed += len(asgs)
	p.peak = max(p.peak, len(s.running)+len(s.unlinked)+len(asgs))
	n := min(len(asgs), len(s.spare))
	p.recycled += n
	if s.res.Preemptions > 0 {
		p.afterPreempt += n
	}
	return asgs
}

// records is every record the run allocated: each is running, unlinked
// or spare.
func (p *recycleProbe) records() int {
	return len(p.sim.running) + len(p.sim.unlinked) + len(p.sim.spare)
}

// runProbed runs cfg under a recycleProbe with Config.CheckInvariants on,
// so checkRates compares every rate against the full recomputation after
// every event.
func runProbed(t *testing.T, cfg Config) (*recycleProbe, *Result) {
	t.Helper()
	p := &recycleProbe{Scheduler: cfg.Scheduler}
	cfg.Scheduler, cfg.CheckInvariants, cfg.MaxTime = p, true, 1e6
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.sim = s
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestRecycledRecordsAtOneInstant: a record unlink removed is reused only
// after the next recomputeRates, when every node has dropped it; a start
// in the same loop iteration takes another. Each case makes a task leave
// and another start at one instant, in each of the three places an
// iteration unlinks, with checkRates on at every step. Handing the record
// back in unlink instead fails each case with a checkRates error.
func TestRecycledRecordsAtOneInstant(t *testing.T) {
	// One task fits a machine at a time (20 of 32 GB); 32 core-seconds at
	// 16 cores end on a whole second, when a heartbeat round is due.
	peak := resources.New(16, 20, 0, 0, 0, 0)
	work := workload.Work{CPUSeconds: 32}

	t.Run("completion-then-start", func(t *testing.T) {
		p, res := runProbed(t, Config{Cluster: cluster.NewFacebook(1), Workload: oneJob(4, peak, work),
			Scheduler: tetris(), RecordTasks: true})
		recs := res.Tasks
		if len(recs) != 4 {
			t.Fatalf("%d task records, want 4", len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Start != recs[i-1].Finish {
				t.Errorf("task %v started at %v, task %v finished at %v: want one instant", recs[i].Task, recs[i].Start, recs[i-1].Task, recs[i-1].Finish)
			}
		}
		if p.recycled == 0 {
			t.Error("no start took a recycled record")
		}
	})

	t.Run("crash-then-start", func(t *testing.T) {
		// Two tasks on three machines; the crashes of machines 0 and 1 at
		// t=3 kill at least one, which the round at t=3 restarts on the
		// machine left free.
		plan := &faults.Plan{Events: []faults.Event{
			{Time: 3, Kind: faults.MachineCrash, Machine: 0},
			{Time: 3, Kind: faults.MachineCrash, Machine: 1},
			{Time: 50, Kind: faults.MachineRecover, Machine: 0},
			{Time: 50, Kind: faults.MachineRecover, Machine: 1},
		}}
		wl := oneJob(2, peak, workload.Work{CPUSeconds: 160})
		wl.NumMachines = 3
		_, res := runProbed(t, Config{Cluster: cluster.NewFacebook(3), Workload: wl, Scheduler: tetris(),
			FaultPlan: plan, RecordTasks: true})
		if res.RecoveryStats().TasksKilled == 0 {
			t.Fatal("the crashes killed no task")
		}
		restarted := false
		for _, r := range res.Tasks {
			restarted = restarted || r.Start == 3
		}
		if !restarted {
			t.Errorf("no task started at the crash instant: %+v", res.Tasks)
		}
	})

	t.Run("preemption-then-start", func(t *testing.T) {
		wl := trace.GenerateGangMix(trace.Config{Seed: 3, NumJobs: 24, NumMachines: 6, ArrivalSpanSec: 100, MeanTaskSeconds: 40}, 0.4)
		p, res := runProbed(t, Config{Cluster: cluster.NewFacebook(6), Workload: wl, Scheduler: tetris()})
		if res.Preemptions == 0 || p.afterPreempt == 0 {
			t.Errorf("%d preemptions, %d starts on recycled records after one: want both", res.Preemptions, p.afterPreempt)
		}
	})
}

// TestRunningTaskRecordsAreRecycled: the records a run allocates are
// bounded by the most it holds at once, not by its placements, under
// completions, failed attempts and crashes alike.
func TestRunningTaskRecordsAreRecycled(t *testing.T) {
	plan := faults.Generate(faults.PlanConfig{Seed: 7, Machines: 20, Horizon: 300, CrashFraction: 0.15, MeanDowntime: 30})
	wl := trace.GenerateSuite(trace.Config{Seed: 11, NumJobs: 10, NumMachines: 20, ArrivalSpanSec: 200, MeanTaskSeconds: 10})
	p, res := runProbed(t, Config{Cluster: cluster.NewFacebook(20), Workload: wl, Scheduler: tetris(),
		FaultPlan: plan, TaskFailureProb: 0.1})
	if res.FailedAttempts == 0 || res.RecoveryStats().TasksKilled == 0 {
		t.Fatalf("%d failed attempts, %d tasks killed by crashes: want both", res.FailedAttempts, res.RecoveryStats().TasksKilled)
	}
	if n := p.records(); n > p.peak || 3*n > p.placed {
		t.Errorf("%d records allocated for %d placements, at most %d held at once: want no more than the peak and a third of the placements", n, p.placed, p.peak)
	}
}
