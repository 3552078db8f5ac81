package sim

import (
	"math"
	"reflect"
	"testing"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

// chaosConfig builds the reference chaos run: a generated multi-job
// workload on 20 machines with a seeded plan crashing 15% of them
// (≥ 10%, the hardening bar) plus a slowdown, invariants checked.
func chaosConfig(sch scheduler.Scheduler) Config {
	wl := trace.GenerateSuite(trace.Config{Seed: 11, NumJobs: 8, NumMachines: 20, ArrivalSpanSec: 200, MeanTaskSeconds: 10})
	plan := faults.Generate(faults.PlanConfig{
		Seed:             7,
		Machines:         20,
		Horizon:          300,
		CrashFraction:    0.15,
		MeanDowntime:     30,
		SlowdownFraction: 0.05,
		SlowdownFactor:   0.5,
	})
	return Config{
		Cluster:         cluster.NewFacebook(20),
		Workload:        wl,
		Scheduler:       sch,
		FaultPlan:       plan,
		CheckInvariants: true,
		MaxTime:         1e6,
	}
}

// TestChaosAllJobsCompleteUnderChurn is the headline chaos property: for
// every scheduling policy, a run with machine crashes, recoveries and
// slowdowns still completes every job, keeps the simulator's physical
// invariants, and reports per-event recovery data.
func TestChaosAllJobsCompleteUnderChurn(t *testing.T) {
	cases := []struct {
		name string
		sch  scheduler.Scheduler
	}{
		{"tetris", scheduler.NewTetris(scheduler.DefaultTetrisConfig())},
		{"slotfair", scheduler.NewSlotFair()},
		{"drf", scheduler.NewDRF()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosConfig(tc.sch)
			res := run(t, cfg)
			if len(res.Jobs) != len(cfg.Workload.Jobs) {
				t.Fatalf("%d/%d jobs finished", len(res.Jobs), len(cfg.Workload.Jobs))
			}
			for id, jr := range res.Jobs {
				if jr.Failed {
					t.Errorf("job %d reported failed with no attempt cap", id)
				}
				if jr.JCT <= 0 {
					t.Errorf("job %d JCT = %v", id, jr.JCT)
				}
			}
			if len(res.KilledJobs) != 0 {
				t.Errorf("killed jobs = %v, want none", res.KilledJobs)
			}
			st := res.RecoveryStats()
			if st.Crashes == 0 {
				t.Fatal("no crashes recorded despite the plan")
			}
			if st.Recoveries > st.Crashes {
				t.Errorf("recoveries %d exceed crashes %d", st.Recoveries, st.Crashes)
			}
			for _, ev := range res.FaultEvents {
				if ev.Kind == faults.MachineRecover && ev.Downtime <= 0 {
					t.Errorf("recovery of machine %d has no downtime", ev.Machine)
				}
			}
		})
	}
}

// TestChaosDeterministicReplay: identical seeds must reproduce the run
// bit for bit — every job result, fault record, and sample.
func TestChaosDeterministicReplay(t *testing.T) {
	a := run(t, chaosConfig(scheduler.NewTetris(scheduler.DefaultTetrisConfig())))
	b := run(t, chaosConfig(scheduler.NewTetris(scheduler.DefaultTetrisConfig())))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged:\n a: makespan=%v jobs=%v faults=%v\n b: makespan=%v jobs=%v faults=%v",
			a.Makespan, a.Jobs, a.FaultEvents, b.Makespan, b.Jobs, b.FaultEvents)
	}
}

// TestChaosCrashReleasesAndReruns pins the crash mechanics on one
// machine: both running tasks die at the crash, re-enter the pending
// pool, and re-run after the recovery; the fault log carries the kill
// count and the recovery latency.
func TestChaosCrashReleasesAndReruns(t *testing.T) {
	wl := oneJob(2, resources.New(2, 4, 0, 0, 0, 0), workload.Work{CPUSeconds: 20}) // 10 s each
	plan := &faults.Plan{Events: []faults.Event{
		{Time: 5, Kind: faults.MachineCrash, Machine: 0},
		{Time: 20, Kind: faults.MachineRecover, Machine: 0},
	}}
	res := run(t, Config{
		Cluster:         cluster.New(1, cluster.FacebookProfile(), 0),
		Workload:        wl,
		Scheduler:       tetris(),
		FaultPlan:       plan,
		CheckInvariants: true,
		MaxTime:         1e4,
	})
	if res.FailedAttempts != 2 {
		t.Errorf("FailedAttempts = %d, want 2 (both tasks killed by the crash)", res.FailedAttempts)
	}
	// Killed at t=5, machine back at t=20, rerun takes 10 s → done at 30.
	if jr := res.Jobs[0]; math.Abs(jr.Finish-30) > 0.5 {
		t.Errorf("job finished at %v, want ≈30 (crash at 5, recover at 20, rerun 10s)", jr.Finish)
	}
	st := res.RecoveryStats()
	if st.Crashes != 1 || st.Recoveries != 1 || st.TasksKilled != 2 {
		t.Errorf("recovery stats = %+v, want 1 crash / 1 recovery / 2 kills", st)
	}
	if math.Abs(st.MeanDowntime-15) > 1e-9 {
		t.Errorf("mean downtime = %v, want 15", st.MeanDowntime)
	}
}

// TestChaosAttemptCapKillsJob: with MaxTaskAttempts=1, the first crash
// abandons the job; the run still completes and reports it failed.
func TestChaosAttemptCapKillsJob(t *testing.T) {
	wl := oneJob(2, resources.New(2, 4, 0, 0, 0, 0), workload.Work{CPUSeconds: 20})
	plan := &faults.Plan{Events: []faults.Event{
		{Time: 5, Kind: faults.MachineCrash, Machine: 0},
		{Time: 6, Kind: faults.MachineRecover, Machine: 0},
	}}
	res := run(t, Config{
		Cluster:         cluster.New(1, cluster.FacebookProfile(), 0),
		Workload:        wl,
		Scheduler:       tetris(),
		FaultPlan:       plan,
		MaxTaskAttempts: 1,
		CheckInvariants: true,
		MaxTime:         1e4,
	})
	if len(res.KilledJobs) != 1 || res.KilledJobs[0] != 0 {
		t.Fatalf("KilledJobs = %v, want [0]", res.KilledJobs)
	}
	jr, ok := res.Jobs[0]
	if !ok || !jr.Failed {
		t.Fatalf("job result = %+v, want recorded as failed", jr)
	}
	if got := res.JCTs(); len(got) != 0 {
		t.Errorf("JCTs = %v, want empty (failed jobs have no completion)", got)
	}
}

// TestChaosSlowdownStretchesTask: a machine slowdown halves granted
// rates for its duration.
func TestChaosSlowdownStretchesTask(t *testing.T) {
	wl := oneJob(1, resources.New(2, 4, 0, 0, 0, 0), workload.Work{CPUSeconds: 20}) // 10 s at full speed
	plan := &faults.Plan{Events: []faults.Event{
		{Time: 1, Kind: faults.SlowdownStart, Machine: 0, Factor: 0.5},
		{Time: 100, Kind: faults.SlowdownEnd, Machine: 0},
	}}
	res := run(t, Config{
		Cluster:   cluster.New(1, cluster.FacebookProfile(), 0),
		Workload:  wl,
		Scheduler: tetris(),
		FaultPlan: plan,
		MaxTime:   1e4,
	})
	// 1 s at rate 2 (2 core-s done), then 18 core-s at rate 1 → t = 19.
	if math.Abs(res.Makespan-19) > 0.5 {
		t.Errorf("makespan = %v, want ≈19 under the half-speed window", res.Makespan)
	}
}

// TestChaosStragglerInjection: with probability 1 every attempt is a
// straggler at half speed, so tasks take twice as long.
func TestChaosStragglerInjection(t *testing.T) {
	wl := oneJob(2, resources.New(2, 4, 0, 0, 0, 0), workload.Work{CPUSeconds: 20})
	res := run(t, Config{
		Cluster:   cluster.New(1, cluster.FacebookProfile(), 0),
		Workload:  wl,
		Scheduler: tetris(),
		FaultPlan: &faults.Plan{StragglerProb: 1, StragglerFactor: 0.5, Seed: 3},
		MaxTime:   1e4,
	})
	if res.Stragglers != 2 {
		t.Errorf("Stragglers = %d, want 2", res.Stragglers)
	}
	if math.Abs(res.Makespan-20) > 0.5 {
		t.Errorf("makespan = %v, want ≈20 (10 s tasks at half speed)", res.Makespan)
	}
}

// TestRecoveryStatsCountEvictedRecords: a run that logs more fault records
// than the bounded log holds still summarizes every crash and recovery it
// applied, not the surviving tail.
func TestRecoveryStatsCountEvictedRecords(t *testing.T) {
	const cycles = 600 // 1 200 records against the log's 1 024
	plan := &faults.Plan{}
	for i := 0; i < cycles; i++ {
		at := 10 * float64(i+1)
		plan.Events = append(plan.Events,
			faults.Event{Time: at, Kind: faults.MachineCrash, Machine: 1},
			faults.Event{Time: at + 4, Kind: faults.MachineRecover, Machine: 1})
	}
	res := run(t, Config{
		Cluster:   cluster.New(2, cluster.FacebookProfile(), 0),
		Workload:  oneJob(1, resources.New(2, 4, 0, 0, 0, 0), workload.Work{CPUSeconds: 20000}),
		Scheduler: tetris(),
		FaultPlan: plan,
		MaxTime:   1e6,
	})
	if len(res.FaultEvents) != faults.DefaultRingCap || res.DroppedFaultEvents != 2*cycles-faults.DefaultRingCap {
		t.Fatalf("log holds %d records and dropped %d, want %d and %d",
			len(res.FaultEvents), res.DroppedFaultEvents, faults.DefaultRingCap, 2*cycles-faults.DefaultRingCap)
	}
	st := res.RecoveryStats()
	if st.Crashes != cycles || st.Recoveries != cycles {
		t.Errorf("%d crashes and %d recoveries summarized, want %d of each", st.Crashes, st.Recoveries, cycles)
	}
	if st.MeanDowntime != 4 || st.MaxDowntime != 4 {
		t.Errorf("downtime %v mean, %v max; want 4 and 4", st.MeanDowntime, st.MaxDowntime)
	}
	if tail := faults.Summarize(res.FaultEvents); st.TasksKilled < tail.TasksKilled {
		t.Errorf("%d task attempts killed in all, fewer than the %d the surviving tail names", st.TasksKilled, tail.TasksKilled)
	}
}
