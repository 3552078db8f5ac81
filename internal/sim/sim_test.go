package sim

import (
	"math"
	"testing"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

// oneJob builds a workload with a single one-stage job.
func oneJob(n int, peak resources.Vector, work workload.Work, inputs ...workload.InputBlock) *workload.Workload {
	j := &workload.Job{ID: 0, Weight: 1}
	st := &workload.Stage{Name: "s"}
	for i := 0; i < n; i++ {
		t := &workload.Task{
			ID:   workload.TaskID{Job: 0, Stage: 0, Index: i},
			Peak: peak,
			Work: work,
		}
		t.Inputs = append(t.Inputs, inputs...)
		st.Tasks = append(st.Tasks, t)
	}
	j.Stages = []*workload.Stage{st}
	return &workload.Workload{Jobs: []*workload.Job{j}, NumMachines: 1}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func tetris() scheduler.Scheduler { return scheduler.NewTetris(scheduler.DefaultTetrisConfig()) }

func TestConfigValidation(t *testing.T) {
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(1, resources.New(1, 1, 0, 0, 0, 0), workload.Work{CPUSeconds: 10})
	if _, err := New(Config{Cluster: cl, Workload: wl}); err == nil {
		t.Error("missing scheduler accepted")
	}
	wl2 := oneJob(1, resources.New(1, 1, 0, 0, 0, 0), workload.Work{CPUSeconds: 10})
	wl2.NumMachines = 99
	if _, err := New(Config{Cluster: cl, Workload: wl2, Scheduler: tetris()}); err == nil {
		t.Error("machine-universe mismatch accepted")
	}
	if _, err := New(Config{Cluster: cl, Workload: wl, Scheduler: tetris(),
		Activities: []Activity{{Machine: 5}}}); err == nil {
		t.Error("out-of-range activity accepted")
	}
}

func TestSingleCPUTaskDuration(t *testing.T) {
	// 1 task: 2 cores × 10 s of cpu work → runs exactly 10 s unimpeded.
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(1, resources.New(2, 4, 0, 0, 0, 0), workload.Work{CPUSeconds: 20})
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris()})
	if math.Abs(res.Makespan-10) > 1e-6 {
		t.Errorf("makespan = %v, want 10", res.Makespan)
	}
	if jct := res.Jobs[0].JCT; math.Abs(jct-10) > 1e-6 {
		t.Errorf("JCT = %v, want 10", jct)
	}
	if len(res.TaskDurations) != 1 || math.Abs(res.TaskDurations[0]-10) > 1e-6 {
		t.Errorf("task durations = %v", res.TaskDurations)
	}
}

func TestCPUContentionStretchesTasks(t *testing.T) {
	// Slot scheduler ignores CPU: 16 one-slot tasks × 8 cores demand on a
	// 16-core machine → 8× over-subscription → tasks run 8× longer.
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(16, resources.New(8, 2, 0, 0, 0, 0), workload.Work{CPUSeconds: 80})
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: scheduler.NewSlotFair()})
	// Unimpeded duration = 10 s; with 128 cores demanded on 16 → 80 s.
	if math.Abs(res.Makespan-80) > 1 {
		t.Errorf("makespan = %v, want ≈ 80 (8× stretch)", res.Makespan)
	}
}

func TestTetrisAvoidsCPUContention(t *testing.T) {
	// Same workload under Tetris: 2 tasks at a time × 8 rounds, each
	// unimpeded 10 s → makespan ≈ 80 s as well, BUT task durations are
	// 10 s not 80 s (no contention), freeing memory much earlier.
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(16, resources.New(8, 2, 0, 0, 0, 0), workload.Work{CPUSeconds: 80})
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris()})
	if math.Abs(res.MeanTaskDuration()-10) > 0.5 {
		t.Errorf("mean task duration = %v, want 10 (no contention)", res.MeanTaskDuration())
	}
}

func TestDiskReadComponent(t *testing.T) {
	// Task reads 400 MB local at 100 MB/s peak → 4 s.
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(1, resources.New(1, 1, 100, 0, 0, 0), workload.Work{},
		workload.InputBlock{Machine: 0, SizeMB: 400})
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris()})
	if math.Abs(res.Makespan-4) > 1e-6 {
		t.Errorf("makespan = %v, want 4", res.Makespan)
	}
	if res.LocalReadMB != 400 || res.RemoteReadMB != 0 {
		t.Errorf("locality accounting: local=%v remote=%v", res.LocalReadMB, res.RemoteReadMB)
	}
}

func TestRemoteFlowRateLimits(t *testing.T) {
	// Input on machine 1, task forced onto machine 0 (machine 1 has no
	// memory left... easier: a 2-machine cluster where machine 1 has zero
	// cores so compute tasks cannot run there).
	caps := cluster.New(2, cluster.FacebookProfile(), 0)
	caps.Machines[1].Capacity = resources.New(0, 0, 200, 200, 1000, 1000)
	wl := oneJob(1, resources.New(1, 1, 100, 0, 400, 0), workload.Work{},
		workload.InputBlock{Machine: 1, SizeMB: 400})
	wl.NumMachines = 2
	// 400 Mb/s netIn = 50 MB/s → 8 s to pull 400 MB.
	res := run(t, Config{Cluster: caps, Workload: wl, Scheduler: tetris()})
	if math.Abs(res.Makespan-8) > 1e-6 {
		t.Errorf("makespan = %v, want 8", res.Makespan)
	}
	if res.RemoteReadMB != 400 {
		t.Errorf("remote MB = %v", res.RemoteReadMB)
	}
}

func TestNetworkContentionProportionalSharing(t *testing.T) {
	// Two reducers each demanding 800 Mb/s netIn on one 1000 Mb/s NIC,
	// placed together by a scheduler that ignores the network (DRF).
	// Demand is k = 1600/1000 = 1.6 times capacity, so interference cuts
	// the NIC to C_eff = C/(1 + α(k−1)) = 1000/(1 + 0.5·0.6) = 769 Mb/s
	// (above the floor 0.25·C), which the two flows share in proportion
	// to demand: each gets 769/2 = 385 Mb/s = 48.1 MB/s, and 400 MB takes
	// 400/48.1 = 8.32 s instead of 4 s.
	caps := cluster.New(2, cluster.FacebookProfile(), 0)
	caps.Machines[1].Capacity = resources.New(0, 0, 2000, 2000, 4000, 4000)
	wl := oneJob(2, resources.New(0.1, 0.1, 200, 0, 800, 0), workload.Work{},
		workload.InputBlock{Machine: 1, SizeMB: 400})
	wl.NumMachines = 2
	res := run(t, Config{Cluster: caps, Workload: wl, Scheduler: scheduler.NewDRF()})
	const k = 1600.0 / 1000
	perFlowMBps := 1000 / (1 + interferenceAlpha*(k-1)) / 2 / 8
	if want := 400 / perFlowMBps; math.Abs(res.Makespan-want) > 0.01 || math.Abs(want-8.32) > 0.01 {
		t.Errorf("makespan = %v, want %.2f (shared NIC under interference)", res.Makespan, want)
	}
	// Tetris places them to respect the NIC: one at a time, 4 s each.
	wl2 := oneJob(2, resources.New(0.1, 0.1, 200, 0, 800, 0), workload.Work{},
		workload.InputBlock{Machine: 1, SizeMB: 400})
	wl2.NumMachines = 2
	res2 := run(t, Config{Cluster: caps, Workload: wl2, Scheduler: tetris()})
	if math.Abs(res2.Makespan-8) > 0.01 {
		t.Errorf("tetris makespan = %v, want 8 (serialized)", res2.Makespan)
	}
	if res2.MeanTaskDuration() >= res.MeanTaskDuration() {
		t.Errorf("tetris task durations (%v) should beat DRF's (%v)",
			res2.MeanTaskDuration(), res.MeanTaskDuration())
	}
}

func TestInterferencePenalty(t *testing.T) {
	// Two flows of 100 MB/s (800 Mb/s) each on one 1000 Mb/s NIC, placed
	// together by DRF: demand k = 1.6x capacity, so with default
	// interference (alpha=0.5) effective capacity is 1000/1.3 = 769 Mb/s
	// and each flow runs at 100 x (769/1600) = 48.1 MB/s -> 400 MB in
	// 8.32 s, versus 6.4 s under pure proportional sharing above.
	caps := cluster.New(2, cluster.FacebookProfile(), 0)
	caps.Machines[1].Capacity = resources.New(0, 0, 2000, 2000, 8000, 8000)
	wl := oneJob(2, resources.New(0.1, 0.1, 200, 0, 800, 0), workload.Work{},
		workload.InputBlock{Machine: 1, SizeMB: 400})
	wl.NumMachines = 2
	res := run(t, Config{Cluster: caps, Workload: wl, Scheduler: scheduler.NewDRF()})
	want := 400 / (100 * (1000 / 1.3) / 1600)
	if math.Abs(res.Makespan-want) > 0.05 {
		t.Errorf("makespan = %v, want %.2f (interference-degraded sharing)", res.Makespan, want)
	}
}

func TestBarrierOrdering(t *testing.T) {
	// Two stages with a barrier: total = stage0 time + stage1 time.
	j := &workload.Job{ID: 0, Weight: 1}
	s0 := &workload.Stage{Name: "map"}
	s0.Tasks = append(s0.Tasks, &workload.Task{
		ID:   workload.TaskID{Job: 0, Stage: 0, Index: 0},
		Peak: resources.New(1, 1, 0, 0, 0, 0), Work: workload.Work{CPUSeconds: 5},
	})
	s1 := &workload.Stage{Name: "reduce", Deps: []int{0}}
	s1.Tasks = append(s1.Tasks, &workload.Task{
		ID:   workload.TaskID{Job: 0, Stage: 1, Index: 0},
		Peak: resources.New(1, 1, 0, 0, 0, 0), Work: workload.Work{CPUSeconds: 7},
	})
	j.Stages = []*workload.Stage{s0, s1}
	wl := &workload.Workload{Jobs: []*workload.Job{j}, NumMachines: 1}
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris()})
	if math.Abs(res.Makespan-12) > 1e-6 {
		t.Errorf("makespan = %v, want 12 (5+7 across barrier)", res.Makespan)
	}
}

func TestArrivalsRespected(t *testing.T) {
	j0 := &workload.Job{ID: 0, Weight: 1, Arrival: 0}
	j1 := &workload.Job{ID: 1, Weight: 1, Arrival: 100}
	for _, j := range []*workload.Job{j0, j1} {
		st := &workload.Stage{Name: "s", Tasks: []*workload.Task{{
			ID:   workload.TaskID{Job: j.ID, Stage: 0, Index: 0},
			Peak: resources.New(1, 1, 0, 0, 0, 0), Work: workload.Work{CPUSeconds: 10},
		}}}
		j.Stages = []*workload.Stage{st}
	}
	wl := &workload.Workload{Jobs: []*workload.Job{j0, j1}, NumMachines: 1}
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris()})
	if f := res.Jobs[1].Finish; math.Abs(f-110) > 1e-6 {
		t.Errorf("job 1 finish = %v, want 110", f)
	}
	if jct := res.Jobs[1].JCT; math.Abs(jct-10) > 1e-6 {
		t.Errorf("job 1 JCT = %v, want 10", jct)
	}
}

func TestBackgroundActivitySlowsTasks(t *testing.T) {
	// A scheduler that ignores disk (slot-fair) places a disk task onto a
	// machine whose disk is fully claimed by ingestion: fluid sharing
	// halves the task's rate.
	cl := cluster.New(1, cluster.FacebookProfile(), 0) // 200 MB/s disk
	wl := oneJob(1, resources.New(1, 1, 200, 0, 0, 0), workload.Work{},
		workload.InputBlock{Machine: 0, SizeMB: 400})
	res := run(t, Config{
		Cluster: cl, Workload: wl, Scheduler: scheduler.NewSlotFair(),
		Activities: []Activity{{Machine: 0, Start: 0, End: 1000, Usage: resources.Vector{}.With(resources.DiskRead, 200)}},
	})
	// Demands 200+200 on 200 MB/s are k = 2 times capacity, so
	// interference cuts the disk to C_eff = C/(1 + α(k−1)) = 200/1.5 =
	// 133 MB/s (above the floor 0.25·C = 50), shared in proportion to
	// demand: the task gets 66.7 MB/s and reads 400 MB in 6 s.
	const k = 2.0
	want := 400 / (200 / (1 + interferenceAlpha*(k-1)) / 2)
	if math.Abs(res.Makespan-want) > 0.01 || math.Abs(want-6) > 1e-9 {
		t.Errorf("makespan = %v, want %v (disk shared with ingestion under interference)", res.Makespan, want)
	}
}

func TestTetrisWaitsOutIngestion(t *testing.T) {
	// Tetris sees the tracker's report of the busy disk and does not
	// place the task until the ingestion ends — Figure 6's behaviour.
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(1, resources.New(1, 1, 200, 0, 0, 0), workload.Work{},
		workload.InputBlock{Machine: 0, SizeMB: 400})
	res := run(t, Config{
		Cluster: cl, Workload: wl, Scheduler: tetris(),
		Activities: []Activity{{Machine: 0, Start: 0, End: 100, Usage: resources.Vector{}.With(resources.DiskRead, 200)}},
	})
	// Task starts at 100, runs 2 s unimpeded.
	if math.Abs(res.Makespan-102) > 0.01 {
		t.Errorf("makespan = %v, want 102 (wait out ingestion, then full rate)", res.Makespan)
	}
	if math.Abs(res.MeanTaskDuration()-2) > 0.01 {
		t.Errorf("task duration = %v, want 2", res.MeanTaskDuration())
	}
}

func TestSamplingAndHighUse(t *testing.T) {
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(4, resources.New(4, 8, 0, 0, 0, 0), workload.Work{CPUSeconds: 40})
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris(), SampleEvery: 1})
	if len(res.Samples) < 5 {
		t.Fatalf("samples = %d, want ≥ 5 over a 10 s run", len(res.Samples))
	}
	mid := res.Samples[len(res.Samples)/2]
	if mid.Running != 4 {
		t.Errorf("running at mid-run = %d, want 4", mid.Running)
	}
	// All 16 cores demanded → cpu high-use counters should fire.
	if res.HighUse[resources.CPU].Over80 == 0 {
		t.Error("cpu Over80 never fired despite full machine")
	}
	if res.MachineSamples == 0 {
		t.Error("no machine samples recorded")
	}
}

func TestOverAllocationDetectedInDemand(t *testing.T) {
	// DRF over-subscribes netIn: demand samples must exceed capacity.
	caps := cluster.New(2, cluster.FacebookProfile(), 0)
	caps.Machines[1].Capacity = resources.New(0, 0, 2000, 2000, 8000, 8000)
	wl := oneJob(4, resources.New(0.1, 0.1, 200, 0, 800, 0), workload.Work{},
		workload.InputBlock{Machine: 1, SizeMB: 400})
	wl.NumMachines = 2
	res := run(t, Config{Cluster: caps, Workload: wl, Scheduler: scheduler.NewDRF(), SampleEvery: 0.5})
	if res.HighUse[resources.NetIn].Over100 == 0 {
		t.Error("DRF net over-allocation not captured in Over100")
	}
}

func TestUnfairnessIntegral(t *testing.T) {
	// Two identical jobs, machine fits one task at a time: the job served
	// first accumulates positive integral, the waiter negative.
	j0 := &workload.Job{ID: 0, Weight: 1}
	j1 := &workload.Job{ID: 1, Weight: 1}
	for _, j := range []*workload.Job{j0, j1} {
		st := &workload.Stage{Name: "s", Tasks: []*workload.Task{{
			ID:   workload.TaskID{Job: j.ID, Stage: 0, Index: 0},
			Peak: resources.New(16, 32, 0, 0, 0, 0), Work: workload.Work{CPUSeconds: 160},
		}}}
		j.Stages = []*workload.Stage{st}
	}
	wl := &workload.Workload{Jobs: []*workload.Job{j0, j1}, NumMachines: 1}
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris(), TrackShares: true})
	u0 := res.Jobs[0].Unfairness
	u1 := res.Jobs[1].Unfairness
	if u0 <= 0 {
		t.Errorf("first-served job unfairness = %v, want > 0", u0)
	}
	if u1 >= 0 {
		t.Errorf("waiting job unfairness = %v, want < 0", u1)
	}
}

func TestMaxTimeAborts(t *testing.T) {
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(1, resources.New(1, 1, 0, 0, 0, 0), workload.Work{CPUSeconds: 1e6})
	s, err := New(Config{Cluster: cl, Workload: wl, Scheduler: tetris(), MaxTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("MaxTime exceeded but Run returned nil error")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A task too big for any machine: the scheduler can never place it.
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(1, resources.New(64, 128, 0, 0, 0, 0), workload.Work{CPUSeconds: 10})
	s, err := New(Config{Cluster: cl, Workload: wl, Scheduler: tetris()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("deadlock not detected")
	}
}

func TestAllSchedulersCompleteGeneratedWorkload(t *testing.T) {
	wl := trace.GenerateSuite(trace.Config{Seed: 11, NumJobs: 8, NumMachines: 20, ArrivalSpanSec: 200, MeanTaskSeconds: 10})
	// Shrink job sizes for test speed.
	schedulers := []scheduler.Scheduler{
		scheduler.NewTetris(scheduler.DefaultTetrisConfig()),
		scheduler.NewSlotFair(),
		scheduler.NewDRF(),
	}
	for _, sch := range schedulers {
		cl := cluster.NewFacebook(20)
		s, err := New(Config{Cluster: cl, Workload: wl, Scheduler: sch, MaxTime: 1e6})
		if err != nil {
			t.Fatalf("%s: New: %v", sch.Name(), err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", sch.Name(), err)
		}
		if len(res.Jobs) != len(wl.Jobs) {
			t.Errorf("%s: %d/%d jobs finished", sch.Name(), len(res.Jobs), len(wl.Jobs))
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: makespan = %v", sch.Name(), res.Makespan)
		}
		for id, jr := range res.Jobs {
			if jr.JCT <= 0 {
				t.Errorf("%s: job %d JCT = %v", sch.Name(), id, jr.JCT)
			}
		}
	}
}

// TestGangsAdmittedByDefault: a simulation of the gang mix under a plain
// policy, with no gang settings, still admits its gangs through the
// coordinator: quorums commit, and every job finishes.
func TestGangsAdmittedByDefault(t *testing.T) {
	wl := trace.GenerateGangMix(trace.Config{Seed: 3, NumJobs: 12, NumMachines: 6, ArrivalSpanSec: 100, MeanTaskSeconds: 40}, 0.4)
	res := run(t, Config{Cluster: cluster.NewFacebook(6), Workload: wl, Scheduler: tetris(), MaxTime: 1e6})
	if res.GangCommits == 0 {
		t.Error("no gang quorum committed")
	}
	if len(res.Jobs) != len(wl.Jobs) {
		t.Errorf("%d/%d jobs finished", len(res.Jobs), len(wl.Jobs))
	}
}

func TestImprovementHelpers(t *testing.T) {
	if got := Improvement(100, 70); got != 30 {
		t.Errorf("Improvement = %v", got)
	}
	if got := Improvement(0, 70); got != 0 {
		t.Errorf("Improvement with zero baseline = %v", got)
	}
	base := newResult()
	ours := newResult()
	base.Jobs[0] = JobResult{JCT: 100}
	base.Jobs[1] = JobResult{JCT: 100}
	ours.Jobs[0] = JobResult{JCT: 50}
	ours.Jobs[1] = JobResult{JCT: 120}
	imp := PerJobImprovement(base, ours)
	if len(imp) != 2 || imp[0] != 50 || imp[1] != -20 {
		t.Errorf("PerJobImprovement = %v", imp)
	}
	sd := Slowdowns(base, ours)
	if sd.FractionSlowed != 0.5 || math.Abs(sd.MeanSlowdown-20) > 1e-9 || math.Abs(sd.MaxSlowdown-20) > 1e-9 {
		t.Errorf("Slowdowns = %+v", sd)
	}
}

func TestLocalityFraction(t *testing.T) {
	r := newResult()
	if r.LocalityFraction() != 1 {
		t.Error("empty result locality should be 1")
	}
	r.LocalReadMB, r.RemoteReadMB = 300, 100
	if r.LocalityFraction() != 0.75 {
		t.Errorf("locality = %v", r.LocalityFraction())
	}
}

func TestFailureInjection(t *testing.T) {
	cl := cluster.New(4, cluster.FacebookProfile(), 0)
	wl := oneJob(40, resources.New(2, 4, 0, 0, 0, 0), workload.Work{CPUSeconds: 20})
	wl.NumMachines = 4
	res := run(t, Config{
		Cluster: cl, Workload: wl, Scheduler: tetris(),
		TaskFailureProb: 0.3, CheckInvariants: true,
	})
	if res.FailedAttempts == 0 {
		t.Fatal("no failures injected at p=0.3")
	}
	// All tasks eventually completed despite failures.
	if len(res.Jobs) != 1 || res.Jobs[0].JCT <= 0 {
		t.Fatalf("job did not finish: %+v", res.Jobs)
	}
	// Durations include the failed attempts.
	if len(res.TaskDurations) != 40+res.FailedAttempts {
		t.Errorf("durations = %d, want %d", len(res.TaskDurations), 40+res.FailedAttempts)
	}
	// Deterministic given the seed.
	res2 := run(t, Config{
		Cluster:   cluster.New(4, cluster.FacebookProfile(), 0),
		Workload:  oneJob(40, resources.New(2, 4, 0, 0, 0, 0), workload.Work{CPUSeconds: 20}),
		Scheduler: tetris(), TaskFailureProb: 0.3,
	})
	if res2.FailedAttempts != res.FailedAttempts {
		t.Errorf("failure injection not deterministic: %d vs %d", res2.FailedAttempts, res.FailedAttempts)
	}
}

func TestInvariantsHoldAcrossSchedulers(t *testing.T) {
	wl := trace.GenerateSuite(trace.Config{Seed: 21, NumJobs: 6, NumMachines: 10, ArrivalSpanSec: 300, MeanTaskSeconds: 10})
	for _, sch := range []scheduler.Scheduler{
		scheduler.NewTetris(scheduler.DefaultTetrisConfig()),
		scheduler.NewSlotFair(),
		scheduler.NewDRF(),
	} {
		s, err := New(Config{Cluster: cluster.NewFacebook(10), Workload: wl, Scheduler: sch, CheckInvariants: true, MaxTime: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Errorf("%s: invariant violated: %v", sch.Name(), err)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	cl := cluster.New(1, cluster.FacebookProfile(), 0)
	wl := oneJob(2, resources.New(1, 1, 0, 0, 0, 0), workload.Work{CPUSeconds: 10})
	res := run(t, Config{Cluster: cl, Workload: wl, Scheduler: tetris()})
	if res.MedianJCT() <= 0 {
		t.Error("MedianJCT not positive")
	}
	if len(res.JCTs()) != 1 {
		t.Errorf("JCTs = %v", res.JCTs())
	}
}
