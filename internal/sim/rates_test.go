package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

// TestIncrementalRatesMatchFull runs the simulator over every kind of
// event that moves a fluid share, with Config.CheckInvariants on: after
// each recomputeRates, checkRates rebuilds every node's user list from
// the running tasks and requires each demand sum, scale factor and live
// component rate to equal the full three-pass computation bit for bit,
// and each task's stored finish estimate to equal finishEstimate.
// Each case also asserts that the events it exists for happened, and that
// the incremental path did the work (some nodes were left alone).
//
// The check has teeth. Each of these one-line mutations of the
// incremental path fails this test (and the chaos suite) with a
// checkRates error: not re-marking the task unlink swap-moves; summing a
// marked node's list unsorted; no mark when advance finishes a component;
// no mark on a slow[] change (faults case only); not listing cross-rack
// flows on the uplink nodes (deployment cases only); not re-estimating
// the tasks recomputeRates re-rated.
func TestIncrementalRatesMatchFull(t *testing.T) {
	suite := func(machines int) trace.Config {
		return trace.Config{Seed: 11, NumJobs: 10, NumMachines: machines, ArrivalSpanSec: 200, MeanTaskSeconds: 10}
	}
	plan := func(machines int) *faults.Plan {
		p := faults.Generate(faults.PlanConfig{
			Seed: 7, Machines: machines, Horizon: 300,
			CrashFraction: 0.15, MeanDowntime: 30,
			SlowdownFraction: 0.2, SlowdownFactor: 0.5,
		})
		p.StragglerProb, p.StragglerFactor = 0.2, 0.5
		return p
	}
	cases := []struct {
		name  string
		cfg   func() Config
		check func(t *testing.T, s *Sim, res *Result)
	}{
		{"facebook", func() Config {
			return Config{Cluster: cluster.NewFacebook(20), Workload: trace.GenerateSuite(suite(20)), Scheduler: tetris(), SampleEvery: 5}
		}, nil},
		{"deployment-uplinks", func() Config {
			return Config{Cluster: cluster.NewDeployment(40), Workload: trace.GenerateSuite(suite(40)), Scheduler: tetris()}
		}, func(t *testing.T, s *Sim, _ *Result) {
			if s.racks != 2 || len(s.nodes) != 40+4 {
				t.Errorf("%d uplinked racks, %d nodes; want 2 and 44", s.racks, len(s.nodes))
			}
		}},
		{"activities", func() Config {
			var acts []Activity
			for m := 0; m < 20; m += 3 {
				acts = append(acts, Activity{Machine: m, Start: float64(10 * m), End: float64(10*m + 120),
					Usage: resources.New(4, 0, 150, 150, 800, 800)})
			}
			return Config{Cluster: cluster.NewFacebook(20), Workload: trace.GenerateSuite(suite(20)), Scheduler: scheduler.NewSlotFair(), Activities: acts}
		}, nil},
		{"faults", func() Config {
			return Config{Cluster: cluster.NewDeployment(40), Workload: trace.GenerateSuite(suite(40)), Scheduler: tetris(), FaultPlan: plan(40)}
		}, func(t *testing.T, _ *Sim, res *Result) {
			st := res.RecoveryStats()
			slowdowns := 0
			for _, e := range plan(40).Events {
				if e.Kind == faults.SlowdownStart {
					slowdowns++
				}
			}
			if st.Crashes == 0 || st.Recoveries == 0 || st.TasksKilled == 0 || slowdowns == 0 || res.Stragglers == 0 {
				t.Errorf("crashes %d, recoveries %d, tasks killed %d, slowdowns %d, stragglers %d: want all > 0",
					st.Crashes, st.Recoveries, st.TasksKilled, slowdowns, res.Stragglers)
			}
		}},
		{"task-failures-kill-jobs", func() Config {
			return Config{Cluster: cluster.NewFacebook(20), Workload: trace.GenerateSuite(suite(20)), Scheduler: scheduler.NewDRF(),
				TaskFailureProb: 0.3, MaxTaskAttempts: 3}
		}, func(t *testing.T, _ *Sim, res *Result) {
			if res.FailedAttempts == 0 || len(res.KilledJobs) == 0 {
				t.Errorf("%d failed attempts, killed jobs %v: want both", res.FailedAttempts, res.KilledJobs)
			}
		}},
		{"gang-preemption", func() Config {
			wl := trace.GenerateGangMix(trace.Config{Seed: 3, NumJobs: 24, NumMachines: 6, ArrivalSpanSec: 100, MeanTaskSeconds: 40}, 0.4)
			return Config{Cluster: cluster.NewFacebook(6), Workload: wl, Scheduler: tetris()}
		}, func(t *testing.T, _ *Sim, res *Result) {
			if res.Preemptions == 0 || res.GangCommits == 0 {
				t.Errorf("%d preemptions, %d gang commits: want both", res.Preemptions, res.GangCommits)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.CheckInvariants = true
			cfg.MaxTime = 1e6
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != len(cfg.Workload.Jobs) {
				t.Errorf("%d of %d jobs terminated", len(res.Jobs), len(cfg.Workload.Jobs))
			}
			if s.rateNodesRecomputed == 0 || s.rateNodesClean == 0 {
				t.Errorf("rate nodes: %d recomputed, %d clean; want both > 0", s.rateNodesRecomputed, s.rateNodesClean)
			}
			if tc.check != nil {
				tc.check(t, s, res)
			}
		})
	}
}

// maskedRemote is a policy with its own remote-read model: it places what
// Tetris places but charges each remote source only in the dimensions
// keep lists, so the tracker must mask observed usage by the charge.
type maskedRemote struct {
	scheduler.Scheduler
	keep    resources.Vector // 1 where a remote charge is kept
	charges int              // remote charges handed to the simulator
}

func (p *maskedRemote) Schedule(v *scheduler.View) []scheduler.Assignment {
	asgs := p.Scheduler.Schedule(v)
	for i := range asgs {
		// A fresh slice: the core's cache still holds the charges it made.
		rem := make([]scheduler.RemoteCharge, len(asgs[i].Remote))
		for k, rc := range asgs[i].Remote {
			rem[k] = scheduler.RemoteCharge{Machine: rc.Machine, Charge: rc.Charge.Mul(p.keep)}
		}
		asgs[i].Remote = rem
		p.charges += len(rem)
	}
	return asgs
}

// TestTrackerLedgersMatchVectorFormula runs policies whose remote charges
// leave out the source's disk or its network, with Config.CheckInvariants
// on: before every round, checkReported requires each machine's Reported
// and Allocated to equal, bit for bit, the whole-vector formula
// updateReported replaced. Charging a flow's disk read without testing
// the charge's mask fails the disk-free case.
func TestTrackerLedgersMatchVectorFormula(t *testing.T) {
	for _, c := range []struct {
		name string
		keep resources.Vector
	}{
		{"tetris", resources.New(1, 1, 1, 1, 1, 1)},
		{"no-source-disk", resources.New(1, 1, 0, 1, 1, 1)},
		{"no-source-net", resources.New(1, 1, 1, 1, 1, 0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := &maskedRemote{Scheduler: tetris(), keep: c.keep}
			wl := trace.GenerateSuite(trace.Config{Seed: 11, NumJobs: 10, NumMachines: 20, ArrivalSpanSec: 200, MeanTaskSeconds: 30})
			res := run(t, Config{Cluster: cluster.NewFacebook(20), Workload: wl, Scheduler: p, CheckInvariants: true, MaxTime: 1e6})
			if p.charges == 0 {
				t.Fatal("no remote charge was made: the masks were never exercised")
			}
			long := 0
			for _, d := range res.TaskDurations {
				if d > rampUpSec {
					long++
				}
			}
			if long == 0 {
				t.Fatalf("no task outlived the %d s ramp-up: the decayed charges were never exercised", rampUpSec)
			}
		})
	}
}

// heldCharges is a policy that places what its inner scheduler places
// and keeps a deep copy of each placement's remote charges. Once the
// inner scheduler's next round has run — and reused the buffers the
// charges came from — it checks that every running task still holds the
// charges it was placed with.
type heldCharges struct {
	scheduler.Scheduler
	sim     *Sim
	want    map[workload.TaskID][]scheduler.RemoteCharge // by running task, as placed
	checked int                                          // running tasks checked with charges
	partial int                                          // placements partly local and partly remote
	err     error                                        // the first running task found changed
}

func (p *heldCharges) Schedule(v *scheduler.View) []scheduler.Assignment {
	asgs := p.Scheduler.Schedule(v)
	for _, rt := range p.sim.running {
		want := p.want[rt.task.ID]
		if !slices.Equal(rt.remote, want) && p.err == nil {
			p.err = fmt.Errorf("after the round at t=%v, task %v placed with charges %v holds %v", v.Time, rt.task.ID, want, rt.remote)
		}
		if len(want) > 0 {
			p.checked++
		}
	}
	for _, a := range asgs {
		p.want[a.Task.ID] = slices.Clone(a.Remote)
		if a.Remote != nil && a.Task.HasLocalAffinity(a.Machine) {
			p.partial++
		}
	}
	return asgs
}

// TestAssignmentsOutliveTheirRound: an Assignment's remote charges are
// valid only until the scheduler's next round, which refills the buffers
// they point at; the simulator copies them into the running task
// (runningTask.remote, read by updateReported for the task's whole
// life). With Config.CheckInvariants on, every running task must hold
// the charges it was placed with after each later round.
func TestAssignmentsOutliveTheirRound(t *testing.T) {
	p := &heldCharges{Scheduler: tetris(), want: map[workload.TaskID][]scheduler.RemoteCharge{}}
	wl := trace.GenerateSuite(trace.Config{Seed: 11, NumJobs: 10, NumMachines: 20, ArrivalSpanSec: 200, MeanTaskSeconds: 30})
	s, err := New(Config{Cluster: cluster.NewFacebook(20), Workload: wl, Scheduler: p, CheckInvariants: true, MaxTime: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	p.sim = s
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.partial == 0 || p.checked == 0 {
		t.Fatalf("%d partly local placements, %d running tasks with charges checked: the charge buffers were never exercised", p.partial, p.checked)
	}
}

// TestWideTaskFinishes: a task reading from more sources than one word of
// the live-component mask covers completes only once every component,
// the 65th on included, has done its work; Config.CheckInvariants
// compares its stored finish estimate and every rate against the full
// computation at every event.
func TestWideTaskFinishes(t *testing.T) {
	const sources = 70
	var blocks []workload.InputBlock
	for m := 0; m < sources; m++ {
		blocks = append(blocks, workload.InputBlock{Machine: m, SizeMB: float64(10 + m)})
	}
	wl := oneJob(2, resources.New(1, 1, 50, 10, 400, 0), workload.Work{CPUSeconds: 5, WriteMB: 20}, blocks...)
	wl.NumMachines = sources
	s, err := New(Config{Cluster: cluster.NewFacebook(sources + 2), Workload: wl, Scheduler: tetris(), CheckInvariants: true, MaxTime: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range wl.Jobs[0].Stages[0].Tasks {
		s.start(scheduler.Assignment{Task: task, Machine: sources + task.ID.Index, Local: task.Peak})
	}
	started := append([]*runningTask(nil), s.running...)
	for _, rt := range started {
		if len(rt.comps) <= 64 || len(rt.liveMore) == 0 {
			t.Fatalf("task %v: %d components, %d extra mask words; want more than 64 and some", rt.task.ID, len(rt.comps), len(rt.liveMore))
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskDurations) != 2 || len(res.Jobs) != 1 {
		t.Errorf("%d task durations, %d jobs finished; want 2 and 1", len(res.TaskDurations), len(res.Jobs))
	}
	for _, rt := range started {
		for i, c := range rt.comps {
			if c.remaining != 0 {
				t.Errorf("task %v finished with %v left in component %d of %d", rt.task.ID, c.remaining, i, len(rt.comps))
			}
		}
	}
}

// TestFlowOrderIsAFunctionOfTheTask: a task's flow components come one
// per source machine in ascending source order, whatever order its input
// blocks are listed in. The order is part of every sum the components
// enter, so it must not depend on map iteration (it did) or on anything
// else outside the seed.
func TestFlowOrderIsAFunctionOfTheTask(t *testing.T) {
	blocks := []workload.InputBlock{
		{Machine: 7, SizeMB: 10}, {Machine: 3, SizeMB: 20}, {Machine: 9, SizeMB: 30},
		{Machine: 3, SizeMB: 40}, {Machine: 1, SizeMB: 50}, {Machine: 0, SizeMB: 60},
	}
	wl := oneJob(50, resources.New(1, 1, 50, 0, 100, 0), workload.Work{CPUSeconds: 1}, blocks...)
	wl.NumMachines = 10
	s, err := New(Config{Cluster: cluster.NewFacebook(10), Workload: wl, Scheduler: tetris()})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range wl.Jobs[0].Stages[0].Tasks {
		s.start(scheduler.Assignment{Task: task, Machine: 0, Local: task.Peak})
		var srcs []int
		var mbs []float64
		for _, c := range s.running[len(s.running)-1].comps {
			if c.kind == compFlow {
				srcs, mbs = append(srcs, int(c.src)), append(mbs, c.remaining)
			}
		}
		if !reflect.DeepEqual(srcs, []int{1, 3, 7, 9}) || !reflect.DeepEqual(mbs, []float64{50, 60, 10, 30}) {
			t.Fatalf("task %v: flows from %v carrying %v MB, want sources [1 3 7 9] carrying [50 60 10 30]", task.ID, srcs, mbs)
		}
	}
}
