package experiments

import (
	"fmt"
	"io"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/sim"
	"github.com/tetris-sched/tetris/internal/stats"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

func init() {
	register(Experiment{ID: "fig4", Paper: "Figure 4", Desc: "deployment workload: JCT CDF and makespan vs CS and DRF", Run: runFig4})
	register(Experiment{ID: "fig5", Paper: "Figure 5", Desc: "running tasks and utilization timeseries per scheduler", Run: runFig5})
	register(Experiment{ID: "table6", Paper: "Table 6", Desc: "machine-level high-usage probabilities per scheduler", Run: runTable6})
	register(Experiment{ID: "fig6", Paper: "Figure 6", Desc: "resource tracker steering around ingestion", Run: runFig6})
	register(Experiment{ID: "table7", Paper: "Table 7", Desc: "RM heartbeat-processing overheads", Run: runTable7})
}

// deploymentRunner reproduces the §5.1 deployment setup: the workload
// suite of ~200 jobs on a cluster of deployment-profile machines.
func deploymentRunner(p Params) runner {
	machines := p.scaled(100)
	return runner{
		cl: cluster.NewDeployment(machines),
		wl: func() *workload.Workload {
			return trace.GenerateSuite(trace.Config{
				Seed:              p.Seed,
				NumJobs:           p.scaled(200),
				NumMachines:       machines,
				ArrivalSpanSec:    5000,
				RecurringFraction: 0.4,
			})
		},
	}
}

func runFig4(p Params, w io.Writer) error {
	p = p.WithDefaults()
	r := deploymentRunner(p)
	cs, err := r.run(scheduler.NewSlotFair())
	if err != nil {
		return err
	}
	drf, err := r.run(scheduler.NewDRF())
	if err != nil {
		return err
	}
	tet, err := r.run(newTetris())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4: deployment workload (%d jobs, %d machines)\n", p.scaled(200), p.scaled(100))
	fmt.Fprintf(w, "(paper: Tetris improves median JCT ~28%%+ and makespan ~30%% over both baselines)\n\n")
	improvementRow(w, "tetris vs slot-fair", cs, tet)
	improvementRow(w, "tetris vs drf", drf, tet)
	fmt.Fprintln(w)
	cdfRows(w, "tetris vs slot-fair", cs, tet)
	cdfRows(w, "tetris vs drf", drf, tet)
	return nil
}

// timeseriesTable prints Figure-5 style rows: running tasks plus per-
// resource utilization (usage and demand as % of cluster capacity).
func timeseriesTable(w io.Writer, name string, res *sim.Result, total resources.Vector, rows int) {
	fmt.Fprintf(w, "--- %s ---\n", name)
	fmt.Fprintf(w, "%8s %8s | %6s %6s %6s %6s %6s %6s | over-allocated(demand>100%%)\n",
		"time", "running", "cpu%", "mem%", "dskR%", "dskW%", "netI%", "netO%")
	if len(res.Samples) == 0 {
		return
	}
	step := len(res.Samples) / rows
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(res.Samples); i += step {
		s := res.Samples[i]
		pct := func(k resources.Kind) float64 {
			if total.Get(k) == 0 {
				return 0
			}
			return 100 * s.Used.Get(k) / total.Get(k)
		}
		var over string
		for _, k := range resources.Kinds() {
			if total.Get(k) > 0 && s.Demand.Get(k) > total.Get(k) {
				over += fmt.Sprintf(" %v=%.0f%%", k, 100*s.Demand.Get(k)/total.Get(k))
			}
		}
		fmt.Fprintf(w, "%8.0f %8d | %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f |%s\n",
			s.Time, s.Running,
			pct(resources.CPU), pct(resources.Memory), pct(resources.DiskRead),
			pct(resources.DiskWrite), pct(resources.NetIn), pct(resources.NetOut), over)
	}
}

func runFig5(p Params, w io.Writer) error {
	p = p.WithDefaults()
	r := deploymentRunner(p)
	total := r.cl.TotalCapacity()
	fmt.Fprintf(w, "Figure 5: running tasks and resource use over time\n")
	fmt.Fprintf(w, "(paper: Tetris sustains the most running tasks and drives multiple resources high;\n")
	fmt.Fprintf(w, " CS/DRF under-use CPU/memory from fragmentation and over-allocate disk/network)\n\n")
	for _, s := range []struct {
		name string
		sch  scheduler.Scheduler
	}{{"tetris", newTetris()}, {"slot-fair (CS)", scheduler.NewSlotFair()}, {"drf", scheduler.NewDRF()}} {
		res, err := r.run(s.sch, withSampling(60))
		if err != nil {
			return err
		}
		timeseriesTable(w, s.name, res, total, 18)
		fmt.Fprintf(w, "peak running %d, mean task duration %.1fs, locality %.0f%%\n\n",
			maxRunning(res), res.MeanTaskDuration(), 100*res.LocalityFraction())
	}
	return nil
}

func maxRunning(res *sim.Result) int {
	max := 0
	for _, s := range res.Samples {
		if s.Running > max {
			max = s.Running
		}
	}
	return max
}

func runTable6(p Params, w io.Writer) error {
	p = p.WithDefaults()
	r := deploymentRunner(p)
	fmt.Fprintf(w, "Table 6: probability a machine uses a resource above a fraction of capacity\n")
	fmt.Fprintf(w, "(paper: Tetris uses more of all resources without over-allocating;\n baselines under-use and occasionally over-allocate disk/network)\n\n")
	fmt.Fprintf(w, "%-14s %-8s %8s %8s %10s\n", "scheduler", "resource", ">50%", ">80%", ">100%dem")
	for _, s := range []struct {
		name string
		sch  scheduler.Scheduler
	}{{"tetris", newTetris()}, {"slot-fair", scheduler.NewSlotFair()}, {"drf", scheduler.NewDRF()}} {
		res, err := r.run(s.sch, withSampling(60))
		if err != nil {
			return err
		}
		n := float64(res.MachineSamples)
		for _, k := range []resources.Kind{resources.CPU, resources.Memory, resources.DiskRead, resources.NetIn} {
			hu := res.HighUse[k]
			fmt.Fprintf(w, "%-14s %-8v %8.2f %8.2f %10.2f\n", s.name, k,
				float64(hu.Over50)/n, float64(hu.Over80)/n, float64(hu.Over100)/n)
		}
	}
	return nil
}

// runFig6 reproduces the ingestion micro-benchmark: a steady stream of
// disk-heavy tasks on a small cluster; at t=300 s machine 0 starts heavy
// ingestion. Tetris (via the tracker) stops placing tasks there; the
// capacity scheduler does not, and its tasks contend with the ingestion.
func runFig6(p Params, w io.Writer) error {
	p = p.WithDefaults()
	mk := func() *workload.Workload {
		wl := &workload.Workload{NumMachines: 2}
		// 40 sequential small disk jobs arriving over 800 s.
		for jid := 0; jid < 40; jid++ {
			j := &workload.Job{ID: jid, Weight: 1, Arrival: float64(jid) * 20}
			st := &workload.Stage{Name: "scan"}
			for i := 0; i < 4; i++ {
				st.Tasks = append(st.Tasks, &workload.Task{
					ID:     workload.TaskID{Job: jid, Stage: 0, Index: i},
					Peak:   resources.New(1, 2, 50, 0, 0, 0),
					Work:   workload.Work{CPUSeconds: 5},
					Inputs: []workload.InputBlock{{Machine: -1, SizeMB: 500}},
				})
			}
			j.Stages = []*workload.Stage{st}
			wl.Jobs = append(wl.Jobs, j)
		}
		return wl
	}
	ingest := []sim.Activity{{
		Machine: 0, Start: 300, End: 700,
		Usage: resources.Vector{}.With(resources.DiskWrite, 90).With(resources.DiskRead, 90),
	}}
	cl := func() *cluster.Cluster { return cluster.New(2, cluster.SmallProfile(), 0) }

	fmt.Fprintf(w, "Figure 6: ingestion on machine 0 during [300,700)s\n")
	fmt.Fprintf(w, "(paper: Tetris schedules no more tasks on the ingesting machine; CS proceeds\n unaware and the contention slows both tasks and ingestion)\n\n")
	for _, s := range []struct {
		name string
		sch  scheduler.Scheduler
	}{
		{"tetris", tetrisWith(func(c *scheduler.TetrisConfig) { c.HotspotThreshold = 0.8 })},
		{"slot-fair (CS)", scheduler.NewSlotFair()},
	} {
		res, err := runOne(sim.Config{
			Cluster: cl(), Workload: mk(), Scheduler: s.sch,
			Activities: ingest, SampleEvery: 25, MaxTime: 1e5, RecordTasks: true,
		})
		if err != nil {
			return err
		}
		// Placements on the ingesting machine, and task durations during
		// the window vs overall.
		onHot := 0
		var during []float64
		for _, tr := range res.Tasks {
			if tr.Start >= 300 && tr.Start < 700 {
				during = append(during, tr.Finish-tr.Start)
				if tr.Machine == 0 {
					onHot++
				}
			}
		}
		fmt.Fprintf(w, "%-14s placed on ingesting machine during window: %3d   mean task duration in window %5.1fs (overall %4.1fs)\n",
			s.name, onHot, stats.Mean(during), res.MeanTaskDuration())
	}
	fmt.Fprintf(w, "\n(Tetris places nothing on the hot machine; CS's tasks there contend with the ingestion)\n")
	return nil
}

// runTable7 measures RM heartbeat processing cost with different numbers
// of pending tasks, for the default (slot-fair, standing in for stock
// YARN) and Tetris matching logic.
func runTable7(p Params, w io.Writer) error {
	p = p.WithDefaults()
	machines := p.scaled(100)
	fmt.Fprintf(w, "Table 7: mean time to process heartbeats at the RM (%d machines)\n", machines)
	fmt.Fprintf(w, "(paper: Tetris ≈ stock YARN; sub-millisecond heartbeats)\n\n")
	fmt.Fprintf(w, "%-12s %14s %16s %16s\n", "scheduler", "pending tasks", "NM heartbeat", "AM heartbeat")
	for _, s := range []struct {
		name string
		mk   func() scheduler.Scheduler
	}{
		{"slot-fair", func() scheduler.Scheduler { return scheduler.NewSlotFair() }},
		{"tetris", func() scheduler.Scheduler { return newTetris() }},
	} {
		for _, pending := range []int{p.scaled(10000), p.scaled(50000)} {
			nmMean, amMean, err := measureHeartbeats(s.mk, machines, pending)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %14d %13.1fµs %13.1fµs\n", s.name, pending,
				nmMean*1e6, amMean*1e6)
		}
	}
	return nil
}

// measureHeartbeats builds an in-process RM with the given pending-task
// backlog and measures handler latencies.
func measureHeartbeats(mk func() scheduler.Scheduler, machines, pendingTasks int) (nmMean, amMean float64, err error) {
	srv, err := rm.NewShardedInProcess(rm.ShardedConfig{Shards: 1, NewScheduler: mk, NewEstimator: estimator.New})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	capVec := cluster.DeploymentProfile()
	for i := 0; i < machines; i++ {
		srv.RegisterMachine(i, capVec)
	}
	// A handful of jobs holding the pending backlog.
	perJob := pendingTasks / 10
	for jid := 0; jid < 10; jid++ {
		j := &workload.Job{ID: jid, Weight: 1}
		st := &workload.Stage{Name: "s"}
		for i := 0; i < perJob; i++ {
			st.Tasks = append(st.Tasks, &workload.Task{
				ID:   workload.TaskID{Job: jid, Stage: 0, Index: i},
				Peak: resources.New(2, 4, 20, 10, 50, 10),
				Work: workload.Work{CPUSeconds: 60},
			})
		}
		j.Stages = []*workload.Stage{st}
		if err := srv.SubmitJob(j); err != nil {
			return 0, 0, err
		}
	}
	// Warm up (first heartbeats fill the cluster), then measure steady
	// state: every machine heartbeats, plus AM polls.
	for round := 0; round < 3; round++ {
		for m := 0; m < machines; m++ {
			srv.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: m})
		}
	}
	for jid := 0; jid < 10; jid++ {
		srv.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: jid})
	}
	nmMean, _, amMean, _ = srv.HeartbeatStats()
	return nmMean, amMean, nil
}
