package experiments

import (
	"fmt"
	"io"
	"sort"

	"github.com/tetris-sched/tetris/internal/bound"
	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/sim"
	"github.com/tetris-sched/tetris/internal/stats"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

func init() {
	register(Experiment{ID: "fig1", Paper: "Figure 1", Desc: "DRF vs packing on the worked 3-job example", Run: runFig1})
	register(Experiment{ID: "fig2", Paper: "Figure 2", Desc: "heatmap of task resource demands", Run: runFig2})
	register(Experiment{ID: "table2", Paper: "Table 2", Desc: "correlation matrix of task demands", Run: runTable2})
	register(Experiment{ID: "table3", Paper: "Table 3", Desc: "tightness of resources under the production scheduler", Run: runTable3})
	register(Experiment{ID: "upper", Paper: "§2.2.3", Desc: "upper bound on potential packing gains", Run: runUpper})
}

// fig1Cluster builds the Figure-1 cluster: one compute machine with
// 18 cores / 36 GB / 3 Gbps in, plus a storage-only node serving the
// reducers' shuffle input.
func fig1Cluster() *cluster.Cluster {
	cl := cluster.New(2, resources.Vector{}, 0)
	cl.Machines[0].Capacity = resources.New(18, 36, 1000, 1000, 3000, 100)
	cl.Machines[1].Capacity = resources.New(0, 0, 10000, 0, 0, 10000)
	return cl
}

func runFig1(_ Params, w io.Writer) error {
	const t = 10.0 // seconds per "t"
	fmt.Fprintf(w, "Figure 1: 3 jobs (A: 18 maps ⟨1c,2GB⟩, B: 6 maps ⟨3c,1GB⟩, C: 2 maps ⟨3c,1GB⟩; 3 reducers ⟨1 Gbps⟩ each)\n")
	fmt.Fprintf(w, "cluster: 18 cores, 36 GB, 3 Gbps; every task runs %gs (= t)\n\n", t)
	fmt.Fprintf(w, "%-16s %8s %8s %8s %10s %8s\n", "scheduler", "A", "B", "C", "makespan", "avg JCT")

	type row struct {
		name string
		sch  scheduler.Scheduler
	}
	rows := []row{
		{"drf(cpu,mem,net)", scheduler.NewDRFWithNetwork()},
		{"drf(cpu,mem)", scheduler.NewDRF()},
		{"slot-fair", scheduler.NewSlotFair()},
		{"tetris", newTetris()},
	}
	results := map[string]*sim.Result{}
	for _, r := range rows {
		res, err := runOne(sim.Config{
			Cluster:   fig1Cluster(),
			Workload:  trace.Fig1Workload(t),
			Scheduler: r.sch,
			MaxTime:   1e5,
		})
		if err != nil {
			return fmt.Errorf("fig1 %s: %w", r.name, err)
		}
		results[r.name] = res
		var finishes [3]float64
		for id, jr := range res.Jobs {
			finishes[id] = jr.Finish / t
		}
		fmt.Fprintf(w, "%-16s %7.2ft %7.2ft %7.2ft %9.2ft %7.2ft\n",
			r.name, finishes[0], finishes[1], finishes[2],
			res.Makespan/t, res.AvgJCT()/t)
	}
	drf := results["drf(cpu,mem,net)"]
	tet := results["tetris"]
	fmt.Fprintf(w, "\npaper shape: DRF finishes all jobs at 6t; packing reaches 4t makespan and 3t avg JCT\n")
	fmt.Fprintf(w, "measured:    makespan %.2ft → %.2ft (%.0f%%), avg JCT %.2ft → %.2ft (%.0f%%)\n",
		drf.Makespan/t, tet.Makespan/t, sim.Improvement(drf.Makespan, tet.Makespan),
		drf.AvgJCT()/t, tet.AvgJCT()/t, sim.Improvement(drf.AvgJCT(), tet.AvgJCT()))
	return nil
}

func runFig2(p Params, w io.Writer) error {
	p = p.WithDefaults()
	wl := trace.GenerateSuite(trace.Config{
		Seed:    p.Seed,
		NumJobs: p.scaled(300),
	})
	s := trace.Summarize(wl)
	fmt.Fprintf(w, "Figure 2: heatmaps of task peak demands (x: cores, log-intensity ASCII)\n")
	fmt.Fprintf(w, "%s\n", s)
	for _, k := range []resources.Kind{resources.Memory, resources.DiskRead, resources.NetIn} {
		h := trace.Heatmap(wl, k, 40)
		fmt.Fprintf(w, "--- %v vs cores (%d tasks) ---\n%s\n", k, h.Total(), h.Render())
	}
	return nil
}

func runTable2(p Params, w io.Writer) error {
	p = p.WithDefaults()
	wl := trace.GenerateSuite(trace.Config{Seed: p.Seed, NumJobs: p.scaled(300)})
	s := trace.Summarize(wl)
	fmt.Fprintf(w, "Table 2: correlation matrix of task resource demands\n")
	fmt.Fprintf(w, "(paper: all pairwise correlations small; max 0.45 cores↔memory)\n\n%s", s.CorrelationTable())
	return nil
}

func runTable3(p Params, w io.Writer) error {
	p = p.WithDefaults()
	machines := p.scaled(60)
	wl := trace.GenerateSuite(trace.Config{
		Seed:           p.Seed,
		NumJobs:        p.scaled(60),
		NumMachines:    machines,
		ArrivalSpanSec: 2000,
	})
	// The production cluster runs a slot-based fair scheduler (§2.2.1).
	res, err := runOne(sim.Config{
		Cluster:     cluster.NewFacebook(machines),
		Workload:    wl,
		Scheduler:   scheduler.NewSlotFair(),
		SampleEvery: 20,
		MaxTime:     1e6,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 3: probability a machine's resource usage exceeds a fraction of capacity\n")
	fmt.Fprintf(w, "(paper: several resources are tight, at different machines and times)\n\n")
	fmt.Fprintf(w, "%-10s %8s %8s %10s\n", "resource", ">50%", ">80%", ">100%dem")
	n := float64(res.MachineSamples)
	for _, k := range resources.Kinds() {
		hu := res.HighUse[k]
		fmt.Fprintf(w, "%-10v %8.3f %8.3f %10.3f\n", k,
			float64(hu.Over50)/n, float64(hu.Over80)/n, float64(hu.Over100)/n)
	}
	return nil
}

func runUpper(p Params, w io.Writer) error {
	p = p.WithDefaults()
	machines := p.scaled(60)
	r := runner{
		cl: cluster.NewFacebook(machines),
		wl: func() *workload.Workload {
			return trace.GenerateSuite(trace.Config{
				Seed: p.Seed, NumJobs: p.scaled(60), NumMachines: machines, ArrivalSpanSec: 1500,
			})
		},
	}
	fair, err := r.run(scheduler.NewSlotFair())
	if err != nil {
		return err
	}
	drf, err := r.run(scheduler.NewDRF())
	if err != nil {
		return err
	}
	ub, err := bound.Run(r.cl, r.wl())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "§2.2.3: simple upper bound on packing gains (aggregate bin, uniform stages, no over-allocation)\n")
	fmt.Fprintf(w, "(paper: makespan could drop ~49%% vs slot-fair and less vs DRF; avg JCT similarly; gains lopsided)\n\n")
	for _, row := range []struct {
		name string
		base *sim.Result
	}{{"vs slot-fair", fair}, {"vs drf", drf}} {
		fmt.Fprintf(w, "%-14s makespan %6.1f%%   avg JCT %6.1f%%\n", row.name,
			sim.Improvement(row.base.Makespan, ub.Makespan),
			sim.Improvement(row.base.AvgJCT(), ub.AvgJCT()))
	}
	// Lopsidedness: fraction of jobs that slow down under the bound.
	per := sim.PerJobImprovement(fair, ub)
	sort.Float64s(per)
	slowed := 0
	for _, v := range per {
		if v < 0 {
			slowed++
		}
	}
	fmt.Fprintf(w, "\njobs slowed by the bound vs slot-fair: %.0f%% (paper: gains are lopsided; ~20%% slow down)\n",
		100*float64(slowed)/float64(len(per)))
	fmt.Fprintf(w, "median job gain %.1f%%\n", stats.Median(per))
	return nil
}
