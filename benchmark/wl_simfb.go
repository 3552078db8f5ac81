package main

import (
	"time"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/sim"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

// simFBTrace generates sim-fb's input: the §5.3 Facebook-like trace,
// arranged from the seed.
func simFBTrace(seed, population int64, sz simFBSizes) *workload.Workload {
	wl := trace.GenerateFacebookLike(trace.Config{
		Seed:              population,
		NumJobs:           sz.Jobs,
		NumMachines:       sz.Machines,
		ArrivalSpanSec:    sz.ArrivalSpanSec,
		RecurringFraction: sz.Recurring,
	})
	arrange(wl, seed)
	return wl
}

// runSimFB is one episode of sim-fb: generate the trace, build the
// simulator (set-up), then time sim.Run. Its operation latency is a
// scheduling round that placed at least one task, timed at the
// Scheduler interface — the only boundary a driver can see inside Run.
func runSimFB(c *runCtx) (*episode, error) {
	sz := c.sz.SimFB
	ep := &episode{layer: newLayer()}

	setup := time.Now()
	sp := c.tr.begin("trace.generate")
	wl := simFBTrace(c.seed, c.sz.PopulationSeed, sz)
	c.tr.end(sp)
	sched := &timedScheduler{inner: newTetris(), tr: c.tr}
	sp = c.tr.begin("sim.new")
	s, err := sim.New(sim.Config{
		Cluster:     cluster.NewFacebook(sz.Machines),
		Workload:    wl,
		Scheduler:   sched,
		RecordTasks: true, // for the exactly-once check
	})
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	ep.setupS = time.Since(setup).Seconds()

	c.tr.markTimed()
	reg := beginRegion()
	sp = c.tr.begin("sim.run")
	res, err := s.Run()
	c.tr.end(sp)
	reg.end(ep)
	c.tr.markDone()
	if err != nil {
		return nil, err
	}

	// Correctness: every task ran to completion exactly once, every job
	// finished.
	seen := make(map[workload.TaskID]int, len(res.Tasks))
	for _, r := range res.Tasks {
		seen[r.Task]++
	}
	finish := make(map[int]float64, len(wl.Jobs))
	var jct float64
	for _, j := range wl.Jobs {
		ep.attempted += j.NumTasks()
		for _, st := range j.Stages {
			for _, t := range st.Tasks {
				if n := seen[t.ID]; n != 1 {
					ep.fail("task %v completed %d times", t.ID, n)
				}
			}
		}
		jr, ok := res.Jobs[j.ID]
		if !ok || jr.Failed {
			ep.fail("job %d did not finish", j.ID)
			continue
		}
		finish[j.ID] = jr.Finish
		jct += jr.JCT
	}
	ep.tasks = len(res.Tasks)
	ep.beats = sched.calls
	ep.opNs = sched.workNs
	ep.makespanVS = res.Makespan
	ep.meanJCTVS = jct / float64(len(wl.Jobs))
	ep.digest = finishDigest(finish)

	if c.tr != nil {
		schedulerLayer(ep.layer, []*timedScheduler{sched})
		spanLayers(ep, c.tr)
		ep.layer["sim.rounds"] = float64(sched.calls)
		estimatorProbe(ep.layer, wl)
	}
	return ep, nil
}
