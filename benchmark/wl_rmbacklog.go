package main

import (
	"time"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

// schedProbes hands an RM its per-shard policies: the plain policy in
// the untraced run (RM entry points are timed around the handler calls,
// not inside them), probed ones in the traced run.
type schedProbes struct {
	tr     *tracer
	probes []*timedScheduler
}

func (p *schedProbes) newScheduler() scheduler.Scheduler {
	if p.tr == nil {
		return newTetris()
	}
	s := &timedScheduler{inner: newTetris(), tr: p.tr}
	p.probes = append(p.probes, s)
	return s
}

// reset forgets the rounds seen during set-up.
func (p *schedProbes) reset() {
	for _, s := range p.probes {
		*s = timedScheduler{inner: s.inner, tr: s.tr}
	}
}

// runRMBacklog is one episode of rm-backlog: a 1-shard in-process RM
// over a small dense fleet, the whole §5.1 suite submitted up front, and
// heartbeat sweeps on a virtual clock until every task has finished. Its
// operation latency is a heartbeat that carried a completion or returned
// a launch.
func runRMBacklog(c *runCtx) (*episode, error) {
	sz := c.sz.RMBacklog
	ep := &episode{layer: newLayer()}

	setup := time.Now()
	sp := c.tr.begin("trace.generate")
	wl := trace.GenerateSuite(trace.Config{Seed: c.sz.PopulationSeed, NumJobs: sz.Jobs, NumMachines: sz.Nodes})
	thin(wl, sz.TaskFraction)
	// No input blocks, as in internal/rm's quality harness: with them
	// the policy's remote-read search makes the work done (allocation,
	// rounds) swing by a third on a relabelling of the machines, which
	// no bound could hold. sim-fb and fleet-sparse keep locality.
	for _, j := range wl.Jobs {
		for _, st := range j.Stages {
			for _, t := range st.Tasks {
				t.Inputs = nil
			}
		}
	}
	arrange(wl, c.seed)
	c.tr.end(sp)
	probes := &schedProbes{tr: c.tr}
	g, err := rm.NewShardedInProcess(rm.ShardedConfig{Shards: 1, NewScheduler: probes.newScheduler})
	if err != nil {
		return nil, err
	}
	defer g.Close()
	registerInProcess(g, sz.Nodes, cluster.FacebookProfile(), c.tr)
	routeProbe(ep.layer, g, wl.Jobs, c.tr)
	for _, j := range wl.Jobs {
		sp := c.tr.begin("rm.submit")
		err := g.SubmitJob(j)
		c.tr.end(sp)
		ep.attempted++
		if err != nil {
			ep.fail("submit job %d: %v", j.ID, err)
		}
	}
	clock := newNodeClock(sz.DurationDiv, 0)
	var warm, st beatStats
	sweepInProcess(g, sz.Nodes, 0, clock, &warm, c.tr, ep) // untimed warm-up sweep
	ep.setupS = time.Since(setup).Seconds()

	total := wl.NumTasks()
	probes.reset()
	c.tr.markTimed()
	reg := beginRegion()
	var guard stallGuard
	for sweep := 1; clock.completions < total; sweep++ {
		sweepInProcess(g, sz.Nodes, sweep, clock, &st, c.tr, ep)
		if guard.stalled(clock) {
			return nil, errStalled(sweep, clock.completions, total)
		}
	}
	reg.end(ep)
	c.tr.markDone()

	checkRM(ep, g, wl.Jobs, c.tr)
	finish := checkJobs(ep, wl.Jobs, clock)
	ep.tasks = clock.completions
	ep.beats = st.beats
	ep.opNs = st.workNs
	ep.makespanVS, ep.meanJCTVS = qualityOf(finish, func(int) float64 { return 0 })
	ep.digest = finishDigest(finish)

	if c.tr != nil {
		schedulerLayer(ep.layer, probes.probes)
		spanLayers(ep, c.tr)
		beatLayer(ep.layer, &st, clock)
		ep.layer["rm.submit.jobs"] = float64(len(wl.Jobs))
	}
	return ep, nil
}

// beatLayer fills the heartbeat counts a driver keeps itself.
func beatLayer(layer map[string]float64, st *beatStats, clocks ...*nodeClock) {
	p99, _ := percentile(sortedCopy(st.workNs), 0.99)
	layer["rm.nm_beat.work_p99_us"] = p99 / 1e3
	layer["rm.nm_beat.errors"] = float64(st.errors)
	for _, n := range clocks {
		layer["rm.nm_beat.launches"] += float64(n.launches)
		layer["rm.nm_beat.completions"] += float64(n.completions)
	}
}

// routeProbe times the shard router alone: rm.RouteJob over the
// workload's jobs against the shards' current routing summaries,
// submitting nothing.
func routeProbe(layer map[string]float64, g *rm.Sharded, jobs []*workload.Job, tr *tracer) {
	if tr == nil {
		return
	}
	views := make([]rm.ShardView, g.NumShards())
	for i := range views {
		views[i] = g.Shard(i).RoutingSummary()
	}
	infeasible := 0
	t0 := time.Now()
	for _, j := range jobs {
		if _, ok := rm.RouteJob(j, views); !ok {
			infeasible++
		}
	}
	layer["rm.route.ns_per_job"] = float64(time.Since(t0)) / float64(len(jobs))
	layer["rm.route.infeasible_frac"] = float64(infeasible) / float64(len(jobs))
}
