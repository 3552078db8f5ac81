package main

import (
	"fmt"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// nodeClock is the node managers' side of the protocol on a virtual
// clock, standing in for internal/nm and internal/hollow (which pace
// themselves with wall-clock sleeps): one sweep over the nodes is one
// virtual second, and a launch received in sweep r whose duration is d
// reports its completion in sweep r + clamp(round(d/div), 1, maxDur).
// It also keeps the books the correctness gate reads. One goroutine owns
// one nodeClock.
type nodeClock struct {
	div    float64
	maxDur int // 0: no cap

	due       map[int]map[int][]wire.TaskCompletion // sweep → node → completions
	launched  map[workload.TaskID]int
	completed map[workload.TaskID]int
	jobDone   map[int]int // job → completions delivered
	jobLast   map[int]int // job → sweep of its latest completion

	launches, completions int
}

func newNodeClock(div float64, maxDur int) *nodeClock {
	return &nodeClock{
		div: div, maxDur: maxDur,
		due:       make(map[int]map[int][]wire.TaskCompletion),
		launched:  make(map[workload.TaskID]int),
		completed: make(map[workload.TaskID]int),
		jobDone:   make(map[int]int),
		jobLast:   make(map[int]int),
	}
}

// take returns the completions node reports in sweep and books them.
func (n *nodeClock) take(sweep, node int) []wire.TaskCompletion {
	m := n.due[sweep]
	if m == nil {
		return nil
	}
	done := m[node]
	for _, c := range done {
		n.completed[c.Task]++
		n.jobDone[c.Task.Job]++
		n.jobLast[c.Task.Job] = sweep
	}
	n.completions += len(done)
	return done
}

// absorb schedules the completions of the launches node received in sweep.
func (n *nodeClock) absorb(sweep, node int, launch []wire.TaskLaunch) {
	for _, l := range launch {
		d := int(l.Duration/n.div + 0.5)
		if d < 1 {
			d = 1
		}
		if n.maxDur > 0 && d > n.maxDur {
			d = n.maxDur
		}
		r := sweep + d
		if n.due[r] == nil {
			n.due[r] = make(map[int][]wire.TaskCompletion)
		}
		n.due[r][node] = append(n.due[r][node], wire.TaskCompletion{
			Task: l.Task, Usage: l.Demand, Duration: float64(d)})
		n.launched[l.Task]++
	}
	n.launches += len(launch)
}

// forget drops a finished sweep's due lists.
func (n *nodeClock) forget(sweep int) { delete(n.due, sweep) }

// checkJobs is the exactly-once gate: every task of every job was
// launched once and completed once. It returns each job's finish sweep.
// Several clocks (one per fleet connection) are checked together.
func checkJobs(ep *episode, jobs []*workload.Job, clocks ...*nodeClock) map[int]float64 {
	finish := make(map[int]float64, len(jobs))
	for _, j := range jobs {
		last := 0
		for _, n := range clocks {
			if n.jobDone[j.ID] > 0 && n.jobLast[j.ID] > last {
				last = n.jobLast[j.ID]
			}
		}
		finish[j.ID] = float64(last)
		for _, st := range j.Stages {
			for _, t := range st.Tasks {
				ep.attempted++
				var l, c int
				for _, n := range clocks {
					l += n.launched[t.ID]
					c += n.completed[t.ID]
				}
				if l != 1 || c != 1 {
					ep.fail("task %v launched %d times, completed %d times", t.ID, l, c)
				}
			}
		}
	}
	return finish
}

// beatStats is what a driver keeps about the heartbeats it sent.
type beatStats struct {
	beats, errors int
	workNs        []float64 // beats that carried a completion or returned a launch
}

// sweepInProcess sends one heartbeat per node to g, in node order,
// delivering the completions due this sweep and booking the launches
// that come back. Each call is timed from outside.
func sweepInProcess(g *rm.Sharded, nodes, sweep int, clock *nodeClock, st *beatStats, tr *tracer, ep *episode) {
	tr.setOp(sweep)
	var hb wire.NMHeartbeat
	for node := 0; node < nodes; node++ {
		hb = wire.NMHeartbeat{NodeID: node, Completed: clock.take(sweep, node)}
		t0 := time.Now()
		sp := tr.begin("rm.nm_beat")
		reply := g.HandleNMHeartbeat(&hb)
		tr.end(sp)
		dt := time.Since(t0)
		st.beats++
		ep.attempted++
		if reply.Type == wire.TypeError {
			st.errors++
			ep.fail("sweep %d node %d: %s", sweep, node, reply.Error)
			continue
		}
		if len(hb.Completed) > 0 || len(reply.NMReply.Launch) > 0 {
			st.workNs = append(st.workNs, float64(dt))
		}
		clock.absorb(sweep, node, reply.NMReply.Launch)
	}
	clock.forget(sweep)
}

// registerInProcess registers nodes 0..n-1 with the reference machine.
func registerInProcess(g *rm.Sharded, n int, capacity resources.Vector, tr *tracer) {
	sp := tr.begin("rm.register")
	for id := 0; id < n; id++ {
		g.RegisterMachine(id, capacity)
	}
	tr.end(sp)
}

// checkRM is the RM-side gate shared by the three RM workloads: the
// ledgers balance and the RM itself reports every job finished with all
// its tasks done.
func checkRM(ep *episode, g *rm.Sharded, jobs []*workload.Job, tr *tracer) {
	sp := tr.begin("rm.verify_ledger")
	err := g.VerifyLedger()
	tr.end(sp)
	ep.attempted++
	if err != nil {
		ep.fail("VerifyLedger: %v", err)
	}
	for _, j := range jobs {
		ep.attempted++
		r := g.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: j.ID})
		switch {
		case r.Type != wire.TypeAMReply:
			ep.fail("job %d: %s", j.ID, r.Error)
		case !r.AMReply.Finished || r.AMReply.Done != j.NumTasks():
			ep.fail("job %d: RM reports %d/%d tasks done, finished=%v", j.ID, r.AMReply.Done, r.AMReply.Total, r.AMReply.Finished)
		}
	}
}

// qualityOf turns finish sweeps into makespan and mean completion time,
// given each job's arrival sweep.
func qualityOf(finish map[int]float64, arrival func(job int) float64) (makespan, meanJCT float64) {
	for id, f := range finish {
		if f > makespan {
			makespan = f
		}
		meanJCT += f - arrival(id)
	}
	return makespan, meanJCT / float64(len(finish))
}

// stallGuard notices a loop that can never finish: several sweeps in a
// row in which nothing was launched or completed while nothing was in
// flight, so the RM will not place what is left.
type stallGuard struct{ progress, idle int }

func (g *stallGuard) stalled(clocks ...*nodeClock) bool {
	progress, inFlight := 0, 0
	for _, n := range clocks {
		progress += n.launches + n.completions
		inFlight += n.launches - n.completions
	}
	if progress != g.progress || inFlight > 0 {
		g.progress, g.idle = progress, 0
		return false
	}
	g.idle++
	return g.idle > 3
}

func errStalled(sweep, done, total int) error {
	return fmt.Errorf("no progress: %d of %d tasks complete after %d sweeps", done, total, sweep)
}
