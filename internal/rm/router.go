package rm

// Shard routing: the top layer of the RM (see sharded.go)
// assigns every admitted job to exactly one shard, and the shard's core
// then places the job's tasks on its own machines with the ordinary
// scheduler. Routing reuses the paper's alignment heuristic one level
// up: a job's demand vector is scored against each shard's aggregate
// free vector, normalized by the shard's aggregate capacity, so a job
// lands on the shard whose spare resources best complement its shape
// (§3.2 applied at shard granularity).
//
// The router is deterministic: given the same demand and the same shard
// views it always picks the same shard. Ties break toward the shard
// with fewer active jobs, then toward the lowest shard index, which
// degrades to round-robin-by-load on an empty cluster where every
// aggregate free vector looks alike.

import (
	"fmt"
	"math"
	"slices"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/workload"
)

// ShardView is one shard's routing summary: the aggregate placement
// headroom of its live machines plus the capacity shapes needed for
// feasibility checks.
type ShardView struct {
	// Free is the sum of FreePacking over live machines.
	Free resources.Vector
	// Capacity is the sum of Capacity over live machines.
	Capacity resources.Vector
	// MachineCaps holds the distinct capacities of the live machines
	// (a deployment fleet has a handful). Routing only asks "does some
	// machine fit the demand", which neither order nor multiplicity
	// changes. Read-only: a shard's summaries share it.
	MachineCaps []resources.Vector
	// ActiveJobs counts unfinished jobs assigned to the shard.
	ActiveJobs int
	// PendingWork is the shard's outstanding work volume: over
	// unfinished jobs, remaining tasks × the job's mean task volume
	// (peak·duration). Normalized by Capacity.Sum() it approximates the
	// shard's drain time, which is what a newly routed job will wait
	// behind.
	PendingWork float64
}

// routeCache is a shard's routing summary, cached in two halves so an
// unchanged shard answers every submission with an O(1) read. The
// machine half (Free, Capacity, MachineCaps) is rebuilt at most once per
// node-ledger change, the job half (ActiveJobs, PendingWork) at most once
// per job-table change; the writers that make those changes — ledger.go's
// and view.go's, a completion, a full report that moves Reported — are
// the only ones that clear the fresh flags (nodesChanged, jobsChanged).
// A rebuild sums in ID order, exactly as a summary built from scratch
// does, so cached and fresh values agree to the bit; VerifyLedger checks
// that they do.
type routeCache struct {
	view                  ShardView
	nodesFresh, jobsFresh bool
	seen                  map[resources.Vector]struct{} // shape dedup scratch (addShape)
}

// nodesChanged marks the machine half of the routing summary stale: a
// machine's capacity, allocation, report or liveness moved. Caller holds
// s.mu.
func (s *Server) nodesChanged() { s.route.nodesFresh = false }

// jobsChanged marks the job half stale: a job arrived, finished or
// completed a task. Caller holds s.mu.
func (s *Server) jobsChanged() { s.route.jobsFresh = false }

// RoutingSummary returns the shard's routing summary from its live
// machines and unfinished jobs. Down machines contribute nothing: a
// shard that lost every node reports an empty view and attracts no new
// jobs until nodes return.
//
// Both halves are summed in ID order over the maintained view (view.go),
// so two summaries of an unchanged shard are bit-identical — float sums
// in map order were not, and a near-tie could route differently on a
// rerun. A sibling shard's placeholder slot is Down and drops out like
// any dead machine.
func (s *Server) RoutingSummary() ShardView {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &s.route
	if !c.nodesFresh {
		c.view.Free, c.view.Capacity, c.view.MachineCaps = s.machineSummary(c.seen)
		c.nodesFresh = true
	}
	if !c.jobsFresh {
		c.view.ActiveJobs, c.view.PendingWork = s.jobSummary()
		c.jobsFresh = true
	}
	return c.view
}

// machineSummary sums the live machines in ID order and lists their
// distinct capacities in order of first appearance, in a new slice (a
// published one is never written again), sized for as many as the last
// summary had. Caller holds s.mu.
func (s *Server) machineSummary(seen map[resources.Vector]struct{}) (free, capacity resources.Vector, shapes []resources.Vector) {
	clear(seen)
	shapes = make([]resources.Vector, 0, max(len(s.route.view.MachineCaps), 1))
	for _, m := range s.view.Machines {
		if m.Down {
			continue
		}
		free = free.Add(m.FreePacking())
		capacity = capacity.Add(m.Capacity)
		shapes = addShape(shapes, seen, m.Capacity)
	}
	return free, capacity, shapes
}

// fewShapes is how many distinct shapes addShape scans linearly before it
// indexes them in its set: a scan of a handful is cheaper than hashing
// six floats per machine.
const fewShapes = 8

// addShape appends c to shapes unless it is there already. While shapes
// are few it scans them; past fewShapes it keeps them in seen as well.
func addShape(shapes []resources.Vector, seen map[resources.Vector]struct{}, c resources.Vector) []resources.Vector {
	if len(shapes) > fewShapes {
		if _, ok := seen[c]; ok {
			return shapes
		}
		seen[c] = struct{}{}
		return append(shapes, c)
	}
	for i := range shapes {
		if shapes[i] == c {
			return shapes
		}
	}
	if shapes = append(shapes, c); len(shapes) > fewShapes {
		for _, v := range shapes {
			seen[v] = struct{}{}
		}
	}
	return shapes
}

// jobSummary counts the unfinished jobs and sums their pending work in
// ID order. Caller holds s.mu.
func (s *Server) jobSummary() (active int, pending float64) {
	for _, ji := range s.active {
		pending += float64(ji.state.Status.RemainingTasks()) * ji.meanVolume
	}
	return len(s.active), pending
}

// verifyRoute is VerifyLedger's check of the cached routing summary: a
// half the cache holds as fresh must equal, bit for bit, a rebuild from
// the node and job tables — a writer that forgot to mark it stale shows
// here. The rebuild then becomes the cache, so the next check covers
// whatever changes in between. Caller holds s.mu.
func (s *Server) verifyRoute() error {
	c := &s.route
	free, capacity, shapes := s.machineSummary(c.seen)
	active, pending := s.jobSummary()
	if c.nodesFresh && (!c.view.Free.SameBits(free) || !c.view.Capacity.SameBits(capacity) ||
		!slices.EqualFunc(c.view.MachineCaps, shapes, resources.Vector.SameBits)) {
		return fmt.Errorf("routing summary drift: cached free %v capacity %v shapes %v, rebuild gives %v, %v, %v",
			c.view.Free, c.view.Capacity, c.view.MachineCaps, free, capacity, shapes)
	}
	if c.jobsFresh && (c.view.ActiveJobs != active || math.Float64bits(c.view.PendingWork) != math.Float64bits(pending)) {
		return fmt.Errorf("routing summary drift: cached %d active jobs, pending work %v, rebuild gives %d, %v",
			c.view.ActiveJobs, c.view.PendingWork, active, pending)
	}
	c.view = ShardView{Free: free, Capacity: capacity, MachineCaps: shapes, ActiveJobs: active, PendingWork: pending}
	c.nodesFresh, c.jobsFresh = true, true
	return nil
}

// meanTaskVolume is a job's average per-task work volume, peak demand
// times nominal duration summed over dimensions.
func meanTaskVolume(j *workload.Job) float64 {
	sum, n := 0.0, 0
	for _, st := range j.Stages {
		for i := range st.Tasks {
			t := st.Tasks[i]
			sum += t.Peak.Sum() * t.PeakDuration()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// jobRoutingDemand condenses a job into the two vectors the router
// scores with: the mean task peak (the job's shape, used for alignment)
// and the component-wise max task peak (its worst single task, used for
// feasibility).
func jobRoutingDemand(j *workload.Job) (mean, max resources.Vector) {
	n := 0
	for _, st := range j.Stages {
		for i := range st.Tasks {
			p := st.Tasks[i].Peak
			mean = mean.Add(p)
			max = max.Max(p)
			n++
		}
	}
	if n > 0 {
		mean = mean.Scale(1 / float64(n))
	}
	return mean, max
}

// gangRoutingDemand returns the aggregate local demand of a gang's
// quorum — the capacity one shard must eventually co-hold, since a
// gang pins to exactly one shard and commits all-or-nothing there.
// Zero for non-gang jobs. Members are counted in declaration order,
// matching the coordinator's first-fit service order.
func gangRoutingDemand(j *workload.Job) resources.Vector {
	var sum resources.Vector
	if !j.Gang {
		return sum
	}
	n := 0
	for _, st := range j.Stages {
		for i := range st.Tasks {
			if n >= j.GangQuorum() {
				return sum
			}
			sum = sum.Add(scheduler.LocalDemand(st.Tasks[i].Peak))
			n++
		}
	}
	return sum
}

// RouteJob picks the shard for one job and reports whether the choice
// was feasibility-driven. Non-gang jobs route exactly as RouteDemand;
// gang jobs additionally reject shards whose aggregate live capacity
// can never co-hold the whole quorum — routing such a gang there would
// strand it hoarding forever, since gangs cannot span shards.
func RouteJob(j *workload.Job, views []ShardView) (shard int, feasible bool) {
	mean, max := jobRoutingDemand(j)
	gangSum := gangRoutingDemand(j)
	if gangSum.IsZero() {
		return RouteDemand(mean, max, views), anyFeasible(max, views)
	}
	best := pickShard(mean, views, func(v ShardView) bool {
		return shardFeasible(max, v) && gangSum.FitsIn(v.Capacity)
	})
	if best >= 0 {
		return best, true
	}
	// No shard can co-hold the quorum today. Fall back to the plain
	// demand routing: the shard core holds the gang pending (hoarding
	// is gated by the same aggregate check) until machines register.
	return RouteDemand(mean, max, views), false
}

// anyFeasible reports whether any shard passes the per-task
// feasibility check.
func anyFeasible(max resources.Vector, views []ShardView) bool {
	for _, v := range views {
		if shardFeasible(max, v) {
			return true
		}
	}
	return false
}

// shardFeasible reports whether some machine in the view could ever run
// a task with the given max peak demand, comparing the best-case local
// demand against full machine capacity (ignoring current allocation:
// routing is a placement-possibility check, not an admission gate —
// currently-busy machines free up, too-small machines never do).
func shardFeasible(max resources.Vector, v ShardView) bool {
	need := scheduler.LocalDemand(max)
	for _, mc := range v.MachineCaps {
		if need.FitsIn(mc) {
			return true
		}
	}
	return false
}

// RouteDemand picks the shard for a job with the given mean and max
// task-peak demands. Among shards where the job is feasible it
// maximizes the alignment of the mean demand with the shard's aggregate
// free vector; ties break toward fewer active jobs, then the lowest
// index. If no shard is feasible it falls back to the same scoring over
// shards with any live machine, and if the whole fleet is empty it
// returns 0. The result depends only on the arguments — same inputs,
// same shard — which the fuzz suite pins down.
func RouteDemand(mean, max resources.Vector, views []ShardView) int {
	if len(views) == 0 {
		return 0
	}
	best := pickShard(mean, views, func(v ShardView) bool { return shardFeasible(max, v) })
	if best >= 0 {
		return best
	}
	// No shard can fit the job's largest task even on an idle machine.
	// Route it somewhere with capacity anyway: the shard core will hold
	// it pending, mirroring the unsharded RM's behavior for oversized
	// jobs, and machines may yet register.
	best = pickShard(mean, views, func(v ShardView) bool { return len(v.MachineCaps) > 0 })
	if best >= 0 {
		return best
	}
	// Whole fleet empty — jobs racing ahead of node registration at
	// startup. Every score is zero, so this degrades to least-loaded
	// round-robin instead of pinning the entire burst to shard 0.
	return pickShard(mean, views, func(ShardView) bool { return true })
}

// pickShard returns the eligible shard maximizing the routing score,
// breaking ties by (fewer active jobs, lower index); -1 if none is
// eligible.
//
// The score is alignment minus normalized backlog. On an idle fleet the
// backlog term vanishes and routing is pure shard-level alignment; once
// shards saturate every aggregate free vector flattens toward zero and
// the backlog term — outstanding work per unit of shard capacity, i.e.
// an estimated drain time — takes over, spreading queued work so one
// shard cannot accumulate the whole tail while others idle (the failure
// mode the quality harness measures).
func pickShard(mean resources.Vector, views []ShardView, eligible func(ShardView) bool) int {
	best, bestScore := -1, 0.0
	for i, v := range views {
		if !eligible(v) {
			continue
		}
		score := 0.0
		if !v.Capacity.IsZero() {
			score = resources.AlignmentScore(mean, v.Free, v.Capacity)
			score -= v.PendingWork / v.Capacity.Sum()
		}
		// Strict > keeps the first (lowest-index) shard on exact ties.
		if best < 0 || score > bestScore ||
			(score == bestScore && v.ActiveJobs < views[best].ActiveJobs) {
			best, bestScore = i, score
		}
	}
	return best
}
