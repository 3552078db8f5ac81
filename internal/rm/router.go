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
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// ShardView is one shard's routing summary: the aggregate placement
// headroom of its live machines plus the per-machine capacities needed
// for feasibility checks.
type ShardView struct {
	// Free is the sum of FreePacking over live machines.
	Free resources.Vector
	// Capacity is the sum of Capacity over live machines.
	Capacity resources.Vector
	// MachineCaps holds each live machine's capacity. Routing only asks
	// "does some machine fit the demand", which is order-independent,
	// so the slice may be in any order.
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

// RoutingSummary builds the server's shard view from its live machines
// and unfinished jobs. Down machines contribute nothing: a shard that
// lost every node reports an empty view and attracts no new jobs until
// nodes return.
//
// Both walks are in ID order over the maintained view (view.go), so two
// summaries of an unchanged shard are bit-identical — float sums in map
// order were not, and a near-tie could route differently on a rerun. A
// sibling shard's placeholder slot is Down and drops out like any dead
// machine.
func (s *Server) RoutingSummary() ShardView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := ShardView{ActiveJobs: len(s.active), MachineCaps: make([]resources.Vector, 0, s.countNodes(nil))}
	for _, m := range s.view.Machines {
		if m.Down {
			continue
		}
		v.Free = v.Free.Add(m.FreePacking())
		v.Capacity = v.Capacity.Add(m.Capacity)
		v.MachineCaps = append(v.MachineCaps, m.Capacity)
	}
	for _, ji := range s.active {
		v.PendingWork += float64(ji.state.Status.RemainingTasks()) * ji.meanVolume
	}
	return v
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

// localDemand strips the network components of a peak demand. Network
// in/out are only exercised when placement makes an input read remote,
// so the best-case (fully local) placement needs none — feasibility
// must not reject a shard for bandwidth the job may never use.
func localDemand(peak resources.Vector) resources.Vector {
	return peak.With(resources.NetIn, 0).With(resources.NetOut, 0)
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
			sum = sum.Add(localDemand(st.Tasks[i].Peak))
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
	need := localDemand(max)
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
