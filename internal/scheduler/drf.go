package scheduler

import (
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// DRF implements Dominant Resource Fairness (Ghodsi et al., NSDI'11) as
// deployed with YARN: progressive filling that repeatedly offers
// resources to the job whose dominant-resource share is smallest. The
// production implementation considers only CPU and memory (§5.1); disk
// and network are neither checked nor charged, so DRF can over-allocate
// them — one of the two pathologies Tetris removes.
type DRF struct {
	// Kinds are the resource dimensions DRF allocates. Default (via
	// NewDRF): CPU and memory.
	Kinds []resources.Kind

	scratch drfScratch
}

// drfScratch is the per-round working state, reused across Schedule
// calls so a steady-state round allocates only the returned assignments.
type drfScratch struct {
	jobs  []*JobState
	free  []resources.Vector
	down  []bool
	share []float64          // current dominant share, by job position
	alloc []resources.Vector // projected allocation, by job position
	fetch []pendingFetcher
	live  []int // positions of the jobs still in the round, in no order
}

// less orders the jobs: smallest dominant share first, ties by ascending
// job ID. The order is strict, so the job it puts first does not depend
// on the order of live.
func (sc *drfScratch) less(a, b int) bool {
	if sc.share[a] != sc.share[b] {
		return sc.share[a] < sc.share[b]
	}
	return sc.jobs[a].Job.ID < sc.jobs[b].Job.ID
}

// NewDRF returns a DRF scheduler over CPU and memory.
func NewDRF() *DRF {
	return &DRF{Kinds: []resources.Kind{resources.CPU, resources.Memory}}
}

// NewDRFWithNetwork returns the extended DRF of the paper's Figure 1
// discussion, which also allocates network bandwidth.
func NewDRFWithNetwork() *DRF {
	return &DRF{Kinds: []resources.Kind{resources.CPU, resources.Memory, resources.NetIn, resources.NetOut}}
}

// Name implements Scheduler.
func (d *DRF) Name() string { return "drf" }

// project zeroes every dimension not allocated by this DRF instance.
func (d *DRF) project(v resources.Vector) resources.Vector {
	var out resources.Vector
	for _, k := range d.Kinds {
		out = out.With(k, v.Get(k))
	}
	return out
}

// Schedule implements Scheduler via progressive filling: while any job's
// next task fits somewhere, give the job with the smallest dominant share
// its next task. Each placement scans the jobs still in the round.
func (d *DRF) Schedule(v *View) []Assignment {
	sc := &d.scratch
	sc.jobs = sc.jobs[:0]
	for _, j := range v.Jobs {
		if j.Status.HasRunnable() {
			sc.jobs = append(sc.jobs, j)
		}
	}
	jobs := sc.jobs
	if len(jobs) == 0 {
		return nil
	}
	if cap(sc.free) < len(v.Machines) {
		sc.free = make([]resources.Vector, len(v.Machines))
		sc.down = make([]bool, len(v.Machines))
	}
	sc.free = sc.free[:len(v.Machines)]
	sc.down = sc.down[:len(v.Machines)]
	for i, m := range v.Machines {
		sc.free[i] = d.project(m.FreeAllocated())
		sc.down[i] = m.Down
	}
	if cap(sc.share) < len(jobs) {
		sc.share = make([]float64, len(jobs))
		sc.alloc = make([]resources.Vector, len(jobs))
		sc.fetch = make([]pendingFetcher, len(jobs))
	}
	sc.share = sc.share[:len(jobs)]
	sc.alloc = sc.alloc[:len(jobs)]
	sc.fetch = sc.fetch[:len(jobs)]
	sc.live = sc.live[:0]
	for p, j := range jobs {
		sc.alloc[p] = d.project(j.Alloc)
		sc.share[p] = kindShare(j.Alloc, v.Total, d.Kinds)
		sc.fetch[p].reset(j)
		sc.live = append(sc.live, p)
	}
	var out []Assignment

	for len(sc.live) > 0 {
		// Jobs out of runnable tasks, or blocked (nothing fits), stay
		// that way for the rest of the round: drop them for good.
		i := first(sc.live, sc.less)
		p := sc.live[i]
		pick := jobs[p]
		task := sc.fetch[p].Peek()
		if task == nil {
			sc.live = swapRemove(sc.live, i)
			continue
		}
		peak, _ := v.Demand(pick, task)
		demand := d.project(peak)
		mid := d.pickMachine(task, demand, sc.free, sc.down)
		if mid < 0 {
			sc.live = swapRemove(sc.live, i) // blocked
			continue
		}
		sc.fetch[p].Consume()
		sc.free[mid] = sc.free[mid].Sub(demand).Max(resources.Vector{})
		sc.alloc[p] = sc.alloc[p].Add(demand)
		sc.share[p] = kindShare(sc.alloc[p], v.Total, d.Kinds)
		out = append(out, Assignment{Task: task, Machine: mid, Local: demand})
	}
	return out
}

// pickMachine prefers a machine holding task input, else the machine with
// the most total free resources, provided the demand fits and the
// machine is up.
func (d *DRF) pickMachine(task *workload.Task, demand resources.Vector, free []resources.Vector, down []bool) int {
	for _, b := range task.Inputs {
		if b.Machine >= 0 && b.Machine < len(free) && !down[b.Machine] && demand.FitsIn(free[b.Machine]) {
			return b.Machine
		}
	}
	best := -1
	bestFree := -1.0
	for i, f := range free {
		if down[i] || !demand.FitsIn(f) {
			continue
		}
		if v := f.Sum(); v > bestFree {
			best, bestFree = i, v
		}
	}
	return best
}
