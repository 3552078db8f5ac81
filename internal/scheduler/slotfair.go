package scheduler

import (
	"math"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// SlotFair models the Hadoop Fair/Capacity schedulers the paper compares
// against (§2.1, §5.1): resources are divided into memory-defined slots
// and slots are offered to the job furthest below its fair slot share.
// Only memory is checked — CPU, disk and network are neither allocated
// nor limited, which is exactly the over-allocation pathology the paper
// demonstrates. Tasks are preferentially placed local to their input.
type SlotFair struct {
	scratch slotScratch
}

// slotGB is the slot size in GB of memory (the paper uses the Facebook
// cluster's value; this reproduction uses 2 GB).
const slotGB = 2

// slotScratch is the per-round working state, reused across Schedule
// calls.
type slotScratch struct {
	jobs      []*JobState
	freeSlots []int
	used      []float64 // slots occupied, by job position
	deficit   []float64 // fair minus used share, by job position
	fetch     []pendingFetcher
	live      []int // positions of the jobs still in the round, in no order
}

// more orders the jobs: largest deficit first, ties by ascending job
// position, so of the jobs with the largest deficit the first in the
// view's list wins. The order is strict, so the job it puts first does
// not depend on the order of live.
func (sc *slotScratch) more(a, b int) bool {
	if sc.deficit[a] != sc.deficit[b] {
		return sc.deficit[a] > sc.deficit[b]
	}
	return a < b
}

// NewSlotFair returns a slot-based fair scheduler with 2 GB slots.
func NewSlotFair() *SlotFair { return &SlotFair{} }

// Name implements Scheduler.
func (s *SlotFair) Name() string { return "slot-fair" }

// slotsOf converts a memory amount to (whole) slots, rounding up — the
// static slot sizing whose rounding is the fragmentation of §2.1.
func (s *SlotFair) slotsOf(memGB float64) int {
	if memGB <= 0 {
		return 1 // every task occupies at least one slot
	}
	return int(math.Ceil(memGB / slotGB))
}

// Schedule implements Scheduler: repeatedly give the next free slot(s) to
// the job occupying the fewest slots relative to its fair share. Each
// placement scans the jobs still in the round.
func (s *SlotFair) Schedule(v *View) []Assignment {
	sc := &s.scratch
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
	if cap(sc.freeSlots) < len(v.Machines) {
		sc.freeSlots = make([]int, len(v.Machines))
	}
	sc.freeSlots = sc.freeSlots[:len(v.Machines)]
	totalFree := 0
	for i, m := range v.Machines {
		sc.freeSlots[i] = 0
		if m.Down {
			continue // crashed machine: no slots
		}
		total := int(m.Capacity.Get(resources.Memory) / slotGB)
		used := int(math.Round(m.Allocated.Get(resources.Memory) / slotGB))
		sc.freeSlots[i] = total - used
		if sc.freeSlots[i] < 0 {
			sc.freeSlots[i] = 0
		}
		totalFree += sc.freeSlots[i]
	}
	if totalFree == 0 {
		return nil
	}
	var totalWeight float64
	for _, j := range v.Jobs {
		totalWeight += j.Job.Weight
	}
	if totalWeight == 0 {
		// Zero total weight makes every fair share, and so every
		// deficit, NaN. The scan cannot rank NaN (more never holds
		// against it), so the first job of live would win it; place
		// nothing instead.
		return nil
	}
	var totalSlots float64
	for _, m := range v.Machines {
		if m.Down {
			continue
		}
		totalSlots += math.Floor(m.Capacity.Get(resources.Memory) / slotGB)
	}
	if totalSlots == 0 {
		return nil
	}
	if cap(sc.used) < len(jobs) {
		sc.used = make([]float64, len(jobs))
		sc.deficit = make([]float64, len(jobs))
		sc.fetch = make([]pendingFetcher, len(jobs))
	}
	sc.used = sc.used[:len(jobs)]
	sc.deficit = sc.deficit[:len(jobs)]
	sc.fetch = sc.fetch[:len(jobs)]
	sc.live = sc.live[:0]
	for p, j := range jobs {
		sc.used[p] = j.Alloc.Get(resources.Memory) / slotGB
		sc.deficit[p] = j.Job.Weight/totalWeight - sc.used[p]/totalSlots
		sc.fetch[p].reset(j)
		sc.live = append(sc.live, p)
	}

	var out []Assignment
	for totalFree > 0 && len(sc.live) > 0 {
		// Jobs out of runnable tasks, or whose next task fits nowhere,
		// stay that way for the rest of the round: drop them for good.
		i := first(sc.live, sc.more)
		p := sc.live[i]
		pick := jobs[p]
		task := sc.fetch[p].Peek()
		if task == nil {
			sc.live = swapRemove(sc.live, i)
			continue
		}
		peak, _ := v.Demand(pick, task)
		need := s.slotsOf(peak.Get(resources.Memory))
		mid := s.pickMachine(task, sc.freeSlots, need)
		if mid < 0 {
			// Task too big for any machine right now.
			sc.live = swapRemove(sc.live, i)
			continue
		}
		sc.fetch[p].Consume()
		sc.freeSlots[mid] -= need
		totalFree -= need
		sc.used[p] += float64(need)
		sc.deficit[p] = pick.Job.Weight/totalWeight - sc.used[p]/totalSlots
		// Charge memory only: that is all a slot scheduler allocates.
		local := resources.Vector{}.With(resources.Memory, float64(need)*slotGB)
		out = append(out, Assignment{Task: task, Machine: mid, Local: local})
	}
	return out
}

// pickMachine prefers a machine holding the task's input with enough free
// slots; otherwise the machine with the most free slots.
func (s *SlotFair) pickMachine(task *workload.Task, freeSlots []int, need int) int {
	for _, b := range task.Inputs {
		if b.Machine >= 0 && b.Machine < len(freeSlots) && freeSlots[b.Machine] >= need {
			return b.Machine
		}
	}
	best, bestFree := -1, 0
	for i, f := range freeSlots {
		if f >= need && f > bestFree {
			best, bestFree = i, f
		}
	}
	return best
}
