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
	fair      []float64 // fair slot share, by job position
	used      []float64 // slots occupied, by job position
	deficit   []float64 // fair minus used share, by job position
	fetch     []pendingFetcher
	heap      jobHeap // job positions by (-deficit, position), see more
}

// more orders the selection heap: largest deficit first, ties by
// ascending job position. The oracle's linear scan keeps the first job
// (in list order) achieving the maximum deficit, which is exactly the
// first job of this strict total order.
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
// the job occupying the fewest slots relative to its fair share. The jobs
// sit in a max-heap keyed by slot deficit — only the picked job's deficit
// changes per placement, so selection is O(log jobs). The original loop,
// a linear scan over all jobs per placement, is the test-side oracle the
// equivalence suite holds this one to (baseline_reference_test.go).
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
		// Zero total weight makes every fair share NaN; the oracle's
		// scan then never finds a pick (NaN beats nothing) and places no
		// tasks. Match it without feeding NaN keys to the heap.
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
	if cap(sc.fair) < len(jobs) {
		sc.fair = make([]float64, len(jobs))
		sc.used = make([]float64, len(jobs))
		sc.deficit = make([]float64, len(jobs))
		sc.fetch = make([]pendingFetcher, len(jobs))
	}
	sc.fair = sc.fair[:len(jobs)]
	sc.used = sc.used[:len(jobs)]
	sc.deficit = sc.deficit[:len(jobs)]
	sc.fetch = sc.fetch[:len(jobs)]
	if sc.heap.before == nil {
		sc.heap.before = sc.more
	}
	sc.heap.pos = sc.heap.pos[:0]
	for p, j := range jobs {
		sc.fair[p] = j.Job.Weight / totalWeight
		sc.used[p] = j.Alloc.Get(resources.Memory) / slotGB
		sc.deficit[p] = sc.fair[p] - sc.used[p]/totalSlots
		sc.fetch[p].reset(j)
		sc.heap.push(p)
	}

	var out []Assignment
	for totalFree > 0 && len(sc.heap.pos) > 0 {
		// The heap top is the placeable job furthest below fair share.
		// Jobs out of runnable tasks, or whose next task fits nowhere,
		// stay that way for the rest of the round: drop them for good.
		p := sc.heap.pos[0]
		pick := jobs[p]
		task := sc.fetch[p].Peek()
		if task == nil {
			sc.heap.pop()
			continue
		}
		peak, _ := v.Demand(pick, task)
		need := s.slotsOf(peak.Get(resources.Memory))
		mid := s.pickMachine(task, sc.freeSlots, need)
		if mid < 0 {
			// Task too big for any machine right now.
			sc.heap.pop()
			continue
		}
		sc.fetch[p].Consume()
		sc.freeSlots[mid] -= need
		totalFree -= need
		sc.used[p] += float64(need)
		sc.deficit[p] = sc.fair[p] - sc.used[p]/totalSlots
		sc.heap.siftDown() // deficit only shrank: re-sink the root
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
