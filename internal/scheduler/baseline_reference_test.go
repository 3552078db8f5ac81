package scheduler

import (
	"math"

	"github.com/tetris-sched/tetris/internal/resources"
)

// The original selection loops of the two baselines — a linear scan over
// all jobs per placement — kept verbatim as the decision oracles of the
// heap-based DRF.Schedule and SlotFair.Schedule. They live in a _test.go
// file: the equivalence suite, the fuzzer and the {fast,reference}
// benchmark rows reach them through the wrappers below, production code
// cannot.

// referenceDRF and referenceSlotFair run the oracles behind the Scheduler
// interface, over the configuration of the embedded scheduler.
type (
	referenceDRF      struct{ *DRF }
	referenceSlotFair struct{ *SlotFair }
)

// Schedule implements Scheduler.
func (r referenceDRF) Schedule(v *View) []Assignment { return r.scheduleReference(v) }

// Schedule implements Scheduler.
func (r referenceSlotFair) Schedule(v *View) []Assignment { return r.scheduleReference(v) }

// withRunnable filters the view's jobs to those with runnable tasks.
func withRunnable(v *View) []*JobState {
	var out []*JobState
	for _, j := range v.Jobs {
		if j.Status.HasRunnable() {
			out = append(out, j)
		}
	}
	return out
}

func newPendingFetcher(j *JobState) *pendingFetcher { return &pendingFetcher{j: j} }

// scheduleReference is the original progressive-filling loop, kept as
// the decision oracle for the fast path.
func (d *DRF) scheduleReference(v *View) []Assignment {
	jobs := withRunnable(v)
	if len(jobs) == 0 {
		return nil
	}
	free := make([]resources.Vector, len(v.Machines))
	down := make([]bool, len(v.Machines))
	for i, m := range v.Machines {
		free[i] = d.project(m.FreeAllocated())
		down[i] = m.Down
	}
	share := make(map[int]float64, len(jobs))
	alloc := make(map[int]resources.Vector, len(jobs))
	fetch := make(map[int]*pendingFetcher, len(jobs))
	blocked := make(map[int]bool)
	for _, j := range jobs {
		alloc[j.Job.ID] = d.project(j.Alloc)
		share[j.Job.ID] = dominantShare(j, v.Total, d.Kinds)
		fetch[j.Job.ID] = newPendingFetcher(j)
	}
	var out []Assignment

	for {
		// Pick the unblocked job with the smallest dominant share.
		var pick *JobState
		for _, j := range jobs {
			id := j.Job.ID
			if blocked[id] || fetch[id].Peek() == nil {
				continue
			}
			if pick == nil || share[id] < share[pick.Job.ID] ||
				(share[id] == share[pick.Job.ID] && id < pick.Job.ID) {
				pick = j
			}
		}
		if pick == nil {
			break
		}
		id := pick.Job.ID
		task := fetch[id].Peek()
		peak, _ := v.Demand(pick, task)
		demand := d.project(peak)
		mid := d.pickMachine(task, demand, free, down)
		if mid < 0 {
			blocked[id] = true
			continue
		}
		fetch[id].Consume()
		free[mid] = free[mid].Sub(demand).Max(resources.Vector{})
		alloc[id] = alloc[id].Add(demand)
		// Recompute the dominant share.
		s := 0.0
		for _, k := range d.Kinds {
			if c := v.Total.Get(k); c > 0 {
				if v := alloc[id].Get(k) / c; v > s {
					s = v
				}
			}
		}
		share[id] = s
		out = append(out, Assignment{Task: task, Machine: mid, Local: demand})
	}
	return out
}

// scheduleReference is the original selection loop, kept as the decision
// oracle for the fast path.
func (s *SlotFair) scheduleReference(v *View) []Assignment {
	jobs := withRunnable(v)
	if len(jobs) == 0 {
		return nil
	}
	// Free slots per machine under this scheduler's own ledger (memory
	// charged in slot multiples).
	freeSlots := make([]int, len(v.Machines))
	totalFree := 0
	for i, m := range v.Machines {
		if m.Down {
			continue // crashed machine: no slots
		}
		total := int(m.Capacity.Get(resources.Memory) / slotGB)
		used := int(math.Round(m.Allocated.Get(resources.Memory) / slotGB))
		freeSlots[i] = total - used
		if freeSlots[i] < 0 {
			freeSlots[i] = 0
		}
		totalFree += freeSlots[i]
	}
	if totalFree == 0 {
		return nil
	}
	var totalWeight float64
	for _, j := range v.Jobs {
		totalWeight += j.Job.Weight
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
	slotsUsed := make(map[int]float64, len(jobs))
	fetch := make(map[int]*pendingFetcher, len(jobs))
	blocked := make(map[int]bool)
	for _, j := range jobs {
		slotsUsed[j.Job.ID] = j.Alloc.Get(resources.Memory) / slotGB
		fetch[j.Job.ID] = newPendingFetcher(j)
	}

	var out []Assignment
	for totalFree > 0 {
		// Job furthest below its fair slot share with a placeable task.
		var pick *JobState
		bestDeficit := math.Inf(-1)
		for _, j := range jobs {
			id := j.Job.ID
			if blocked[id] || fetch[id].Peek() == nil {
				continue
			}
			fair := j.Job.Weight / totalWeight
			deficit := fair - slotsUsed[id]/totalSlots
			if deficit > bestDeficit {
				bestDeficit = deficit
				pick = j
			}
		}
		if pick == nil {
			break
		}
		id := pick.Job.ID
		task := fetch[id].Peek()
		peak, _ := v.Demand(pick, task)
		need := s.slotsOf(peak.Get(resources.Memory))
		mid := s.pickMachine(task, freeSlots, need)
		if mid < 0 {
			// Task too big for any machine right now.
			blocked[id] = true
			continue
		}
		fetch[id].Consume()
		freeSlots[mid] -= need
		totalFree -= need
		slotsUsed[id] += float64(need)
		// Charge memory only: that is all a slot scheduler allocates.
		local := resources.Vector{}.With(resources.Memory, float64(need)*slotGB)
		out = append(out, Assignment{Task: task, Machine: mid, Local: local})
	}
	return out
}
