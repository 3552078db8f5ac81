package nm

import (
	"sort"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Synthetic is the hollow fleet's Executor: a launched task is a
// due-time entry drained when the node next reports, not a goroutine
// holding resources through sleeps, so a node costs per beat, not per
// task. Its fidelity boundaries (DESIGN.md §11.1): completions quantize
// to the heartbeat interval, usage jumps to the task's declared peak at
// launch and back at completion (no ramp-up), and nothing enforces
// disk rates. Owned by the goroutine that steps its agent; no locking.
// The zero value with Compression set is ready to use.
type Synthetic struct {
	// Compression divides task durations, exactly like a real NM's time
	// compression.
	Compression float64

	used    resources.Vector
	running map[workload.TaskID]syntheticTask
}

type syntheticTask struct {
	launch wire.TaskLaunch
	due    time.Time
}

func (s *Synthetic) Launch(l wire.TaskLaunch, now time.Time) bool {
	if _, dup := s.running[l.Task]; dup {
		return false
	}
	if s.running == nil {
		s.running = make(map[workload.TaskID]syntheticTask)
	}
	wall := time.Duration(l.Duration / s.Compression * float64(time.Second))
	s.running[l.Task] = syntheticTask{launch: l, due: now.Add(wall)}
	s.used = s.used.Add(l.Demand)
	return true
}

func (s *Synthetic) Stop(tid workload.TaskID) bool {
	t, ok := s.running[tid]
	if ok {
		s.release(tid, t)
	}
	return ok
}

func (s *Synthetic) release(tid workload.TaskID, t syntheticTask) {
	delete(s.running, tid)
	s.used = lessDemand(s.used, t.launch.Demand, len(s.running))
}

// lessDemand is a running set's usage after a task of the given demand
// left it; left counts the tasks still running. With none it is exactly
// zero, however the additions and subtractions rounded.
func lessDemand(used, demand resources.Vector, left int) resources.Vector {
	if left == 0 {
		return resources.Vector{}
	}
	return used.Sub(demand).Max(resources.Vector{})
}

func (s *Synthetic) Report(now time.Time) (used resources.Vector, finished []wire.TaskCompletion) {
	finished = s.drainDue(now)
	return s.used, finished
}

func (s *Synthetic) Inventory(now time.Time) (running []workload.TaskID, finished []wire.TaskCompletion) {
	finished = s.drainDue(now)
	running = make([]workload.TaskID, 0, len(s.running))
	for tid := range s.running {
		running = append(running, tid)
	}
	sortTaskIDs(running)
	return running, finished
}

// drainDue completes every task whose due time has passed, in TaskID
// order so a run is a function of its seed.
func (s *Synthetic) drainDue(now time.Time) []wire.TaskCompletion {
	var due []workload.TaskID
	for tid, t := range s.running {
		if !now.Before(t.due) {
			due = append(due, tid)
		}
	}
	if len(due) == 0 {
		return nil
	}
	sortTaskIDs(due)
	finished := make([]wire.TaskCompletion, 0, len(due))
	for _, tid := range due {
		t := s.running[tid]
		s.release(tid, t)
		finished = append(finished, wire.TaskCompletion{
			Task:     tid,
			Usage:    t.launch.Demand,
			Duration: t.launch.Duration,
		})
	}
	return finished
}

func sortTaskIDs(ids []workload.TaskID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
}
