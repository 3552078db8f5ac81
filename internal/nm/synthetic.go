package nm

import (
	"sort"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Synthetic runs a node's tasks: a real node's and every hollow node's.
// A launched task is a due-time entry drained when the node next
// reports, not a goroutine holding resources through sleeps, so a node
// costs per beat, not per task. Its fidelity boundaries (DESIGN.md
// §11.1): completions quantize to the heartbeat interval and carry the
// declared duration, usage jumps to the task's declared peak at launch
// and back at completion (no ramp-up), and nothing polices disk or
// network rates (§4.2 is a substitution, DESIGN.md §2). Owned by the
// goroutine that steps its agent; no locking. The zero value with
// Compression set is ready to use.
type Synthetic struct {
	// Compression divides task durations: a task declared to run 100 s
	// is due 100/Compression wall seconds after its launch.
	Compression float64

	used    resources.Vector
	running map[workload.TaskID]syntheticTask
}

type syntheticTask struct {
	launch wire.TaskLaunch
	due    time.Time
}

// Launch starts one attempt, or reports false having started nothing:
// the RM re-sends a launch that was queued across a link blip.
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

// Stop ends an attempt the RM killed (orphaned by resync) or preempted
// (evicted for a gang): its usage is freed and it never reports a
// completion — the RM has already requeued it and would count one as a
// duplicate. False when the attempt is not running.
func (s *Synthetic) Stop(tid workload.TaskID) bool {
	t, ok := s.running[tid]
	if ok {
		s.release(tid, t)
	}
	return ok
}

// release takes a task off the running set and its demand off used.
// With nothing left running, used is exactly zero, however the additions
// and subtractions rounded.
func (s *Synthetic) release(tid workload.TaskID, t syntheticTask) {
	delete(s.running, tid)
	if len(s.running) == 0 {
		s.used = resources.Vector{}
	} else {
		s.used = s.used.Sub(t.launch.Demand).Max(resources.Vector{})
	}
}

// Report returns the node's usage at now and the attempts finished since
// the last Report or Inventory.
func (s *Synthetic) Report(now time.Time) (used resources.Vector, finished []wire.TaskCompletion) {
	finished = s.drainDue(now)
	return s.used, finished
}

// Inventory returns the running set in TaskID order and the attempts
// finished since the last Report or Inventory, taken at one instant: an
// attempt is in exactly one, so resync reconciliation can never see a
// task in neither.
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
