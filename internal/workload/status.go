package workload

import "fmt"

// TaskState is the lifecycle state of a task.
type TaskState int

// Task lifecycle states.
const (
	Pending TaskState = iota
	Running
	Done
)

// String returns the lower-case state name.
func (s TaskState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Status tracks DAG progress of one job: which tasks are pending, running
// or done, which stages are unlocked, and which tasks sit in the tail of
// a stage preceding a barrier (§3.5). It is the bookkeeping a job
// manager keeps.
type Status struct {
	Job *Job

	state     [][]TaskState
	attempts  [][]int // failed executions per task (crash or re-run)
	doneCount []int
	runCount  []int
	cursor    []int // per-stage index below which no task is pending
	doneTasks int
	finished  bool
	gen       uint64 // see PendingGen
}

// NewStatus creates progress tracking for job j with all tasks pending.
func NewStatus(j *Job) *Status {
	s := &Status{Job: j}
	s.state = make([][]TaskState, len(j.Stages))
	s.attempts = make([][]int, len(j.Stages))
	s.doneCount = make([]int, len(j.Stages))
	s.runCount = make([]int, len(j.Stages))
	s.cursor = make([]int, len(j.Stages))
	for si, st := range j.Stages {
		s.state[si] = make([]TaskState, len(st.Tasks))
	}
	return s
}

// StageReady reports whether all dependency stages of stage si have fully
// completed (the barrier semantics of the paper's Fig. 1 example).
func (s *Status) StageReady(si int) bool {
	for _, d := range s.Job.Stages[si].Deps {
		if s.doneCount[d] != len(s.Job.Stages[d].Tasks) {
			return false
		}
	}
	return true
}

// State returns the state of the identified task.
func (s *Status) State(id TaskID) TaskState { return s.state[id.Stage][id.Index] }

// MarkRunning transitions a pending task to running.
func (s *Status) MarkRunning(id TaskID) {
	if s.state[id.Stage][id.Index] != Pending {
		panic(fmt.Sprintf("task %v: MarkRunning from state %v", id, s.state[id.Stage][id.Index]))
	}
	s.state[id.Stage][id.Index] = Running
	s.runCount[id.Stage]++
	s.gen++
}

// MarkFailed returns a running task to the pending state (the task
// failed — its machine crashed or the attempt errored — and must be
// re-executed) and counts the failed attempt. The per-stage pending
// cursor is moved back so the task is visible to AppendPending again.
func (s *Status) MarkFailed(id TaskID) {
	if s.state[id.Stage][id.Index] != Running {
		panic(fmt.Sprintf("task %v: MarkFailed from state %v", id, s.state[id.Stage][id.Index]))
	}
	s.state[id.Stage][id.Index] = Pending
	s.runCount[id.Stage]--
	if s.attempts[id.Stage] == nil {
		s.attempts[id.Stage] = make([]int, len(s.Job.Stages[id.Stage].Tasks))
	}
	s.attempts[id.Stage][id.Index]++
	if id.Index < s.cursor[id.Stage] {
		s.cursor[id.Stage] = id.Index
	}
	s.gen++
}

// Requeue returns a running task to the pending state without counting
// a failed attempt: its launch record was recovered from a restarted
// resource manager's journal but the launch never reached a node (or
// died with one), so no execution was actually wasted. Charging an
// attempt here would let repeated RM restarts exhaust a task's attempt
// cap without the task ever having run.
func (s *Status) Requeue(id TaskID) {
	if s.state[id.Stage][id.Index] != Running {
		panic(fmt.Sprintf("task %v: Requeue from state %v", id, s.state[id.Stage][id.Index]))
	}
	s.state[id.Stage][id.Index] = Pending
	s.runCount[id.Stage]--
	if id.Index < s.cursor[id.Stage] {
		s.cursor[id.Stage] = id.Index
	}
	s.gen++
}

// PendingGen returns the generation of the job's set of pending tasks:
// MarkRunning, MarkFailed and Requeue each advance it, nothing else does.
// While it holds, every stage's pending tasks are the ones it had when
// read. Each Status counts on its own (one from RestoreStatus starts
// over), so a reading is comparable only with another of the same Status.
func (s *Status) PendingGen() uint64 { return s.gen }

// Attempts returns the number of failed executions of the identified
// task so far; the executors' per-task attempt caps compare against it.
func (s *Status) Attempts(id TaskID) int {
	if s.attempts[id.Stage] == nil {
		return 0
	}
	return s.attempts[id.Stage][id.Index]
}

// TotalFailures returns the total failed executions across the job.
func (s *Status) TotalFailures() int {
	n := 0
	for _, st := range s.attempts {
		for _, a := range st {
			n += a
		}
	}
	return n
}

// MarkDone transitions a running task to done.
func (s *Status) MarkDone(id TaskID) {
	if s.state[id.Stage][id.Index] != Running {
		panic(fmt.Sprintf("task %v: MarkDone from state %v", id, s.state[id.Stage][id.Index]))
	}
	s.state[id.Stage][id.Index] = Done
	s.runCount[id.Stage]--
	s.doneCount[id.Stage]++
	s.doneTasks++
	if s.doneTasks == s.Job.NumTasks() {
		s.finished = true
	}
}

// Finished reports whether every task of the job is done.
func (s *Status) Finished() bool { return s.finished }

// DoneTasks returns the number of completed tasks.
func (s *Status) DoneTasks() int { return s.doneTasks }

// RemainingTasks returns tasks not yet done (pending or running).
func (s *Status) RemainingTasks() int { return s.Job.NumTasks() - s.doneTasks }

// Runnable appends to dst the pending tasks of all ready stages and
// returns the result. The slice is in deterministic (stage, index) order.
func (s *Status) Runnable(dst []*Task) []*Task {
	for si := range s.Job.Stages {
		dst = s.AppendPending(si, len(s.Job.Stages[si].Tasks), dst)
	}
	return dst
}

// AppendPending appends up to max pending tasks of stage si (in index
// order) to dst, provided the stage is ready. A monotone per-stage cursor
// skips the completed prefix, so fetching the first few pending tasks is
// O(max + running-in-stage) rather than O(stage size) — schedulers call
// this on every round.
func (s *Status) AppendPending(si, max int, dst []*Task) []*Task {
	if max <= 0 || !s.StageReady(si) {
		return dst
	}
	tasks := s.Job.Stages[si].Tasks
	states := s.state[si]
	i := s.cursor[si]
	for i < len(states) && states[i] != Pending {
		i++
	}
	s.cursor[si] = i
	n := 0
	for ; i < len(states) && n < max; i++ {
		if states[i] == Pending {
			dst = append(dst, tasks[i])
			n++
		}
	}
	return dst
}

// HasRunnable reports whether any ready stage has a pending task.
func (s *Status) HasRunnable() bool {
	for si := range s.Job.Stages {
		if s.PendingInStage(si) > 0 && s.StageReady(si) {
			return true
		}
	}
	return false
}

// PendingInStage returns the number of pending tasks in stage si.
func (s *Status) PendingInStage(si int) int {
	return len(s.Job.Stages[si].Tasks) - s.doneCount[si] - s.runCount[si]
}

// DoneInStage returns the number of completed tasks in stage si.
func (s *Status) DoneInStage(si int) int { return s.doneCount[si] }

// RemainingInStage returns the number of tasks in stage si that are not
// done (pending or running).
func (s *Status) RemainingInStage(si int) int {
	return len(s.Job.Stages[si].Tasks) - s.doneCount[si]
}

// InBarrierTail reports whether the given task should receive barrier
// preference under knob b: at least a b fraction of its stage's tasks
// have finished (§3.5). Every stage precedes a barrier: a stage with
// dependents precedes theirs, and the paper treats the end of the job
// as a barrier too. b ≥ 1 disables the preference entirely.
func (s *Status) InBarrierTail(id TaskID, b float64) bool {
	if b >= 1 {
		return false
	}
	total := len(s.Job.Stages[id.Stage].Tasks)
	if total == 0 {
		return false
	}
	return float64(s.doneCount[id.Stage]) >= b*float64(total)
}

// ForEachRemaining calls fn for every task that is not done. Used to
// compute the multi-resource SRTF remaining-work score (§3.3.1).
func (s *Status) ForEachRemaining(fn func(*Task)) {
	for si, st := range s.Job.Stages {
		for ti, t := range st.Tasks {
			if s.state[si][ti] != Done {
				fn(t)
			}
		}
	}
}
