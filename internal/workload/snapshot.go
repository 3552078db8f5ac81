package workload

import "fmt"

// StatusSnapshot is the durable progress of one job: everything a
// restarted resource manager needs to rebuild a Status exactly. Derived
// bookkeeping (per-stage counts, pending cursors) is reconstructed on
// restore rather than persisted.
type StatusSnapshot struct {
	// States holds one TaskState per task, indexed [stage][task].
	States [][]TaskState
	// Attempts holds failed-execution counts, indexed like States; a nil
	// slice or a nil row means all zero.
	Attempts [][]int
}

// StageStates returns stage si's task states, indexed by task. The
// slice is the Status's own: read it, never modify it.
func (s *Status) StageStates(si int) []TaskState { return s.state[si] }

// StageAttempts returns stage si's failed-execution counts, nil while
// no task of the stage has failed. The slice is the Status's own.
func (s *Status) StageAttempts(si int) []int { return s.attempts[si] }

// RestoreStatus rebuilds a Status for job j from a snapshot, recomputing
// all derived bookkeeping. A snapshot whose shape does not match j or
// that holds an unknown state is refused: it comes from a corrupt or
// foreign journal.
func RestoreStatus(j *Job, snap StatusSnapshot) (*Status, error) {
	s := NewStatus(j)
	if len(snap.States) != len(j.Stages) || (snap.Attempts != nil && len(snap.Attempts) != len(j.Stages)) {
		return nil, fmt.Errorf("job %d: status of %d stages, job has %d", j.ID, len(snap.States), len(j.Stages))
	}
	for si, row := range snap.States {
		if len(row) != len(s.state[si]) {
			return nil, fmt.Errorf("job %d stage %d: status of %d tasks, stage has %d", j.ID, si, len(row), len(s.state[si]))
		}
		for ti, st := range row {
			s.state[si][ti] = st
			switch st {
			case Pending:
			case Running:
				s.runCount[si]++
			case Done:
				s.doneCount[si]++
				s.doneTasks++
			default:
				return nil, fmt.Errorf("job %d task %d/%d: unknown state %d", j.ID, si, ti, int(st))
			}
		}
		// The pending cursor sits at the first pending task.
		i := 0
		for i < len(row) && row[i] != Pending {
			i++
		}
		s.cursor[si] = i
	}
	for si, row := range snap.Attempts {
		if row == nil {
			continue
		}
		if len(row) != len(s.state[si]) {
			return nil, fmt.Errorf("job %d stage %d: attempts of %d tasks, stage has %d", j.ID, si, len(row), len(s.state[si]))
		}
		s.attempts[si] = append([]int(nil), row...)
	}
	s.finished = s.doneTasks == j.NumTasks() && s.doneTasks > 0
	return s, nil
}
