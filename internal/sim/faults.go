package sim

import (
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
)

// applyFault executes one planned fault event at the current clock.
//
// Data durability: input blocks are assumed replicated (HDFS-style), so
// a crash destroys compute — the machine's capacity and its running
// tasks — but never data. Remote flows sourced at a crashed machine
// keep flowing (served by a replica at the same modeled cost); only
// tasks *placed on* the machine fail.
func (s *Sim) applyFault(e faults.Event) {
	switch e.Kind {
	case faults.MachineCrash:
		s.crashMachine(e.Machine)
	case faults.MachineRecover:
		s.recoverMachine(e.Machine)
	case faults.SlowdownStart:
		s.slow[e.Machine] = e.Factor
		s.mark(e.Machine) // re-rates every component of every task on it
	case faults.SlowdownEnd:
		s.slow[e.Machine] = 1
		s.mark(e.Machine)
	}
}

// crashMachine takes a machine out of service: every task running on it
// fails (released and returned to the pending pool, attempt counted),
// its ledger is reclaimed, and the scheduler sees it Down until the
// matching recover event.
func (s *Sim) crashMachine(m int) {
	if s.machines[m].Down {
		return
	}
	s.machines[m].Down = true
	s.crashedAt[m] = s.clock
	// Kill the machine's running tasks. Copy the list: failTask mutates
	// byMach[m] via unlink.
	victims := append([]*runningTask(nil), s.byMach[m]...)
	for _, rt := range victims {
		s.failTask(rt)
	}
	s.logFault(faults.Record{
		Time: s.clock, Kind: faults.MachineCrash, Machine: m, TasksKilled: len(victims),
	})
}

// recoverMachine returns a crashed machine to service, empty.
func (s *Sim) recoverMachine(m int) {
	if !s.machines[m].Down {
		return
	}
	s.machines[m].Down = false
	s.logFault(faults.Record{
		Time: s.clock, Kind: faults.MachineRecover, Machine: m,
		Downtime: s.clock - s.crashedAt[m],
	})
}

// logFault appends a record to the bounded fault log and folds it into
// the run's recovery statistics, which so count the records the log
// evicts too.
func (s *Sim) logFault(r faults.Record) {
	s.faultRing.Append(r)
	s.res.recovery.Add(r)
	s.metrics.faultDropped.Set(float64(s.faultRing.Dropped()))
}

// failTask aborts one running task: resources are released, the wasted
// attempt is counted, and the task returns to the pending pool — unless
// it has exhausted Config.MaxTaskAttempts, in which case its job is
// killed.
func (s *Sim) failTask(rt *runningTask) {
	if rt.gone {
		return // already removed by a job kill earlier in this event
	}
	s.unlink(rt)
	jr := rt.job
	if jr.killed {
		return // job already killed this round; no bookkeeping left
	}
	id := rt.task.ID
	jr.state.Status.MarkFailed(id)
	s.res.FailedAttempts++
	s.res.TaskDurations = append(s.res.TaskDurations, s.clock-rt.started)
	if cap := s.cfg.MaxTaskAttempts; cap > 0 && jr.state.Status.Attempts(id) >= cap {
		s.killJob(jr)
	}
}

// killJob abandons a job whose task exhausted its attempt cap: its
// remaining running tasks are released, and it is recorded as failed so
// the run can still complete and report it.
func (s *Sim) killJob(jr *jobRun) {
	jr.killed = true
	// Release the job's other running tasks, wherever they are.
	victims := s.victims[:0]
	for _, rt := range s.running {
		if rt.job == jr {
			victims = append(victims, rt)
		}
	}
	for _, rt := range victims {
		s.unlink(rt)
	}
	clear(victims)
	s.victims = victims
	// Exactly +0, whatever rounding unlink's releases left.
	jr.state.Alloc = resources.Vector{}
	jr.truePeaks = resources.Vector{}
	j := jr.state.Job
	s.res.KilledJobs = append(s.res.KilledJobs, j.ID)
	s.res.Jobs[j.ID] = JobResult{
		Arrival: j.Arrival, Finish: s.clock, JCT: s.clock - j.Arrival,
		NumTasks: j.NumTasks(), Failed: true,
	}
}

// unlink removes a running task from the running list and the
// per-machine index, fixing swapped indices, and takes its charges off
// its job however it ended. Idempotent via rt.gone. The
// task's resource nodes are marked — they drop it at their next re-sum —
// and so are those of the task swap-moved into its slot, whose place in
// their summation order just changed. The record goes back to Sim.spare
// only at the end of that re-sum (recomputeRates): until then a node
// still lists it, and a start in the same loop iteration, after a crash
// (step 1) or a preemption or kill (step 2), must not reuse it.
func (s *Sim) unlink(rt *runningTask) {
	if rt.gone {
		return
	}
	rt.gone = true
	jr := rt.job
	jr.state.Alloc = jr.state.Alloc.Sub(rt.local).Max(resources.Vector{})
	jr.truePeaks = jr.truePeaks.Sub(rt.task.Peak).Max(resources.Vector{})
	s.markTask(rt)
	s.unlinked = append(s.unlinked, rt)
	last := len(s.running) - 1
	moved := s.running[last]
	s.running[rt.idx] = moved
	moved.idx = rt.idx
	s.running[last] = nil
	s.running = s.running[:last]
	if moved != rt {
		s.markTask(moved)
	}

	lst := s.byMach[rt.machine]
	for i, x := range lst {
		if x == rt {
			lst[i] = lst[len(lst)-1]
			s.byMach[rt.machine] = lst[:len(lst)-1]
			break
		}
	}
}
