// Package workload models the jobs a cluster scheduler serves: DAGs of
// stages separated by barriers, whose tasks have multi-dimensional peak
// resource demands and total work requirements in the sense of eqn. (5)
// of the paper (cpu-seconds, bytes read per input location, bytes
// written).
package workload

import (
	"fmt"

	"github.com/tetris-sched/tetris/internal/resources"
)

// TaskID names a task within a workload: job, stage index within the job
// and task index within the stage.
type TaskID struct {
	Job   int
	Stage int
	Index int
}

// String renders the id as "j3/s1/t42".
func (id TaskID) String() string {
	return fmt.Sprintf("j%d/s%d/t%d", id.Job, id.Stage, id.Index)
}

// Less orders ids by (job, stage, index): the deterministic order every
// sorted task list in the system uses.
func (id TaskID) Less(o TaskID) bool {
	if id.Job != o.Job {
		return id.Job < o.Job
	}
	if id.Stage != o.Stage {
		return id.Stage < o.Stage
	}
	return id.Index < o.Index
}

// MaxMachineID bounds machine IDs, which the RM's node table and the
// scheduler's locality index are indexed by. It sits above the largest
// fleet anything here runs (100 000 hollow nodes).
const MaxMachineID = 1 << 18

// InputBlock is one piece of task input data, resident on a machine.
type InputBlock struct {
	// Machine holding the block. A negative value means the block has no
	// affinity (e.g. it is generated data) and reading it is always local.
	Machine int
	// SizeMB is the block size in megabytes.
	SizeMB float64
}

// Work holds the total amounts of work a task must complete. A task
// finishes when all of its components have completed (eqn. 5): its
// duration is the maximum over components of work/allocated-rate.
type Work struct {
	// CPUSeconds is compute work in core-seconds.
	CPUSeconds float64
	// WriteMB is output written to the local disk, in MB.
	WriteMB float64
	// Input reads are derived from the task's Inputs list.
}

// Task is the schedulable unit. Peak demands are what the task can
// consume when unconstrained; the scheduler may place a task only on a
// machine where the peaks fit (Tetris) or based on a subset of dimensions
// (baselines).
type Task struct {
	ID TaskID
	// Peak resource demands (cores, GB, MB/s, MB/s, Mb/s, Mb/s). For a
	// task with remote inputs the network components are only exercised
	// when placement makes the read remote.
	Peak resources.Vector
	// Work totals.
	Work Work
	// Inputs to read. Local blocks use disk-read bandwidth only; remote
	// blocks additionally use network-out at the source and network-in at
	// the destination.
	Inputs []InputBlock
}

// TotalInputMB sums the sizes of all input blocks.
func (t *Task) TotalInputMB() float64 {
	var s float64
	for _, b := range t.Inputs {
		s += b.SizeMB
	}
	return s
}

// RemoteInputMB sums the sizes of the blocks not resident on machine m.
func (t *Task) RemoteInputMB(m int) float64 {
	var s float64
	for _, b := range t.Inputs {
		if b.Machine >= 0 && b.Machine != m {
			s += b.SizeMB
		}
	}
	return s
}

// HasLocalAffinity reports whether any input block resides on machine m.
func (t *Task) HasLocalAffinity(m int) bool {
	for _, b := range t.Inputs {
		if b.Machine == m {
			return true
		}
	}
	return false
}

// NominalDuration returns the task's duration when allocated its full
// peak rates and placed on machine m, following eqn. (5): the maximum
// over work components of total work divided by peak rate (network Mb/s
// are converted to MB/s). Zero-rate components with positive work yield a
// large sentinel — the caller is expected to validate demands.
func (t *Task) NominalDuration(m int) float64 {
	d := stretch(0, t.Work.CPUSeconds, t.Peak.Get(resources.CPU))
	d = stretch(d, t.Work.WriteMB, t.Peak.Get(resources.DiskWrite))
	local := t.TotalInputMB() - t.RemoteInputMB(m)
	remote := t.RemoteInputMB(m)
	d = stretch(d, local+remote, t.Peak.Get(resources.DiskRead)) // all bytes touch a disk somewhere
	return stretch(d, remote, t.FlowCapMBps())
}

const (
	inf     = 1e30 // large-but-finite sentinel so schedulers can still sort
	mbPerMB = 8    // Mb per MB
)

// stretch returns the longer of d and the time positive work takes at
// rate, saturated at the inf sentinel: a zero rate, or one so small the
// quotient overflows (10 CPU-seconds at 1e-310 cores), yields inf, never
// +Inf.
func stretch(d, work, rate float64) float64 {
	if work <= 0 {
		return d
	}
	dur := inf
	if rate > 0 && work/rate < inf {
		dur = work / rate
	}
	return max(d, dur)
}

// FlowCapMBps returns the maximum byte rate (MB/s) at which this task
// can read input from a remote machine: its disk-read peak (the read
// happens at a remote disk on its behalf), further capped by its network
// peak when it has one. This single cap keeps the scheduler's remote
// reservations consistent with the rate the flow can actually achieve.
func (t *Task) FlowCapMBps() float64 {
	capMB := t.Peak.Get(resources.DiskRead)
	if n := t.Peak.Get(resources.NetIn); n > 0 && n/mbPerMB < capMB {
		capMB = n / mbPerMB
	}
	return capMB
}

// PeakDuration returns the task duration at peak rates assuming all input
// is read locally — the placement-independent duration estimate used by
// the multi-resource SRTF remaining-work score (§3.3.1).
func (t *Task) PeakDuration() float64 {
	d := stretch(0, t.Work.CPUSeconds, t.Peak.Get(resources.CPU))
	d = stretch(d, t.Work.WriteMB, t.Peak.Get(resources.DiskWrite))
	return stretch(d, t.TotalInputMB(), t.Peak.Get(resources.DiskRead))
}

// Stage is a set of tasks that perform the same computation over
// different data partitions; tasks within a stage are statistically
// similar (§4.1). Deps lists stage indices that must fully complete
// before any task of this stage can run — the barrier semantics of the
// paper's examples.
type Stage struct {
	Name  string
	Tasks []*Task
	Deps  []int
}

// Job is a DAG of stages arriving at a point in time.
type Job struct {
	ID      int
	Name    string
	Arrival float64
	Stages  []*Stage
	// Lineage identifies the recurring-job family; the estimator keys
	// history on it (§4.1). Zero means not recurring.
	Lineage int
	// Weight is the fair-share weight (1 for all jobs in the paper).
	Weight float64
	// Gang marks an all-or-nothing job (distributed ML training, MPI):
	// no task may launch until at least MinMembers tasks can be
	// co-placed in a single scheduling round. Gang jobs must be
	// single-stage.
	Gang bool
	// MinMembers is the gang quorum. Zero means all tasks. Only
	// meaningful when Gang is set.
	MinMembers int
	// Preemptible marks a job whose running tasks may be evicted to
	// admit a higher-priority gang; the eviction is charged through the
	// normal attempt accounting (the task re-queues and re-runs).
	Preemptible bool
	// Priority orders jobs for gang admission and preemption: gangs are
	// served highest-priority first, and only strictly lower-priority
	// preemptible tasks may be evicted for a gang. Zero is the default.
	Priority int
}

// GangQuorum returns the number of tasks that must be co-placed for a
// gang job (MinMembers, or all tasks when MinMembers is zero). Zero for
// non-gang jobs.
func (j *Job) GangQuorum() int {
	if !j.Gang {
		return 0
	}
	if j.MinMembers <= 0 {
		return j.NumTasks()
	}
	return j.MinMembers
}

// NumTasks returns the total task count across stages.
func (j *Job) NumTasks() int {
	n := 0
	for _, s := range j.Stages {
		n += len(s.Tasks)
	}
	return n
}

// Task returns the task with the given stage and index.
func (j *Job) Task(stage, index int) *Task { return j.Stages[stage].Tasks[index] }

// Validate checks structural invariants: at least one task, stage deps
// in range and acyclic, task ids consistent, non-negative demands and
// work, input blocks on machines below MaxMachineID, and no task whose
// positive work has a zero peak rate on the matching dimension (such a
// task would run forever — its duration at peak rates is infinite). Every number it carries must be
// resources.Bounded: finite, and small enough that no sum the RM keeps
// of it overflows.
func (j *Job) Validate() error {
	if j.NumTasks() == 0 {
		return fmt.Errorf("job %d: no tasks", j.ID)
	}
	if !resources.Bounded(j.Arrival) || !resources.Bounded(j.Weight) {
		return fmt.Errorf("job %d: arrival %v or weight %v out of range", j.ID, j.Arrival, j.Weight)
	}
	n := len(j.Stages)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for si, s := range j.Stages {
		if len(s.Tasks) == 0 {
			return fmt.Errorf("job %d stage %d: no tasks", j.ID, si)
		}
		for _, d := range s.Deps {
			if d < 0 || d >= n {
				return fmt.Errorf("job %d stage %d: dep %d out of range", j.ID, si, d)
			}
			if d == si {
				return fmt.Errorf("job %d stage %d: self-dependency", j.ID, si)
			}
			adj[d] = append(adj[d], si)
			indeg[si]++
		}
		for ti, t := range s.Tasks {
			if t.ID.Job != j.ID || t.ID.Stage != si || t.ID.Index != ti {
				return fmt.Errorf("job %d: task %v has inconsistent id at stage %d index %d", j.ID, t.ID, si, ti)
			}
			if !t.Peak.Bounded() || !t.Peak.NonNegative() {
				return fmt.Errorf("job %d task %v: negative or out-of-range peak demand %v", j.ID, t.ID, t.Peak)
			}
			if !amount(t.Work.CPUSeconds) || !amount(t.Work.WriteMB) {
				return fmt.Errorf("job %d task %v: negative or out-of-range work", j.ID, t.ID)
			}
			for _, b := range t.Inputs {
				if !amount(b.SizeMB) || b.Machine >= MaxMachineID {
					return fmt.Errorf("job %d task %v: out-of-range input size %v or machine %d", j.ID, t.ID, b.SizeMB, b.Machine)
				}
			}
			if t.Work.CPUSeconds > 0 && t.Peak.Get(resources.CPU) <= 0 {
				return fmt.Errorf("job %d task %v: positive CPU work with zero peak CPU rate", j.ID, t.ID)
			}
			if t.Work.WriteMB > 0 && t.Peak.Get(resources.DiskWrite) <= 0 {
				return fmt.Errorf("job %d task %v: positive write work with zero peak disk-write rate", j.ID, t.ID)
			}
			if t.TotalInputMB() > 0 && t.Peak.Get(resources.DiskRead) <= 0 {
				return fmt.Errorf("job %d task %v: input to read with zero peak disk-read rate", j.ID, t.ID)
			}
		}
	}
	// Kahn's algorithm to detect cycles.
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		for _, v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("job %d: stage dependency cycle", j.ID)
	}
	if j.Gang {
		if len(j.Stages) != 1 {
			return fmt.Errorf("job %d: gang jobs must be single-stage, got %d stages", j.ID, len(j.Stages))
		}
		if j.MinMembers < 0 || j.MinMembers > j.NumTasks() {
			return fmt.Errorf("job %d: gang MinMembers %d out of range [0,%d]", j.ID, j.MinMembers, j.NumTasks())
		}
	}
	return nil
}

// Workload is a set of jobs plus the machine placement universe the input
// blocks refer to.
type Workload struct {
	Jobs []*Job
	// NumMachines is the machine-id universe for input block placement.
	NumMachines int
}

// NumTasks returns the total number of tasks across jobs.
func (w *Workload) NumTasks() int {
	n := 0
	for _, j := range w.Jobs {
		n += j.NumTasks()
	}
	return n
}

// Validate validates every job and block placement.
func (w *Workload) Validate() error {
	for _, j := range w.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		for _, s := range j.Stages {
			for _, t := range s.Tasks {
				for _, b := range t.Inputs {
					if b.Machine >= w.NumMachines {
						return fmt.Errorf("task %v: input on machine %d ≥ NumMachines %d", t.ID, b.Machine, w.NumMachines)
					}
				}
			}
		}
	}
	return nil
}

// amount reports whether x is a non-negative, Bounded quantity.
func amount(x float64) bool { return x >= 0 && resources.Bounded(x) }
