// Package tracker implements the per-node resource tracker of §4.1: it
// observes the resource usage of the tasks running on a machine, grants
// newly placed tasks a decaying ramp-up allowance so their usage is not
// under-reported before they spin up, and produces the availability
// reports the scheduler packs against.
package tracker

import (
	"sync"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Report is one tracker observation delivered to the scheduler.
type Report struct {
	// Used is the observed usage including the ramp-up allowance for
	// young tasks.
	Used resources.Vector
	// Allocated is the sum of peak demands of tasks currently placed.
	Allocated resources.Vector
	// Available is the packing headroom: capacity minus the component-wise
	// maximum of Used and Allocated. Taking the max means the scheduler
	// neither re-allocates resources promised to running tasks nor
	// over-packs a machine whose actual usage exceeds what was allocated.
	Available resources.Vector
}

// Tracker tracks one machine. It is safe for concurrent use.
type Tracker struct {
	capacity resources.Vector
	// RampUpSec is the window during which a new task is charged its
	// expected demand even if observed usage is lower (§4.1; the paper
	// uses 10 s).
	RampUpSec float64

	mu    sync.Mutex
	tasks map[workload.TaskID]*taskEntry
}

type taskEntry struct {
	started  float64
	expected resources.Vector
	observed resources.Vector
}

// New creates a tracker for a machine with the given capacity.
func New(capacity resources.Vector) *Tracker {
	return &Tracker{
		capacity:  capacity,
		RampUpSec: 10,
		tasks:     make(map[workload.TaskID]*taskEntry),
	}
}

// Start registers a task placed on this machine at time now with the
// given expected (estimated peak) demand.
func (t *Tracker) Start(id workload.TaskID, expected resources.Vector, now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tasks[id] = &taskEntry{started: now, expected: expected}
}

// Observe updates the measured usage of a running task (from OS counters
// in a real node manager; from the fluid model in the simulator).
// Unknown ids are ignored — observation reports can race completion.
func (t *Tracker) Observe(id workload.TaskID, usage resources.Vector) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.tasks[id]; ok {
		e.observed = usage
	}
}

// Finish removes a completed task and returns its last observed usage.
func (t *Tracker) Finish(id workload.TaskID) resources.Vector {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.tasks[id]
	if !ok {
		return resources.Vector{}
	}
	delete(t.tasks, id)
	return e.observed
}

// allowance returns the ramp-up-adjusted usage charged for a task: the
// component-wise max of observed usage and the expected demand scaled by
// a factor that decays linearly from 1 to 0 over RampUpSec.
func (t *Tracker) allowance(e *taskEntry, now float64) resources.Vector {
	age := now - e.started
	if age >= t.RampUpSec || t.RampUpSec <= 0 {
		return e.observed
	}
	decay := 1 - age/t.RampUpSec
	return e.observed.Max(e.expected.Scale(decay))
}

// ReportAt produces the availability report at time now.
func (t *Tracker) ReportAt(now float64) Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	var used, allocated resources.Vector
	for _, e := range t.tasks {
		used = used.Add(t.allowance(e, now))
		allocated = allocated.Add(e.expected)
	}
	avail := t.capacity.Sub(used.Max(allocated)).Max(resources.Vector{})
	return Report{Used: used, Allocated: allocated, Available: avail}
}
