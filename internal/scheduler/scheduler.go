// Package scheduler implements the cluster scheduling policies the paper
// builds and compares: the Tetris multi-resource packing scheduler (§3)
// with its fairness and barrier knobs, the slot-based fair ("capacity")
// scheduler, Dominant Resource Fairness, a multi-resource SRTF, and the
// aggregate upper-bound construction of §2.2.3.
//
// Schedulers are pure policies: given a View of cluster and job state
// they return task→machine Assignments. The simulator (internal/sim) and
// the distributed resource manager (internal/rm) both drive them.
package scheduler

import (
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// MachineState is the scheduler-visible state of one machine.
type MachineState struct {
	ID       int
	Capacity resources.Vector
	// Allocated is the sum of the demands this scheduler charged for
	// tasks currently placed on (or serving remote reads from) the
	// machine. Each policy charges according to its own resource model,
	// which is exactly how over-allocation arises for the baselines.
	Allocated resources.Vector
	// Reported is the resource tracker's current usage observation,
	// including non-job background activity (ingestion, evacuation) and
	// ramp-up allowances. Only Tetris consults it (§4.1).
	Reported resources.Vector
	// Down marks a crashed or unreachable machine: it offers no
	// capacity and must receive no placements (local or remote charges)
	// until it recovers. The simulator sets it from its fault plan; the
	// resource manager sets it when a node misses heartbeats.
	Down bool
}

// FreeAllocated returns capacity − Allocated, clamped at zero. A down
// machine has no free capacity.
func (m *MachineState) FreeAllocated() resources.Vector {
	if m.Down {
		return resources.Vector{}
	}
	return m.Capacity.Sub(m.Allocated).Max(resources.Vector{})
}

// FreePacking returns the packing headroom Tetris uses: capacity minus
// the component-wise max of Allocated and Reported, clamped at zero. A
// down machine has no headroom.
func (m *MachineState) FreePacking() resources.Vector {
	if m.Down {
		return resources.Vector{}
	}
	return m.Capacity.Sub(m.Allocated.Max(m.Reported)).Max(resources.Vector{})
}

// JobState is the scheduler-visible state of one active job.
type JobState struct {
	Job    *workload.Job
	Status *workload.Status
	// Alloc is the sum of local demands this scheduler charged for the
	// job's currently running tasks, across all machines. Fairness
	// bookkeeping (slot counts, dominant shares) derives from it.
	Alloc resources.Vector
}

// View is the cluster snapshot a scheduler decides over.
type View struct {
	Time     float64
	Machines []*MachineState
	// Jobs lists active (arrived, unfinished) jobs in ascending ID order.
	Jobs []*JobState
	// Total is the cluster-wide capacity (cached by the caller).
	Total resources.Vector
	// EstimateDemand optionally overrides the demands schedulers see, to
	// model imperfect knowledge (§4.1). When nil, true peaks are used.
	EstimateDemand func(j *JobState, t *workload.Task) (peak resources.Vector, duration float64)
}

// Demand returns the scheduler-visible peak demand and duration estimate
// for a task.
func (v *View) Demand(j *JobState, t *workload.Task) (resources.Vector, float64) {
	if v.EstimateDemand != nil {
		return v.EstimateDemand(j, t)
	}
	return t.Peak, t.PeakDuration()
}

// DemandPeak returns only the scheduler-visible peak demand (cheaper than
// Demand when the duration is not needed).
func (v *View) DemandPeak(j *JobState, t *workload.Task) resources.Vector {
	if v.EstimateDemand != nil {
		peak, _ := v.EstimateDemand(j, t)
		return peak
	}
	return t.Peak
}

// RemoteCharge is a resource charge at a remote source machine.
type RemoteCharge struct {
	Machine int
	Charge  resources.Vector
}

// Assignment is one task placement decision.
type Assignment struct {
	Task    *workload.Task
	Machine int
	// Local is the demand charged against the target machine under the
	// deciding scheduler's resource model.
	Local resources.Vector
	// Remote charges resources at other machines (disk read + network out
	// at the sources of remote input). Only Tetris populates it.
	Remote []RemoteCharge
}

// Scheduler is a scheduling policy.
type Scheduler interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Schedule returns the assignments to start now. Implementations must
	// not mutate the View; the caller applies assignments and re-invokes
	// as state changes. The slice and each assignment's Remote charges
	// are valid until the next call, which may reuse them: a caller that
	// keeps a charge copies it.
	Schedule(v *View) []Assignment
}

// EffectiveDemand adjusts a task's peak demand vector for placement on
// machine m (§3.2 "incorporating task placement"): network-in is needed
// only when some input is remote — sized at the rate the remote flow can
// actually achieve (FlowCapMBps); local disk-read only when some input is
// local; network-out is charged at the source machines of remote reads,
// never at the task's own machine.
func EffectiveDemand(peak resources.Vector, t *workload.Task, m int) resources.Vector {
	d := peak.With(resources.NetOut, 0)
	if t.RemoteInputMB(m) == 0 {
		d = d.With(resources.NetIn, 0)
	} else {
		d = d.With(resources.NetIn, 8*t.FlowCapMBps())
	}
	if t.TotalInputMB()-t.RemoteInputMB(m) == 0 {
		d = d.With(resources.DiskRead, 0)
	}
	return d
}

// LocalDemand strips the network components of a peak demand, leaving the
// demand of the best-case, fully local placement: feasibility checks (the
// RM router's per shard, the gang coordinator's per quorum) must not
// reject for network bandwidth only a remote read would use.
func LocalDemand(peak resources.Vector) resources.Vector {
	return peak.With(resources.NetIn, 0).With(resources.NetOut, 0)
}

// RemoteCharges computes the per-source-machine resource charges of
// placing task t on machine m: each remote source serves its share of the
// read, at proportional disk-read and network-out rates bounded by the
// flow's achievable byte rate. Returns nil when all input is local. The
// result groups repeated source machines.
func RemoteCharges(t *workload.Task, m int) []RemoteCharge {
	return refillRemoteCharges(nil, t, m)
}

// refillRemoteCharges is RemoteCharges written over buf's storage.
func refillRemoteCharges(buf []RemoteCharge, t *workload.Task, m int) []RemoteCharge {
	remote := t.RemoteInputMB(m)
	if remote == 0 {
		return nil
	}
	flowCap := t.FlowCapMBps()
	charges := buf[:0]
	if cap(charges) < len(t.Inputs) {
		charges = make([]RemoteCharge, 0, len(t.Inputs)) // one allocation, not one per doubling
	}
	for _, b := range t.Inputs {
		if b.Machine < 0 || b.Machine == m || b.SizeMB == 0 {
			continue
		}
		frac := b.SizeMB / remote
		c := resources.Vector{}.
			With(resources.DiskRead, flowCap*frac).
			With(resources.NetOut, 8*flowCap*frac)
		merged := false
		for i := range charges {
			if charges[i].Machine == b.Machine {
				charges[i].Charge = charges[i].Charge.Add(c)
				merged = true
				break
			}
		}
		if !merged {
			charges = append(charges, RemoteCharge{Machine: b.Machine, Charge: c})
		}
	}
	return charges
}

// LiveCharges drops charges whose source machine is Down or outside the
// view entirely: with replicated storage the read falls back to a replica
// elsewhere, so a dead source neither blocks the placement nor accrues
// bandwidth charges, and a source this scheduler cannot see (a machine
// owned by another shard of a partitioned fleet) has no local ledger to
// charge. The input slice is never mutated; it is returned as-is when all
// sources are live and in view.
func LiveCharges(v *View, charges []RemoteCharge) []RemoteCharge {
	dead := func(m int) bool { return m >= len(v.Machines) || v.Machines[m].Down }
	for i, rc := range charges {
		if dead(rc.Machine) {
			out := make([]RemoteCharge, 0, len(charges)-1)
			out = append(out, charges[:i]...)
			for _, rest := range charges[i+1:] {
				if !dead(rest.Machine) {
					out = append(out, rest)
				}
			}
			return out
		}
	}
	return charges
}

// pendingFetcher iterates a job's runnable tasks lazily in (stage, index)
// order, fetching in geometrically growing chunks so a round that places
// k tasks costs O(k), not O(pending). Within a round the underlying
// Status does not change, so refetches are consistent.
type pendingFetcher struct {
	j     *JobState
	stage int
	buf   []*workload.Task
	idx   int // next unconsumed within buf
	taken int // consumed from the current stage
	cur   *workload.Task
}

// reset reinitializes the fetcher for job j, recycling the fetch buffer,
// so DRF and slot-fair reuse their fetchers across rounds.
func (f *pendingFetcher) reset(j *JobState) {
	f.j = j
	f.stage = 0
	f.buf = f.buf[:0]
	f.idx = 0
	f.taken = 0
	f.cur = nil
}

// Peek returns the next runnable task without consuming it (nil if none).
func (f *pendingFetcher) Peek() *workload.Task {
	if f.cur != nil {
		return f.cur
	}
	for f.stage < len(f.j.Job.Stages) {
		if f.idx < len(f.buf) {
			f.cur = f.buf[f.idx]
			f.idx++
			f.taken++
			return f.cur
		}
		want := f.taken*2 + 16
		refetched := f.j.Status.AppendPending(f.stage, want, f.buf[:0])
		if len(refetched) > f.taken {
			f.buf = refetched[f.taken:]
			f.idx = 0
			continue
		}
		f.stage++
		f.buf = f.buf[:0]
		f.idx, f.taken = 0, 0
	}
	return nil
}

// Consume advances past the task returned by Peek.
func (f *pendingFetcher) Consume() { f.cur = nil }

// dominantShare returns the job's dominant resource share over all kinds.
func dominantShare(j *JobState, total resources.Vector) float64 {
	_, s := resources.DominantShare(j.Alloc, total)
	return s
}

// kindShare returns alloc's dominant share of total over the given kinds,
// skipping the kinds the cluster has none of.
func kindShare(alloc, total resources.Vector, kinds []resources.Kind) float64 {
	share := 0.0
	for _, k := range kinds {
		if c := total.Get(k); c > 0 {
			if s := alloc.Get(k) / c; s > share {
				share = s
			}
		}
	}
	return share
}

// first returns the index in live of the job position before, a strict
// total order, puts first.
func first(live []int, before func(a, b int) bool) int {
	best := 0
	for i := 1; i < len(live); i++ {
		if before(live[i], live[best]) {
			best = i
		}
	}
	return best
}

// swapRemove drops live[i], moving the last position into its slot.
func swapRemove(live []int, i int) []int {
	n := len(live) - 1
	live[i] = live[n]
	return live[:n]
}
