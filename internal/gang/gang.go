// Package gang adds all-or-nothing gang admission, timeout-and-release
// capacity hoarding, and checkpoint-aware preemption on top of any
// task-at-a-time scheduler (DESIGN.md §14).
//
// A Coordinator wraps an inner scheduler.Scheduler. Each round it
// serves gang jobs (workload.Job.Gang) before anything else: a gang
// whose quorum (GangQuorum) cannot yet be co-placed launches nothing;
// when the whole quorum fits against the round-start free ledger, all
// members commit in a single round. While waiting, the gang may hoard
// the partial placement it could make — capacity reservations in the
// shared reserve.Table — so singleton churn cannot indefinitely keep a
// large gang from accumulating space. Hoards expire after HoldSec and
// are returned to the pool (timeout-and-release), with an equal
// cooldown before the gang may hoard again, so a hopeless hoard cannot
// monopolize machines. A gang that has waited past PreemptSec may
// evict the lowest-priority preemptible running tasks; evictions are
// charged through the normal attempt accounting by the caller (RM or
// simulator), exactly like a machine-failure requeue.
//
// The coordinator is deliberately core-agnostic: it mutates only the
// view it hands the inner scheduler (jobs filtered, committed demand
// charged), so the Tetris core and its test-side oracle stay
// bit-identical under it. When no gang state exists it returns the
// inner scheduler's decisions on the untouched view, making the
// feature digest-neutral for non-gang workloads.
package gang

import (
	"sort"

	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Config parameterizes the coordinator. The zero value takes the
// defaults noted per field.
type Config struct {
	// HoldSec bounds how long a gang may hoard partial placements
	// before they are released, and how long it must then wait before
	// hoarding again. Default 30.
	HoldSec float64
	// PreemptSec is the wait bound after which an unsatisfied feasible
	// gang may preempt lower-priority preemptible tasks, and the
	// minimum spacing between preemption waves for one gang.
	// Default 60.
	PreemptSec float64
}

// maxPreemptPerRound caps evictions per round across all gangs, bounding
// preemption churn.
const maxPreemptPerRound = 8

// DefaultConfig returns the default coordinator knobs.
func DefaultConfig() Config {
	return Config{HoldSec: 30, PreemptSec: 60}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HoldSec <= 0 {
		c.HoldSec = d.HoldSec
	}
	if c.PreemptSec <= 0 {
		c.PreemptSec = d.PreemptSec
	}
	return c
}

// Running describes one running task the coordinator may consider as a
// preemption victim. The caller (RM or simulator) supplies the list;
// order does not matter — the coordinator sorts deterministically.
type Running struct {
	Task    workload.TaskID
	Machine int
	// Demand is the local demand charged for the task, used to decide
	// how many victims cover a gang's deficit.
	Demand resources.Vector
}

// Preemption is one eviction decision: kill Task to make room for gang
// ForJob. The caller requeues the task through the normal attempt
// accounting.
type Preemption struct {
	Task   workload.TaskID
	ForJob int
}

// Commit records a gang whose quorum launched this round.
type Commit struct {
	JobID int
	// WaitSec is the admission latency: time from when the gang first
	// wanted quorum to this commit.
	WaitSec float64
	// Members is the number of tasks launched in the commit.
	Members int
}

// Release records a hoard timeout: the gang's held machines returned
// to the pool.
type Release struct {
	JobID int
	// Held is the number of machines whose hoarded capacity was
	// released.
	Held int
}

// Decision is one round's full output.
type Decision struct {
	Assignments []scheduler.Assignment
	Preemptions []Preemption
	Commits     []Commit
	Releases    []Release
}

// reservationHolder is implemented by inner schedulers (Tetris) that
// expose their reservation table; the coordinator then shares it, so
// gang hoards close machines to the inner fill loops and the
// starvation guard never reserves a hoarded machine.
type reservationHolder interface {
	Reservations() *reserve.Table
}

// Coordinator implements gang admission around an inner scheduler. It
// is not concurrency-safe; like the schedulers it wraps, it is owned
// by a single scheduling loop.
type Coordinator struct {
	inner scheduler.Scheduler
	cfg   Config
	res   *reserve.Table
	// shared is true when res is the inner scheduler's own table; when
	// false the coordinator must hide hoarded machines from the inner
	// scheduler by charging them in the view.
	shared bool
	// waitSince is when each gang job first wanted (and could not get)
	// quorum; cleared on commit. Admission latency derives from it.
	waitSince map[int]float64
	// hoardSince is when the gang's current hoard epoch began.
	hoardSince map[int]float64
	// hoardHeld is the machine count of the gang's hoard last round.
	hoardHeld map[int]int
	// noHoardUntil is the cooldown gate after a timed-out hoard.
	noHoardUntil map[int]float64
	// lastPreempt spaces preemption waves per gang.
	lastPreempt map[int]float64
}

// New wraps inner with a gang coordinator.
func New(inner scheduler.Scheduler, cfg Config) *Coordinator {
	c := &Coordinator{
		inner:        inner,
		cfg:          cfg.withDefaults(),
		waitSince:    make(map[int]float64),
		hoardSince:   make(map[int]float64),
		hoardHeld:    make(map[int]int),
		noHoardUntil: make(map[int]float64),
		lastPreempt:  make(map[int]float64),
	}
	if rh, ok := inner.(reservationHolder); ok {
		c.res = rh.Reservations()
		c.shared = true
	} else {
		c.res = reserve.New()
	}
	return c
}

// Name implements scheduler.Scheduler.
func (c *Coordinator) Name() string { return "gang+" + c.inner.Name() }

// Inner returns the wrapped scheduler.
func (c *Coordinator) Inner() scheduler.Scheduler { return c.inner }

// Config returns the coordinator's effective configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// Schedule implements scheduler.Scheduler for callers that cannot act
// on preemptions: it decides with no preemption victims available.
func (c *Coordinator) Schedule(v *scheduler.View) []scheduler.Assignment {
	return c.Decide(v, nil).Assignments
}

// gangNeed returns how many more members must launch for quorum. Zero
// or negative means the quorum is currently satisfied by running+done
// members (stragglers beyond quorum flow through the inner scheduler).
func gangNeed(j *scheduler.JobState) int {
	q := j.Job.GangQuorum()
	done := j.Status.DoneInStage(0)
	pending := j.Status.PendingInStage(0)
	running := j.Job.NumTasks() - done - pending
	return q - done - running
}

// Feasible reports whether gang job j could ever be co-placed on the
// live machines of v: every pending member's demand must fit some live
// machine's total capacity, and the aggregate local demand must fit
// the aggregate live capacity. Infeasible gangs neither hoard nor
// preempt — the same max-peak rule the starvation guard applies before
// reserving a machine.
func Feasible(v *scheduler.View, j *scheduler.JobState) bool {
	pending := j.Status.AppendPending(0, j.Status.PendingInStage(0), nil)
	var totalLive, sum resources.Vector
	for _, m := range v.Machines {
		if !m.Down {
			totalLive = totalLive.Add(m.Capacity)
		}
	}
	for _, task := range pending {
		peak := v.DemandPeak(j, task)
		fits := false
		for _, m := range v.Machines {
			if m.Down {
				continue
			}
			if scheduler.EffectiveDemand(peak, task, m.ID).FitsIn(m.Capacity) {
				fits = true
				break
			}
		}
		if !fits {
			return false
		}
		sum = sum.Add(scheduler.LocalDemand(peak))
	}
	return sum.FitsIn(totalLive)
}

// Decide runs one round: gang admission first, then the inner
// scheduler over the remaining capacity and non-gang (or
// quorum-satisfied) jobs. running lists currently running tasks as
// preemption candidates; nil disables preemption.
func (c *Coordinator) Decide(v *scheduler.View, running []Running) Decision {
	if c.idle(v) {
		// Digest-neutral fast path: no gang jobs, no hoards, no wait
		// state — hand the untouched view to the inner scheduler.
		return Decision{Assignments: c.inner.Schedule(v)}
	}
	now := v.Time
	byJob := make(map[int]*scheduler.JobState, len(v.Jobs))
	for _, j := range v.Jobs {
		byJob[j.Job.ID] = j
	}
	c.sweep(byJob)

	// Round-start free ledger, before any hoard charges: gang commits
	// are decided against what is genuinely free right now.
	free := make([]resources.Vector, len(v.Machines))
	for i, m := range v.Machines {
		free[i] = m.FreePacking()
	}
	// Drop last round's hoards — they are recomputed from scratch
	// below, against this round's pending membership.
	c.res.Sweep(0, func(_ int, r reserve.Reservation) bool {
		return r.Kind == reserve.Gang
	}, nil)

	var dec Decision

	// Unsatisfied gangs in deterministic service order: highest
	// priority first, then longest waiting, then lowest job ID.
	var gangs []*scheduler.JobState
	for _, j := range v.Jobs { // ascending job-ID order
		if !j.Job.Gang {
			continue
		}
		if gangNeed(j) <= 0 {
			c.clearJob(j.Job.ID)
			continue
		}
		if _, ok := c.waitSince[j.Job.ID]; !ok {
			c.waitSince[j.Job.ID] = now
		}
		gangs = append(gangs, j)
	}
	sort.SliceStable(gangs, func(a, b int) bool {
		ja, jb := gangs[a], gangs[b]
		if ja.Job.Priority != jb.Job.Priority {
			return ja.Job.Priority > jb.Job.Priority
		}
		wa, wb := c.waitSince[ja.Job.ID], c.waitSince[jb.Job.ID]
		if wa != wb {
			return wa < wb
		}
		return ja.Job.ID < jb.Job.ID
	})

	victims := c.sortVictims(running, byJob)
	victimized := make(map[workload.TaskID]bool)
	preempted := 0

	for _, j := range gangs {
		id := j.Job.ID
		need := gangNeed(j)
		members := j.Status.AppendPending(0, j.Status.PendingInStage(0), nil)
		placed := c.placeGang(v, j, members, need, free)
		if len(placed) >= need {
			// Commit: the whole quorum launches this round, charged
			// against the shared free ledger.
			for _, p := range placed {
				dec.Assignments = append(dec.Assignments, p)
				free[p.Machine] = free[p.Machine].Sub(p.Local).Max(resources.Vector{})
			}
			dec.Commits = append(dec.Commits, Commit{
				JobID:   id,
				WaitSec: now - c.waitSince[id],
				Members: len(placed),
			})
			c.clearJob(id)
			continue
		}
		// Quorum not met: nothing launches (all-or-nothing). Decide
		// whether to hoard the partial placement, and whether the wait
		// has earned a preemption wave.
		feasible := Feasible(v, j)
		if feasible && now-c.waitSince[id] >= c.cfg.PreemptSec &&
			now-c.lastPreempt[id] >= c.cfg.PreemptSec &&
			preempted < maxPreemptPerRound {
			evs := c.preemptFor(v, j, members, need, placed, victims, victimized,
				maxPreemptPerRound-preempted)
			if len(evs) > 0 {
				dec.Preemptions = append(dec.Preemptions, evs...)
				preempted += len(evs)
				c.lastPreempt[id] = now
			}
		}
		if hs, ok := c.hoardSince[id]; ok && now-hs >= c.cfg.HoldSec {
			// Timeout-and-release: return the hoarded capacity and
			// enter cooldown so the next hoard epoch cannot start
			// immediately.
			dec.Releases = append(dec.Releases, Release{JobID: id, Held: c.hoardHeld[id]})
			delete(c.hoardSince, id)
			delete(c.hoardHeld, id)
			c.noHoardUntil[id] = now + c.cfg.HoldSec
		} else if feasible && now >= c.noHoardUntil[id] && len(placed) > 0 {
			for _, p := range placed {
				cur, _ := c.res.Get(p.Machine)
				c.res.Put(p.Machine, reserve.Reservation{
					Kind:     reserve.Gang,
					Holder:   id,
					Capacity: cur.Capacity.Add(p.Local),
					Expires:  now + c.cfg.HoldSec,
				})
				free[p.Machine] = free[p.Machine].Sub(p.Local).Max(resources.Vector{})
			}
			if _, ok := c.hoardSince[id]; !ok {
				c.hoardSince[id] = now
			}
			c.hoardHeld[id] = len(c.res.HolderMachines(id))
		}
	}

	// Inner round: non-gang and quorum-satisfied jobs, over a view with
	// the gang commits charged (and, when the reservation table is not
	// shared, hoarded machines closed).
	dec.Assignments = append(dec.Assignments, c.innerRound(v, dec.Assignments)...)
	return dec
}

// idle reports whether the round can take the digest-neutral fast
// path.
func (c *Coordinator) idle(v *scheduler.View) bool {
	if c.res.Len() > 0 && !c.shared {
		return false
	}
	if c.shared {
		// Gang-kind entries mean live hoards even if no gang job is
		// visible this round (it may have just departed).
		gangHeld := false
		c.res.Each(func(_ int, r reserve.Reservation) {
			if r.Kind == reserve.Gang {
				gangHeld = true
			}
		})
		if gangHeld {
			return false
		}
	}
	if len(c.waitSince) > 0 || len(c.hoardSince) > 0 ||
		len(c.noHoardUntil) > 0 || len(c.lastPreempt) > 0 {
		return false
	}
	for _, j := range v.Jobs {
		if j.Job.Gang {
			return false
		}
	}
	return true
}

// sweep drops soft state for jobs no longer in the view, and any hoard
// whose holder departed.
func (c *Coordinator) sweep(byJob map[int]*scheduler.JobState) {
	for id := range c.waitSince {
		if byJob[id] == nil {
			delete(c.waitSince, id)
		}
	}
	for id := range c.hoardSince {
		if byJob[id] == nil {
			delete(c.hoardSince, id)
			delete(c.hoardHeld, id)
		}
	}
	for id := range c.noHoardUntil {
		if byJob[id] == nil {
			delete(c.noHoardUntil, id)
		}
	}
	for id := range c.lastPreempt {
		if byJob[id] == nil {
			delete(c.lastPreempt, id)
		}
	}
	c.res.Sweep(0, func(_ int, r reserve.Reservation) bool {
		return r.Kind == reserve.Gang && byJob[r.Holder] == nil
	}, nil)
}

// clearJob drops all per-gang soft state (on commit or quorum
// satisfaction).
func (c *Coordinator) clearJob(id int) {
	delete(c.waitSince, id)
	delete(c.hoardSince, id)
	delete(c.hoardHeld, id)
	delete(c.noHoardUntil, id)
	delete(c.lastPreempt, id)
	c.res.Sweep(0, func(_ int, r reserve.Reservation) bool {
		return r.Kind == reserve.Gang && r.Holder == id
	}, nil)
}

// placeGang first-fits as many of the gang's pending members as it can
// against a copy of the free ledger, visiting machines in ascending ID
// order. It stops once need members are placed. Machines reserved for
// other holders (starved tasks, other gangs' hoards) are closed. Gang
// members are charged local demand only; their input-block remote
// charges are intentionally not modeled (ML/MPI gangs are generated
// without input locality), which keeps the all-or-nothing commit a
// pure function of the free ledger.
func (c *Coordinator) placeGang(v *scheduler.View, j *scheduler.JobState, members []*workload.Task, need int, free []resources.Vector) []scheduler.Assignment {
	if need <= 0 || len(members) < need {
		return nil
	}
	scratch := make([]resources.Vector, len(free))
	copy(scratch, free)
	var placed []scheduler.Assignment
	for _, task := range members {
		if len(placed) >= need {
			break
		}
		peak := v.DemandPeak(j, task)
		for _, m := range v.Machines {
			if m.Down {
				continue
			}
			if r, held := c.res.Get(m.ID); held && r.Holder != j.Job.ID {
				continue
			}
			d := scheduler.EffectiveDemand(peak, task, m.ID)
			if !d.FitsIn(scratch[m.ID]) {
				continue
			}
			scratch[m.ID] = scratch[m.ID].Sub(d).Max(resources.Vector{})
			placed = append(placed, scheduler.Assignment{Task: task, Machine: m.ID, Local: d})
			break
		}
	}
	return placed
}

// sortVictims filters running tasks down to preemptible ones and
// orders them lowest priority first (then job ID, stage, index) — the
// deterministic eviction order.
func (c *Coordinator) sortVictims(running []Running, byJob map[int]*scheduler.JobState) []Running {
	var out []Running
	for _, r := range running {
		j := byJob[r.Task.Job]
		if j == nil || !j.Job.Preemptible {
			continue
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(a, b int) bool {
		ja, jb := byJob[out[a].Task.Job], byJob[out[b].Task.Job]
		if ja.Job.Priority != jb.Job.Priority {
			return ja.Job.Priority < jb.Job.Priority
		}
		return out[a].Task.Less(out[b].Task)
	})
	return out
}

// preemptFor picks victims for one gang: strictly lower-priority
// preemptible running tasks, lowest priority first, until their freed
// demand covers the gang's placement deficit or the per-round cap is
// hit. The freed capacity materializes next round, once the NM kills
// land; this round the gang keeps waiting.
func (c *Coordinator) preemptFor(v *scheduler.View, j *scheduler.JobState, members []*workload.Task, need int, placed []scheduler.Assignment, victims []Running, victimized map[workload.TaskID]bool, budget int) []Preemption {
	// Deficit: the aggregate local demand of the needed members that
	// first-fit failed to find room for.
	short := need - len(placed)
	if short <= 0 {
		return nil
	}
	var deficit resources.Vector
	counted := make(map[workload.TaskID]bool, len(placed))
	for _, p := range placed {
		counted[p.Task.ID] = true
	}
	n := 0
	for _, task := range members {
		if counted[task.ID] || n >= short {
			continue
		}
		deficit = deficit.Add(scheduler.LocalDemand(v.DemandPeak(j, task)))
		n++
	}
	var out []Preemption
	var freed resources.Vector
	for _, vic := range victims {
		if len(out) >= budget {
			break
		}
		if victimized[vic.Task] {
			continue
		}
		vj := byJobLookup(v, vic.Task.Job)
		if vj == nil || vj.Job.Priority >= j.Job.Priority {
			// Only strictly lower-priority tasks may be evicted; the
			// victim list is sorted ascending by priority, so nothing
			// later qualifies either.
			break
		}
		victimized[vic.Task] = true
		out = append(out, Preemption{Task: vic.Task, ForJob: j.Job.ID})
		freed = freed.Add(vic.Demand)
		if deficit.FitsIn(freed) {
			break
		}
	}
	return out
}

func byJobLookup(v *scheduler.View, id int) *scheduler.JobState {
	for _, j := range v.Jobs {
		if j.Job.ID == id {
			return j
		}
	}
	return nil
}

// innerRound runs the wrapped scheduler over the non-gang slice of the
// round: unsatisfied gang jobs are hidden (so the inner scheduler can
// never launch a partial gang), committed gang demand is transiently
// charged to the machines, and — when the reservation table is not
// shared with the inner scheduler — hoarded machines are closed by
// charging their full capacity. All mutations are restored before
// returning; Scheduler implementations must not see them persist.
func (c *Coordinator) innerRound(v *scheduler.View, gangAsgs []scheduler.Assignment) []scheduler.Assignment {
	inner := *v
	inner.Jobs = make([]*scheduler.JobState, 0, len(v.Jobs))
	for _, j := range v.Jobs {
		if j.Job.Gang && gangNeed(j) > 0 {
			continue
		}
		inner.Jobs = append(inner.Jobs, j)
	}
	charge := make(map[int]resources.Vector)
	for _, a := range gangAsgs {
		charge[a.Machine] = charge[a.Machine].Add(a.Local)
	}
	if !c.shared {
		c.res.Each(func(mid int, r reserve.Reservation) {
			if r.Kind == reserve.Gang && mid < len(v.Machines) {
				charge[mid] = charge[mid].Add(v.Machines[mid].Capacity)
			}
		})
	}
	type saved struct {
		alloc, rep resources.Vector
	}
	restore := make(map[int]saved, len(charge))
	for mid, ch := range charge {
		if mid >= len(v.Machines) {
			continue
		}
		m := v.Machines[mid]
		restore[mid] = saved{m.Allocated, m.Reported}
		m.Allocated = m.Allocated.Add(ch)
		m.Reported = m.Reported.Add(ch)
	}
	out := c.inner.Schedule(&inner)
	for mid, s := range restore {
		v.Machines[mid].Allocated = s.alloc
		v.Machines[mid].Reported = s.rep
	}
	return out
}
