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
	"cmp"
	"slices"

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
	Task workload.TaskID
	// Job is the task's job: its Preemptible and Priority pick victims.
	Job *workload.Job
	// Demand is the local demand charged for the task, used to decide
	// how many victims cover a gang's deficit.
	Demand resources.Vector
}

// Decision is one round's output. Its slices are the coordinator's
// scratch: the next Decide reuses them.
type Decision struct {
	Assignments []scheduler.Assignment
	// Preempted lists the running tasks to evict; the caller requeues
	// each through its normal attempt accounting.
	Preempted []workload.TaskID
	// CommitWaits holds, for each gang whose quorum launched this round,
	// its admission latency: the time since it first wanted quorum.
	CommitWaits []float64
	// Releases counts the hoards the hold timeout returned to the pool.
	Releases int
}

// reservationHolder is implemented by inner schedulers (Tetris) that
// expose their reservation table; the coordinator then shares it, so
// gang hoards close machines to the inner fill loops and the
// starvation guard never reserves a hoarded machine.
type reservationHolder interface {
	Reservations() *reserve.Table
}

// record is one gang job's soft state. It lives from the round the gang
// first waits for quorum until the round it commits, finds its quorum
// met, or is missing from the View.
type record struct {
	state *scheduler.JobState // this round's
	need  int                 // members still to launch for quorum, this round
	seen  uint64              // the round that last stamped the record
	// waitSince is when the gang first wanted (and could not get)
	// quorum. Admission latency and service order derive from it.
	waitSince float64
	// hoarding is set while a hoard epoch is open, since hoardSince.
	hoarding   bool
	hoardSince float64
	// noHoardUntil is the cooldown gate after a timed-out hoard.
	noHoardUntil float64
	// lastPreempt spaces the gang's preemption waves.
	lastPreempt float64
}

// victim is one preemption candidate of the round.
type victim struct {
	Running
	taken bool // evicted this round
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
	// jobs holds the record of every gang job waiting for quorum.
	jobs map[int]*record
	// round numbers the rounds that were not idle; it stamps records.
	round uint64

	// Scratch of one round, reused by the next.
	gangs     []*record             // the waiting gangs, in service order
	innerJobs []*scheduler.JobState // the jobs the inner round sees
	free      []resources.Vector    // round-start free, less commits and hoards
	scratch   []resources.Vector    // placeGang's copy of free
	members   []*workload.Task      // the pending members of one gang
	placed    []scheduler.Assignment
	victims   []victim
	listed    uint64 // the round victims was built for
	charge    map[int]resources.Vector
	saved     []savedMachine
	dec       Decision
}

// savedMachine is a machine's ledger as the inner round found it.
type savedMachine struct {
	id         int
	alloc, rep resources.Vector
}

// New wraps inner with a gang coordinator.
func New(inner scheduler.Scheduler, cfg Config) *Coordinator {
	c := &Coordinator{
		inner:  inner,
		cfg:    cfg.withDefaults(),
		jobs:   make(map[int]*record),
		charge: make(map[int]resources.Vector),
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

// feasible reports whether gang job j, whose pending members are
// pending, could ever be co-placed on the live machines of v: every
// pending member's demand must fit some live machine's total capacity,
// and the aggregate local demand must fit the aggregate live capacity.
// Infeasible gangs neither hoard nor preempt — the same max-peak rule
// the starvation guard applies before reserving a machine.
func feasible(v *scheduler.View, j *scheduler.JobState, pending []*workload.Task) bool {
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
// quorum-satisfied) jobs. running lists the currently running tasks as
// preemption candidates; Decide calls it only in a round in which some
// gang is due to preempt, and a nil running disables preemption.
func (c *Coordinator) Decide(v *scheduler.View, running func() []Running) Decision {
	if len(c.jobs) == 0 && !hasGang(v) {
		// Digest-neutral fast path: no gang jobs and no gang state —
		// hand the untouched view to the inner scheduler.
		return Decision{Assignments: c.inner.Schedule(v)}
	}
	now := v.Time
	c.beginRound(v)

	// Round-start free ledger, before any hoard charges: gang commits
	// are decided against what is genuinely free right now.
	c.free = c.free[:0]
	for _, m := range v.Machines {
		c.free = append(c.free, m.FreePacking())
	}
	// Drop last round's hoards — they are recomputed from scratch
	// below, against this round's pending membership. A departed
	// gang's hoard goes with them.
	c.res.Sweep(0, func(_ int, r reserve.Reservation) bool {
		return r.Kind == reserve.Gang
	}, nil)

	dec := &c.dec
	*dec = Decision{Assignments: dec.Assignments[:0], Preempted: dec.Preempted[:0], CommitWaits: dec.CommitWaits[:0]}
	for _, g := range c.gangs {
		j := g.state
		c.members = j.Status.AppendPending(0, j.Status.PendingInStage(0), c.members[:0])
		placed := c.placeGang(v, g)
		if len(placed) >= g.need {
			// Commit: the whole quorum launches this round, charged
			// against the shared free ledger.
			for _, p := range placed {
				dec.Assignments = append(dec.Assignments, p)
				c.free[p.Machine] = c.free[p.Machine].Sub(p.Local).Max(resources.Vector{})
			}
			dec.CommitWaits = append(dec.CommitWaits, now-g.waitSince)
			delete(c.jobs, j.Job.ID)
			continue
		}
		// Quorum not met: nothing launches (all-or-nothing). Decide
		// whether to hoard the partial placement, and whether the wait
		// has earned a preemption wave.
		fits := feasible(v, j, c.members)
		if fits && running != nil && now-g.waitSince >= c.cfg.PreemptSec &&
			now-g.lastPreempt >= c.cfg.PreemptSec &&
			len(dec.Preempted) < maxPreemptPerRound &&
			c.preemptFor(v, g, placed, running) {
			g.lastPreempt = now
		}
		if g.hoarding && now-g.hoardSince >= c.cfg.HoldSec {
			// Timeout-and-release: return the hoarded capacity and
			// enter cooldown so the next hoard epoch cannot start
			// immediately.
			dec.Releases++
			g.hoarding = false
			g.noHoardUntil = now + c.cfg.HoldSec
		} else if fits && now >= g.noHoardUntil && len(placed) > 0 {
			for _, p := range placed {
				cur, _ := c.res.Get(p.Machine)
				c.res.Put(p.Machine, reserve.Reservation{
					Kind:     reserve.Gang,
					Holder:   j.Job.ID,
					Capacity: cur.Capacity.Add(p.Local),
					Expires:  now + c.cfg.HoldSec,
				})
				c.free[p.Machine] = c.free[p.Machine].Sub(p.Local).Max(resources.Vector{})
			}
			if !g.hoarding {
				g.hoarding, g.hoardSince = true, now
			}
		}
	}

	// Inner round: non-gang and quorum-satisfied jobs, over a view with
	// the gang commits charged (and, when the reservation table is not
	// shared, hoarded machines closed).
	dec.Assignments = append(dec.Assignments, c.innerRound(v)...)
	return *dec
}

// hasGang reports whether v shows a gang job.
func hasGang(v *scheduler.View) bool {
	for _, j := range v.Jobs {
		if j.Job.Gang {
			return true
		}
	}
	return false
}

// beginRound stamps the record of every gang job of v still short of
// quorum, creating it the first round the gang waits, and drops the
// record of a gang whose quorum is met and of every job missing from v.
// It leaves the stamped records in c.gangs in service order — highest
// priority first, then longest waiting, then lowest job ID — and the
// jobs the inner round may see in c.innerJobs, in View order.
func (c *Coordinator) beginRound(v *scheduler.View) {
	c.round++
	c.gangs, c.innerJobs = c.gangs[:0], c.innerJobs[:0]
	for _, j := range v.Jobs {
		if !j.Job.Gang {
			c.innerJobs = append(c.innerJobs, j)
			continue
		}
		need := gangNeed(j)
		if need <= 0 {
			delete(c.jobs, j.Job.ID)
			c.innerJobs = append(c.innerJobs, j)
			continue
		}
		g := c.jobs[j.Job.ID]
		if g == nil {
			g = &record{waitSince: v.Time}
			c.jobs[j.Job.ID] = g
		}
		g.state, g.need, g.seen = j, need, c.round
		c.gangs = append(c.gangs, g)
	}
	if len(c.jobs) > len(c.gangs) {
		for id, g := range c.jobs {
			if g.seen != c.round {
				delete(c.jobs, id)
			}
		}
	}
	slices.SortStableFunc(c.gangs, func(a, b *record) int {
		return cmp.Or(cmp.Compare(b.state.Job.Priority, a.state.Job.Priority),
			cmp.Compare(a.waitSince, b.waitSince),
			cmp.Compare(a.state.Job.ID, b.state.Job.ID))
	})
}

// placeGang first-fits as many of gang g's pending members (c.members)
// as it can against a copy of the free ledger, visiting machines in
// ascending ID order. It stops once g.need members are placed. Machines
// reserved for other holders (starved tasks, other gangs' hoards) are
// closed. Gang members are charged local demand only; their input-block
// remote charges are intentionally not modeled (ML/MPI gangs are
// generated without input locality), which keeps the all-or-nothing
// commit a pure function of the free ledger. The placements, in member
// order, are valid until the next call.
func (c *Coordinator) placeGang(v *scheduler.View, g *record) []scheduler.Assignment {
	c.placed = c.placed[:0]
	if len(c.members) < g.need {
		return c.placed
	}
	c.scratch = append(c.scratch[:0], c.free...)
	for _, task := range c.members {
		if len(c.placed) >= g.need {
			break
		}
		peak := v.DemandPeak(g.state, task)
		for _, m := range v.Machines {
			if m.Down {
				continue
			}
			if r, held := c.res.Get(m.ID); held && r.Holder != g.state.Job.ID {
				continue
			}
			d := scheduler.EffectiveDemand(peak, task, m.ID)
			if !d.FitsIn(c.scratch[m.ID]) {
				continue
			}
			c.scratch[m.ID] = c.scratch[m.ID].Sub(d).Max(resources.Vector{})
			c.placed = append(c.placed, scheduler.Assignment{Task: task, Machine: m.ID, Local: d})
			break
		}
	}
	return c.placed
}

// preemptFor evicts victims for gang g, which placed only placed of its
// members: strictly lower-priority preemptible running tasks, lowest
// priority first, until their freed demand covers the gang's placement
// deficit or the per-round cap is hit. It reports whether it evicted
// any. The freed capacity materializes next round, once the NM kills
// land; this round the gang keeps waiting.
func (c *Coordinator) preemptFor(v *scheduler.View, g *record, placed []scheduler.Assignment, running func() []Running) bool {
	// Deficit: the aggregate local demand of the needed members that
	// first-fit failed to find room for. placed is a subsequence of
	// c.members.
	var deficit resources.Vector
	k, n := 0, 0
	for _, task := range c.members {
		if n == g.need-len(placed) {
			break
		}
		if k < len(placed) && placed[k].Task == task {
			k++
			continue
		}
		deficit = deficit.Add(scheduler.LocalDemand(v.DemandPeak(g.state, task)))
		n++
	}
	budget := maxPreemptPerRound - len(c.dec.Preempted)
	evicted := 0
	var freed resources.Vector
	for i := range c.candidates(running) {
		vic := &c.victims[i]
		if evicted >= budget || vic.Job.Priority >= g.state.Job.Priority {
			// Only strictly lower-priority tasks may be evicted; the
			// victim list is sorted ascending by priority, so nothing
			// later qualifies either.
			break
		}
		if vic.taken {
			continue
		}
		vic.taken = true
		c.dec.Preempted = append(c.dec.Preempted, vic.Task)
		evicted++
		freed = freed.Add(vic.Demand)
		if deficit.FitsIn(freed) {
			break
		}
	}
	return evicted > 0
}

// candidates returns the round's preemption candidates: the preemptible
// running tasks, lowest priority first (then job ID, stage, index) — the
// deterministic eviction order. The first call of a round lists them
// from running; later calls return the same list.
func (c *Coordinator) candidates(running func() []Running) []victim {
	if c.listed == c.round {
		return c.victims
	}
	c.listed = c.round
	c.victims = c.victims[:0]
	for _, r := range running() {
		if r.Job.Preemptible {
			c.victims = append(c.victims, victim{Running: r})
		}
	}
	slices.SortStableFunc(c.victims, func(a, b victim) int {
		return cmp.Or(cmp.Compare(a.Job.Priority, b.Job.Priority),
			cmp.Compare(a.Task.Job, b.Task.Job),
			cmp.Compare(a.Task.Stage, b.Task.Stage),
			cmp.Compare(a.Task.Index, b.Task.Index))
	})
	return c.victims
}

// innerRound runs the wrapped scheduler over the non-gang slice of the
// round: unsatisfied gang jobs are hidden (so the inner scheduler can
// never launch a partial gang), committed gang demand is transiently
// charged to the machines, and — when the reservation table is not
// shared with the inner scheduler — hoarded machines are closed by
// charging their full capacity. All mutations are restored before
// returning; Scheduler implementations must not see them persist.
func (c *Coordinator) innerRound(v *scheduler.View) []scheduler.Assignment {
	clear(c.charge)
	for _, a := range c.dec.Assignments {
		c.charge[a.Machine] = c.charge[a.Machine].Add(a.Local)
	}
	if !c.shared {
		c.res.Each(func(mid int, r reserve.Reservation) {
			if r.Kind == reserve.Gang && mid < len(v.Machines) {
				c.charge[mid] = c.charge[mid].Add(v.Machines[mid].Capacity)
			}
		})
	}
	c.saved = c.saved[:0]
	for mid, ch := range c.charge {
		m := v.Machines[mid]
		c.saved = append(c.saved, savedMachine{mid, m.Allocated, m.Reported})
		m.Allocated = m.Allocated.Add(ch)
		m.Reported = m.Reported.Add(ch)
	}
	inner := *v
	inner.Jobs = c.innerJobs
	out := c.inner.Schedule(&inner)
	for _, s := range c.saved {
		v.Machines[s.id].Allocated = s.alloc
		v.Machines[s.id].Reported = s.rep
	}
	return out
}
