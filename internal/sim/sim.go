// Package sim is a discrete-event, fluid-flow cluster simulator in the
// style of the paper's trace-driven simulator (§5.1): it replays a
// workload's job arrivals, task resource demands, input sizes and
// locations on a modeled cluster, under any scheduling policy.
//
// Tasks progress multiple work components in parallel (compute, local
// reads, writes, and one remote flow per source machine — the terms of
// eqn. 5). Disk and network capacity on every machine is proportionally
// shared among the components demanding it, so when a scheduler
// over-allocates a resource the affected tasks slow down and hold their
// other resources longer — the central pathology the paper measures.
// Memory is never physically over-committed (every policy charges at
// least the task's memory). CPU time-shares like disk and network.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/eventq"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Activity is non-job cluster activity (data ingestion, evacuation,
// re-replication — §4.3) occupying resources on one machine for a time
// interval. The resource tracker reports it; schedulers that listen
// (Tetris) steer around it.
type Activity struct {
	Machine    int
	Start, End float64
	Usage      resources.Vector
}

// Config parameterizes one simulation run.
type Config struct {
	Cluster   *cluster.Cluster
	Workload  *workload.Workload
	Scheduler scheduler.Scheduler
	// Activities lists background activity intervals.
	Activities []Activity
	// SampleEvery records cluster-level utilization samples at this
	// period in seconds (0 disables sampling).
	SampleEvery float64
	// TrackShares accumulates the per-job relative integral unfairness
	// data of §5.3.2.
	TrackShares bool
	// EstimateDemand, when set, is the demand oracle schedulers see
	// instead of true peaks (models §4.1 estimation error).
	EstimateDemand func(j *scheduler.JobState, t *workload.Task) (resources.Vector, float64)
	// MaxTime aborts runs that exceed this simulated time (0 = no limit).
	MaxTime float64
	// RecordTasks keeps a per-task placement record in the result
	// (machine, start, finish) — used by placement-level analyses.
	RecordTasks bool
	// FaultPlan injects machine crash/recover and slowdown events plus
	// straggler tasks (see internal/faults). On a crash the machine's
	// running tasks fail and re-enter the pending pool; the released
	// resources and re-executions fall out of the ordinary metrics.
	FaultPlan *faults.Plan
	// MaxTaskAttempts caps executions per task under the fault plan: a
	// task failing this many times kills its job (recorded in
	// Result.KilledJobs with JobResult.Failed). Zero means unlimited.
	MaxTaskAttempts int
	// TaskFailureProb is the probability that a task fails on completion
	// and must re-execute from scratch (the paper's simulator replays
	// the production traces' failure probabilities; §5.1). Failed
	// attempts count toward TaskDurations; the task returns to the
	// pending pool.
	TaskFailureProb float64
	// CheckInvariants makes the simulator verify, at every event, that no
	// machine's memory is over-committed and that no ledger is negative
	// (checkInvariants), and that the incrementally kept fluid rates and
	// finish estimates equal, bit for bit, a full recomputation from all
	// running tasks (checkRates); and at every scheduling round, that the
	// tracker ledgers equal the vector formula they replaced
	// (checkReported). For tests; costs several passes over the running
	// tasks per event.
	CheckInvariants bool
	// Metrics receives the simulator's telemetry: per-resource
	// utilization and demand gauges, fairness deviation, placement
	// counts, scheduling-round latency (metrics.go). The simulator is
	// single-threaded during Run, so the gauges are plain values the sim
	// loop publishes at sampling instants — a concurrent HTTP scrape
	// sees the last published sample. Nil records into a private
	// registry, exposing nothing.
	Metrics *telemetry.Registry
}

// heartbeatSec batches scheduling rounds: resources freed between
// heartbeats are offered together, as node-manager heartbeats do in the
// real system (§3.5, §5.2.2).
const heartbeatSec = 1.0

// event kinds on the queue.
type evKind int

const (
	evArrival evKind = iota
	evActivityStart
	evActivityEnd
	evSample
	evSchedule
	evFault // idx indexes Config.FaultPlan.Events
)

type event struct {
	kind evKind
	idx  int // job index or activity index
}

// compKind identifies a work component of a running task.
type compKind uint8

const (
	compCPU compKind = iota
	compLocalRead
	compWrite
	compFlow // remote read from src
)

// component is kept to 32 bytes, for the cache lines advance walks.
type component struct {
	remaining float64 // core-seconds (compCPU) or MB (others)
	demand    float64 // peak rate: cores or MB/s
	rate      float64 // current granted rate (same units as demand)
	src       int32   // source machine for compFlow
	kind      compKind
}

type runningTask struct {
	job     *jobRun
	task    *workload.Task
	machine int
	started float64
	comps   []component
	compBuf [3]component // backs comps for a task of up to three
	// finish is finishEstimate at the current rates, kept by advance and
	// recomputeRates.
	finish float64
	// live has bit i set while component i has work left; liveMore holds
	// the bits from component 64 on, 64 a word.
	live     uint64
	liveMore []uint64
	local    resources.Vector         // scheduler's local charge
	remote   []scheduler.RemoteCharge // scheduler's remote charges
	idx      int                      // position in Sim.running (swap-removed)
	// slowdown multiplies this attempt's granted rates: 1 normally,
	// FaultPlan.StragglerFactor when straggler injection picked it.
	slowdown float64
	// gone guards against double removal when a crash or job kill
	// unlinks a task that another code path also holds.
	gone    bool
	rerated bool // queued on Sim.rerated for re-estimation
}

type jobRun struct {
	state   *scheduler.JobState
	arrived bool
	// killed marks a job abandoned because a task exhausted its attempt
	// cap under the fault plan; it counts as terminated for run
	// completion but is reported failed.
	killed bool
	// truePeaks is the sum of actual peak demands of the job's running
	// tasks (scheduler-independent), for fairness accounting.
	truePeaks resources.Vector
	// unfairness accumulators (§5.3.2).
	integral float64
}

// Sim is one simulation run. Create with New, run with Run.
type Sim struct {
	cfg          Config
	clock        float64
	queue        eventq.Queue[event]
	jobs         []*jobRun
	active       []*jobRun // arrived, unfinished
	machines     []*scheduler.MachineState
	total        resources.Vector
	running      []*runningTask
	byMach       [][]*runningTask // running tasks per machine
	background   []resources.Vector
	lastDone     float64 // time of the last task completion (the makespan)
	nextSchedOK  float64 // earliest time the next scheduling round may run
	schedPending bool    // an evSchedule event is queued
	failRand     *rand.Rand
	// Fault-injection state (Config.FaultPlan).
	slow      []float64 // per-machine rate multiplier (1 = full speed)
	crashedAt []float64 // crash time of currently-down machines
	chaosRand *rand.Rand
	faultRing *telemetry.Ring[faults.Record] // bounded fault log; drained into res when Run ends
	metrics   *simMetrics
	res       *Result
	// Scratch for schedule(): the view and its job list are rebuilt every
	// round (the scheduler must not retain them) but reuse one backing
	// array, so a tick allocates nothing on the view-building side.
	view     scheduler.View
	viewJobs []*scheduler.JobState
	// Fluid-rate state (rates.go): one node per machine, then — when the
	// cluster models rack uplinks — one per rack and direction; dirty
	// lists the nodes marked since the last recomputeRates.
	nodes []rateNode
	dirty []int
	racks int // racks with a modelled uplink; 0 when there is none
	// How much of the events' rate work was recomputation: nodes re-summed
	// against nodes left alone, summed over loop iterations.
	rateNodesRecomputed, rateNodesClean uint64
	// Scratch reused across loop iterations and rounds.
	finished []*runningTask // advance: tasks with no work left
	rerated  []*runningTask // recomputeRates: tasks to re-estimate
	victims  []*runningTask // killJob
	srcRates []srcRate      // updateReported
}

// New validates the configuration and prepares a run.
func New(cfg Config) (*Sim, error) {
	if cfg.Cluster == nil || cfg.Workload == nil || cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: cluster, workload and scheduler are required")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.Workload.NumMachines > cfg.Cluster.Size() {
		return nil, fmt.Errorf("sim: workload references %d machines, cluster has %d", cfg.Workload.NumMachines, cfg.Cluster.Size())
	}
	s := &Sim{
		cfg:       cfg,
		res:       newResult(),
		faultRing: faults.NewRing(),
		metrics:   newSimMetrics(cfg.Metrics),
	}
	if cfg.TaskFailureProb > 0 {
		s.failRand = rand.New(rand.NewSource(1))
	}
	for _, m := range cfg.Cluster.Machines {
		s.machines = append(s.machines, &scheduler.MachineState{ID: m.ID, Capacity: m.Capacity})
		s.total = s.total.Add(m.Capacity)
	}
	s.byMach = make([][]*runningTask, len(s.machines))
	s.background = make([]resources.Vector, len(s.machines))
	s.slow = make([]float64, len(s.machines))
	s.crashedAt = make([]float64, len(s.machines))
	for i := range s.slow {
		s.slow[i] = 1
	}
	if r := cfg.Cluster.NumRacks(); r > 1 && cfg.Cluster.CrossRackMbps > 0 {
		s.racks = r
	}
	// Every node starts marked, so the first recomputeRates derives the
	// idle scale factors like any others.
	s.nodes = make([]rateNode, len(s.machines)+2*s.racks)
	s.dirty = make([]int, 0, len(s.nodes))
	for id := range s.nodes {
		s.mark(id)
	}
	if plan := cfg.FaultPlan; !plan.Empty() {
		if err := plan.Validate(len(s.machines)); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		seed := plan.Seed
		if seed == 0 {
			seed = 1
		}
		s.chaosRand = rand.New(rand.NewSource(seed))
		for i, e := range plan.Events {
			s.queue.Push(e.Time, event{kind: evFault, idx: i})
		}
	}
	for i, j := range cfg.Workload.Jobs {
		jr := &jobRun{state: &scheduler.JobState{Job: j, Status: workload.NewStatus(j)}}
		s.jobs = append(s.jobs, jr)
		s.queue.Push(j.Arrival, event{kind: evArrival, idx: i})
	}
	for i, a := range cfg.Activities {
		if a.Machine < 0 || a.Machine >= len(s.machines) {
			return nil, fmt.Errorf("sim: activity %d on machine %d out of range", i, a.Machine)
		}
		s.queue.Push(a.Start, event{kind: evActivityStart, idx: i})
		s.queue.Push(a.End, event{kind: evActivityEnd, idx: i})
	}
	if cfg.SampleEvery > 0 {
		s.queue.Push(0, event{kind: evSample})
	}
	return s, nil
}

// Run executes the simulation to completion and returns its result.
func (s *Sim) Run() (*Result, error) {
	const eps = 1e-9
	needSchedule := false
	if n := s.cfg.Workload.NumTasks(); n > 0 {
		s.res.TaskDurations = make([]float64, 0, n)
		if s.cfg.RecordTasks {
			s.res.Tasks = make([]TaskRecord, 0, n)
		}
	}
	for {
		if s.done() {
			break
		}
		if s.cfg.MaxTime > 0 && s.clock > s.cfg.MaxTime {
			return nil, fmt.Errorf("sim: exceeded MaxTime %v at t=%v (%d jobs unfinished)", s.cfg.MaxTime, s.clock, len(s.active))
		}
		// 1. Fire all events at the current instant.
		for {
			at, ev, ok := s.queue.Peek()
			if !ok || at > s.clock+eps {
				break
			}
			s.queue.Pop()
			switch ev.kind {
			case evArrival:
				jr := s.jobs[ev.idx]
				jr.arrived = true
				s.active = append(s.active, jr)
				needSchedule = true
			case evActivityStart:
				a := s.cfg.Activities[ev.idx]
				s.background[a.Machine] = s.background[a.Machine].Add(a.Usage)
				s.mark(a.Machine)
				needSchedule = true
			case evActivityEnd:
				a := s.cfg.Activities[ev.idx]
				s.background[a.Machine] = s.background[a.Machine].Sub(a.Usage).Max(resources.Vector{})
				s.mark(a.Machine)
				needSchedule = true
			case evSample:
				s.sample()
				s.queue.Push(s.clock+s.cfg.SampleEvery, event{kind: evSample})
			case evSchedule:
				s.schedPending = false
				needSchedule = true
			case evFault:
				s.applyFault(s.cfg.FaultPlan.Events[ev.idx])
				needSchedule = true
			}
		}
		// 2. Scheduling round, rate-limited to the heartbeat period.
		if needSchedule {
			if s.clock+eps >= s.nextSchedOK {
				if err := s.schedule(); err != nil {
					return nil, err
				}
				s.nextSchedOK = s.clock + heartbeatSec
			} else if !s.schedPending {
				s.queue.Push(s.nextSchedOK, event{kind: evSchedule})
				s.schedPending = true
			}
			needSchedule = false
		}
		// 3. Recompute fluid rates and find the next completion.
		s.recomputeRates()
		if s.cfg.CheckInvariants {
			if err := s.checkRates(); err != nil {
				return nil, err
			}
		}
		nextFinish := math.Inf(1)
		for _, rt := range s.running {
			if rt.finish < nextFinish {
				nextFinish = rt.finish
			}
		}
		nextEvent := math.Inf(1)
		if at, _, ok := s.queue.Peek(); ok {
			nextEvent = at
		}
		next := math.Min(s.clock+nextFinish, nextEvent)
		if math.IsInf(next, 1) {
			if len(s.active) > 0 {
				return nil, fmt.Errorf("sim: deadlock at t=%v: %d active jobs, nothing running, no events", s.clock, len(s.active))
			}
			break
		}
		if s.cfg.MaxTime > 0 && next > s.cfg.MaxTime {
			return nil, fmt.Errorf("sim: exceeded MaxTime %v (next event at t=%v, %d jobs unfinished)", s.cfg.MaxTime, next, len(s.active))
		}
		// 4. Advance work to the next instant, noting what it finishes.
		dt := next - s.clock
		if dt < 0 {
			dt = 0
		}
		if s.cfg.TrackShares {
			s.accumulateShares(dt)
		}
		s.advance(dt)
		s.clock = next
		// 5. Complete tasks whose components are all done.
		if s.completeFinished() {
			needSchedule = true
		}
		if s.cfg.CheckInvariants {
			if err := s.checkInvariants(); err != nil {
				return nil, err
			}
		}
		// Resources are also reclaimed between completions (ramp-up
		// allowances decay, IO components finish): while anything runs,
		// keep scheduling rounds coming at the heartbeat cadence.
		if len(s.running) > 0 {
			needSchedule = true
		}
	}
	s.metrics.observeRateNodes(s.rateNodesRecomputed, s.rateNodesClean)
	s.res.Makespan = s.lastDone
	s.res.FaultEvents = s.faultRing.Snapshot()
	s.res.DroppedFaultEvents = s.faultRing.Dropped()
	return s.res, nil
}

func (s *Sim) done() bool {
	if len(s.running) > 0 || s.queue.Len() > 0 && s.pendingNonSample() {
		return false
	}
	for _, jr := range s.jobs {
		if !jr.state.Status.Finished() && !jr.killed {
			return false
		}
	}
	return true
}

// pendingNonSample reports whether any queued event other than sampling
// or fault injection remains (neither alone must keep the simulation
// alive once every job has terminated).
func (s *Sim) pendingNonSample() bool {
	// The queue does not support iteration; approximate by checking the
	// head. Sampling events are pushed one at a time, so if the head is a
	// sample (or a fault, which cannot create work) and nothing else is
	// pending the simulation can stop: job arrivals and activities are
	// all in the queue from the start.
	_, ev, ok := s.queue.Peek()
	if !ok {
		return false
	}
	if ev.kind != evSample && ev.kind != evFault {
		return true
	}
	// Head is a sample or fault: any remaining arrivals/activities would
	// sort at their own times; we conservatively scan jobs instead.
	for _, jr := range s.jobs {
		if !jr.arrived {
			return true
		}
	}
	return false
}

// schedule invokes the policy and applies its assignments. It fails only
// when Config.CheckInvariants finds the tracker ledgers wrong.
func (s *Sim) schedule() error {
	// Drop finished and killed jobs from the active list.
	act := s.active[:0]
	for _, jr := range s.active {
		if !jr.state.Status.Finished() && !jr.killed {
			act = append(act, jr)
		}
	}
	s.active = act
	if len(s.active) == 0 {
		return nil
	}
	v := &s.view
	*v = scheduler.View{
		Time:           s.clock,
		Machines:       s.machines,
		Total:          s.total,
		EstimateDemand: s.cfg.EstimateDemand,
		Jobs:           s.viewJobs[:0],
	}
	for _, jr := range s.active {
		v.Jobs = append(v.Jobs, jr.state)
	}
	s.viewJobs = v.Jobs
	s.updateReported()
	if s.cfg.CheckInvariants {
		if err := s.checkReported(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	var asgs []scheduler.Assignment
	var gdec *gang.Decision
	if gc, ok := s.cfg.Scheduler.(*gang.Coordinator); ok {
		dec := gc.Decide(v, s.gangRunning)
		gdec = &dec
		asgs = dec.Assignments
	} else {
		asgs = s.cfg.Scheduler.Schedule(v)
	}
	s.metrics.scheduleRound.Observe(time.Since(t0).Seconds())
	s.metrics.scans.Observe(s.cfg.Scheduler)
	s.metrics.observeRateNodes(s.rateNodesRecomputed, s.rateNodesClean)
	s.metrics.placements.Add(uint64(len(asgs)))
	for _, a := range asgs {
		s.start(a)
	}
	if gdec != nil {
		s.applyGangDecision(gdec)
	}
	return nil
}

// gangRunning lists the running attempts as the gang coordinator's
// preemption candidates.
func (s *Sim) gangRunning() []gang.Running {
	run := make([]gang.Running, 0, len(s.running))
	for _, rt := range s.running {
		run = append(run, gang.Running{Task: rt.task.ID, Job: rt.job.state.Job, Demand: rt.local})
	}
	return run
}

// applyGangDecision acts on the non-assignment parts of a gang round:
// preempted attempts fail through the normal fault path (released,
// requeued, attempt counted — like a crash kill), and commit/release
// events land in the result's gang accounting.
func (s *Sim) applyGangDecision(dec *gang.Decision) {
	for _, tid := range dec.Preempted {
		for _, rt := range s.running {
			if rt.task.ID == tid {
				s.failTask(rt)
				s.res.Preemptions++
				break
			}
		}
	}
	for _, wait := range dec.CommitWaits {
		s.res.GangCommits++
		s.res.GangWaits = append(s.res.GangWaits, wait)
	}
	s.res.GangReleases += dec.Releases
}

// start applies one assignment: ledgers, status, fluid components.
func (s *Sim) start(a scheduler.Assignment) {
	jr := s.jobs[a.Task.ID.Job]
	jr.state.Status.MarkRunning(a.Task.ID)
	jr.state.Alloc = jr.state.Alloc.Add(a.Local)
	jr.truePeaks = jr.truePeaks.Add(a.Task.Peak)
	// Machine ledgers (Allocated) are recomputed wholesale by
	// updateReported before every scheduling round; within a round the
	// scheduler tracks its own decrements.

	rt := &runningTask{
		job:      jr,
		task:     a.Task,
		machine:  a.Machine,
		started:  s.clock,
		local:    a.Local,
		remote:   a.Remote,
		idx:      len(s.running),
		slowdown: 1,
	}
	rt.comps = rt.compBuf[:0]
	// Straggler injection: some attempts run degraded (a bad disk, a
	// contended host) — the re-execution pressure the paper's production
	// traces contain.
	if plan := s.cfg.FaultPlan; plan != nil && plan.StragglerProb > 0 &&
		s.chaosRand.Float64() < plan.StragglerProb {
		rt.slowdown = plan.StragglerFactor
		s.res.Stragglers++
	}
	t := a.Task
	if t.Work.CPUSeconds > 0 {
		rt.comps = append(rt.comps, component{kind: compCPU, remaining: t.Work.CPUSeconds, demand: t.Peak.Get(resources.CPU)})
	}
	if t.Work.WriteMB > 0 {
		rt.comps = append(rt.comps, component{kind: compWrite, remaining: t.Work.WriteMB, demand: t.Peak.Get(resources.DiskWrite)})
	}
	// Input blocks: local ones read from this machine's disks, remote
	// ones summed per source machine in ascending source order — the
	// component order is part of the floating-point result.
	var localMB float64
	var flowBuf [12]component
	flows := flowBuf[:0]
	for _, b := range t.Inputs {
		if b.SizeMB <= 0 {
			continue
		}
		if b.Machine < 0 || b.Machine == a.Machine {
			localMB += b.SizeMB
			continue
		}
		i := 0
		for i < len(flows) && int(flows[i].src) < b.Machine {
			i++
		}
		if i == len(flows) || int(flows[i].src) != b.Machine {
			flows = append(flows, component{})
			copy(flows[i+1:], flows[i:])
			flows[i] = component{kind: compFlow, src: int32(b.Machine)}
		}
		flows[i].remaining += b.SizeMB
	}
	if localMB > 0 {
		rt.comps = append(rt.comps, component{kind: compLocalRead, remaining: localMB, demand: t.Peak.Get(resources.DiskRead)})
		s.res.LocalReadMB += localMB
	}
	remoteTotal := t.RemoteInputMB(a.Machine)
	for _, f := range flows {
		// Each flow's peak byte rate is its share of the task's
		// achievable remote-read rate (disk- and network-capped).
		f.demand = t.FlowCapMBps() * (f.remaining / remoteTotal)
		rt.comps = append(rt.comps, f)
		s.res.RemoteReadMB += f.remaining
	}
	s.running = append(s.running, rt)
	s.byMach[a.Machine] = append(s.byMach[a.Machine], rt)
	if len(rt.comps) == 0 {
		// Degenerate zero-work task: completes instantly on the next pass.
		rt.comps = append(rt.comps, component{kind: compCPU, remaining: 0, demand: 1})
	}
	if n := (len(rt.comps) + 63) / 64; n > 1 {
		rt.liveMore = make([]uint64, n-1)
	}
	for i := range rt.comps {
		if rt.comps[i].remaining > 0 {
			*rt.liveWord(i / 64) |= 1 << (i % 64)
		}
	}
	s.enlist(rt)
}

// finishEstimate returns seconds until this task completes at current
// rates (infinite if any component is starved). advance computes it in
// its stepping pass; checkRates holds every stored value to this.
func (rt *runningTask) finishEstimate() float64 {
	worst := 0.0
	for i := range rt.comps {
		c := &rt.comps[i]
		if c.remaining <= 0 {
			continue
		}
		if c.rate <= 0 {
			return math.Inf(1)
		}
		if t := c.remaining / c.rate; t > worst {
			worst = t
		}
	}
	return worst
}

// advance progresses every live component by dt at its current rate —
// all of them on every call: stepping a component later over a longer dt
// would round differently — stores each task's finishEstimate at the
// rates it ran at, and collects in s.finished, in running order, the
// tasks left with nothing to do. The live mask takes it past finished
// components, which are 45 % of them on the Facebook trace.
func (s *Sim) advance(dt float64) {
	s.finished = s.finished[:0]
	for _, rt := range s.running {
		busy := false
		worst := 0.0 // finishEstimate's maximum; +Inf stays
		for w := 0; w <= len(rt.liveMore); w++ {
			word := rt.liveWord(w)
			for m := *word; m != 0; m &= m - 1 {
				c := &rt.comps[w*64+bits.TrailingZeros64(m)]
				if dt > 0 {
					c.remaining -= c.rate * dt
					if c.remaining < 1e-9 {
						c.remaining, c.rate = 0, 0
						*word &^= m & -m
						s.markComp(rt, c) // its share returns to the others
						continue
					}
				}
				busy = true
				if c.rate <= 0 {
					worst = math.Inf(1)
				} else if t := c.remaining / c.rate; t > worst {
					worst = t
				}
			}
		}
		rt.finish = worst
		if !busy {
			s.finished = append(s.finished, rt)
		}
	}
}

// liveWord returns word w of the task's live-component mask.
func (rt *runningTask) liveWord(w int) *uint64 {
	if w == 0 {
		return &rt.live
	}
	return &rt.liveMore[w-1]
}

// completeFinished retires the tasks advance found finished; returns
// whether anything completed.
func (s *Sim) completeFinished() bool {
	done := s.finished
	for _, rt := range done {
		if rt.gone {
			continue // removed by a job kill triggered earlier in this loop
		}
		id := rt.task.ID
		s.unlink(rt)
		jr := rt.job
		if s.failRand != nil && s.failRand.Float64() < s.cfg.TaskFailureProb {
			// The attempt failed: release everything, return the task to
			// the pending pool, and count the wasted attempt.
			jr.state.Status.MarkFailed(id)
			s.res.FailedAttempts++
			s.res.TaskDurations = append(s.res.TaskDurations, s.clock-rt.started)
			if cap := s.cfg.MaxTaskAttempts; cap > 0 && jr.state.Status.Attempts(id) >= cap {
				s.killJob(jr)
			}
			continue
		}
		jr.state.Status.MarkDone(id)
		s.lastDone = s.clock
		s.res.TaskDurations = append(s.res.TaskDurations, s.clock-rt.started)
		if s.cfg.RecordTasks {
			s.res.Tasks = append(s.res.Tasks, TaskRecord{
				Task: id, Machine: rt.machine, Start: rt.started, Finish: s.clock,
			})
		}
		if jr.state.Status.Finished() {
			j := jr.state.Job
			s.res.Jobs[j.ID] = JobResult{
				Arrival:    j.Arrival,
				Finish:     s.clock,
				JCT:        s.clock - j.Arrival,
				NumTasks:   j.NumTasks(),
				Unfairness: jr.integral,
			}
		}
	}
	return len(done) > 0
}

// accumulateShares advances the §5.3.2 unfairness integrals by dt:
// ∫ (a(t) − f(t))/f(t) dt over each job's lifetime, where a(t) is the
// job's dominant share of its running tasks' true peak demands and f(t)
// its weight-proportional fair share among active jobs.
func (s *Sim) accumulateShares(dt float64) {
	if dt <= 0 || len(s.active) == 0 {
		return
	}
	var totalWeight float64
	for _, jr := range s.active {
		if !jr.state.Status.Finished() {
			totalWeight += jr.state.Job.Weight
		}
	}
	if totalWeight == 0 {
		return
	}
	for _, jr := range s.active {
		if jr.state.Status.Finished() {
			continue
		}
		fair := jr.state.Job.Weight / totalWeight
		_, share := resources.DominantShare(jr.truePeaks, s.total)
		if share <= fair && !jr.state.Status.HasRunnable() {
			// The job is below its fair share but has nothing runnable
			// (barrier wait, or simply a small job): it is satisfied,
			// not deprived — unfairness measures service denied while
			// wanted.
			continue
		}
		jr.integral += (share - fair) / fair * dt
	}
}

// checkInvariants verifies physical and bookkeeping invariants (enabled
// by Config.CheckInvariants):
//
//   - no machine's physical memory is over-committed by running tasks'
//     true peaks (every policy charges at least the task's memory);
//   - ledgers and reports are non-negative;
//   - the running list and the per-machine index agree.
func (s *Sim) checkInvariants() error {
	const eps = 1e-6
	byMachCount := 0
	for m, lst := range s.byMach {
		if s.machines[m].Down && len(lst) > 0 {
			return fmt.Errorf("sim: %d tasks still on crashed machine %d at t=%.2f", len(lst), m, s.clock)
		}
		var mem float64
		for _, rt := range lst {
			if rt.machine != m {
				return fmt.Errorf("sim: task %v in byMach[%d] but placed on %d", rt.task.ID, m, rt.machine)
			}
			mem += rt.task.Peak.Get(resources.Memory)
		}
		byMachCount += len(lst)
		if capMem := s.machines[m].Capacity.Get(resources.Memory); mem > capMem*(1+eps)+eps {
			return fmt.Errorf("sim: machine %d memory over-committed: %.2f > %.2f at t=%.2f", m, mem, capMem, s.clock)
		}
		if !s.machines[m].Allocated.NonNegative() || !s.machines[m].Reported.NonNegative() {
			return fmt.Errorf("sim: machine %d negative ledger at t=%.2f", m, s.clock)
		}
	}
	if byMachCount != len(s.running) {
		return fmt.Errorf("sim: byMach holds %d tasks, running list %d", byMachCount, len(s.running))
	}
	return nil
}
