// Package faults provides the fault-injection and recovery primitives
// shared by both execution backends: deterministic, seeded fault plans
// (machine crash/recover events, machine slowdowns, straggler
// injection) consumed by the simulator, a heartbeat-timeout failure
// detector used by the resource manager, and an exponential backoff
// with jitter used by node and job managers when reconnecting.
//
// The paper's evaluation replays production traces in which machines
// fail and tasks re-execute (§5.1); this package makes machine
// availability a first-class scheduling input, in the spirit of
// scheduling under stochastic resource behaviour (Psychas & Ghaderi,
// arXiv:1901.05998) and fractional scheduling under churn (Casanova et
// al., arXiv:1106.4985).
//
// Data durability model: input blocks are assumed replicated (as in
// HDFS), so a machine crash destroys compute — its running tasks and
// capacity — but never data. Remote reads sourced at a crashed machine
// are served by a replica at the same modeled cost.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/tetris-sched/tetris/internal/telemetry"
)

// Kind identifies one fault event type.
type Kind int

// Fault event kinds.
const (
	// MachineCrash removes a machine: its running tasks fail and its
	// capacity disappears until a matching MachineRecover.
	MachineCrash Kind = iota
	// MachineRecover returns a crashed machine to service, empty.
	MachineRecover
	// SlowdownStart degrades every task on a machine to Factor of its
	// granted rates (a failing disk, a noisy neighbour VM).
	SlowdownStart
	// SlowdownEnd restores full speed.
	SlowdownEnd
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case MachineCrash:
		return "crash"
	case MachineRecover:
		return "recover"
	case SlowdownStart:
		return "slowdown-start"
	case SlowdownEnd:
		return "slowdown-end"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one planned fault.
type Event struct {
	Time    float64 `json:"time"`
	Kind    Kind    `json:"kind"`
	Machine int     `json:"machine"`
	// Factor is the rate multiplier of a SlowdownStart in (0,1].
	Factor float64 `json:"factor,omitempty"`
}

// Plan is a deterministic fault schedule. Events are sorted by time;
// ties resolve in slice order, so identical plans replay identically.
type Plan struct {
	Events []Event `json:"events,omitempty"`
	// StragglerProb is the probability that a newly started task is a
	// straggler running at StragglerFactor of its granted rates —
	// task-level slowdown injection, decided by a coin seeded with Seed.
	StragglerProb   float64 `json:"stragglerProb,omitempty"`
	StragglerFactor float64 `json:"stragglerFactor,omitempty"`
	// Seed drives the straggler coin flips (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Events) == 0 && p.StragglerProb <= 0)
}

// Crashes returns the number of MachineCrash events.
func (p *Plan) Crashes() int {
	n := 0
	for _, e := range p.Events {
		if e.Kind == MachineCrash {
			n++
		}
	}
	return n
}

// Validate checks the plan against a cluster of numMachines machines:
// events in time order, machines in range, crash/recover and
// slowdown-start/end strictly alternating per machine, factors in (0,1].
func (p *Plan) Validate(numMachines int) error {
	if p == nil {
		return nil
	}
	if p.StragglerProb < 0 || p.StragglerProb > 1 {
		return fmt.Errorf("faults: straggler probability %v outside [0,1]", p.StragglerProb)
	}
	if p.StragglerProb > 0 && (p.StragglerFactor <= 0 || p.StragglerFactor > 1) {
		return fmt.Errorf("faults: straggler factor %v outside (0,1]", p.StragglerFactor)
	}
	down := make(map[int]bool)
	slow := make(map[int]bool)
	last := 0.0
	for i, e := range p.Events {
		if e.Time < 0 {
			return fmt.Errorf("faults: event %d at negative time %v", i, e.Time)
		}
		if e.Time < last {
			return fmt.Errorf("faults: event %d out of time order (%v after %v)", i, e.Time, last)
		}
		last = e.Time
		if e.Machine < 0 || e.Machine >= numMachines {
			return fmt.Errorf("faults: event %d machine %d out of range [0,%d)", i, e.Machine, numMachines)
		}
		switch e.Kind {
		case MachineCrash:
			if down[e.Machine] {
				return fmt.Errorf("faults: event %d crashes machine %d twice", i, e.Machine)
			}
			down[e.Machine] = true
		case MachineRecover:
			if !down[e.Machine] {
				return fmt.Errorf("faults: event %d recovers machine %d that is up", i, e.Machine)
			}
			down[e.Machine] = false
		case SlowdownStart:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("faults: event %d slowdown factor %v outside (0,1]", i, e.Factor)
			}
			if slow[e.Machine] {
				return fmt.Errorf("faults: event %d slows machine %d twice", i, e.Machine)
			}
			slow[e.Machine] = true
		case SlowdownEnd:
			if !slow[e.Machine] {
				return fmt.Errorf("faults: event %d ends a slowdown machine %d does not have", i, e.Machine)
			}
			slow[e.Machine] = false
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// PlanConfig parameterizes Generate.
type PlanConfig struct {
	// Seed makes the plan (and its straggler coin) reproducible
	// (default 1).
	Seed int64
	// Machines is the cluster size the plan targets (required).
	Machines int
	// Horizon is the time window faults are injected into, in simulated
	// seconds (required). Crashes land in [0.05, 0.7]×Horizon so the
	// cluster sees churn while work is in flight.
	Horizon float64
	// CrashFraction of machines crash once each (rounded up when > 0).
	CrashFraction float64
	// MeanDowntime is the mean crash→recover delay in seconds,
	// exponentially distributed (default Horizon/10). Downtimes are
	// clamped to at least one second.
	MeanDowntime float64
	// SlowdownFraction of machines suffer one slowdown interval.
	SlowdownFraction float64
	// SlowdownFactor is the degraded rate multiplier (default 0.5).
	SlowdownFactor float64
	// MeanSlowdown is the mean slowdown duration (default Horizon/10).
	MeanSlowdown float64
	// StragglerProb / StragglerFactor pass through to the plan.
	StragglerProb   float64
	StragglerFactor float64
}

// Generate builds a deterministic fault plan: the same config always
// yields the same plan, event for event.
func Generate(cfg PlanConfig) *Plan {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	r := rand.New(rand.NewSource(seed))
	p := &Plan{
		Seed:            seed,
		StragglerProb:   cfg.StragglerProb,
		StragglerFactor: cfg.StragglerFactor,
	}
	if p.StragglerProb > 0 && p.StragglerFactor == 0 {
		p.StragglerFactor = 0.5
	}
	if cfg.Machines <= 0 || cfg.Horizon <= 0 {
		return p
	}
	meanDown := cfg.MeanDowntime
	if meanDown <= 0 {
		meanDown = cfg.Horizon / 10
	}
	meanSlow := cfg.MeanSlowdown
	if meanSlow <= 0 {
		meanSlow = cfg.Horizon / 10
	}
	slowFactor := cfg.SlowdownFactor
	if slowFactor <= 0 || slowFactor > 1 {
		slowFactor = 0.5
	}
	nCrash := count(cfg.CrashFraction, cfg.Machines)
	nSlow := count(cfg.SlowdownFraction, cfg.Machines)
	crashVictims := r.Perm(cfg.Machines)[:nCrash]
	slowVictims := r.Perm(cfg.Machines)[:nSlow]
	for _, m := range crashVictims {
		at := (0.05 + 0.65*r.Float64()) * cfg.Horizon
		down := r.ExpFloat64() * meanDown
		if down < 1 {
			down = 1
		}
		p.Events = append(p.Events,
			Event{Time: at, Kind: MachineCrash, Machine: m},
			Event{Time: at + down, Kind: MachineRecover, Machine: m})
	}
	for _, m := range slowVictims {
		at := (0.05 + 0.65*r.Float64()) * cfg.Horizon
		dur := r.ExpFloat64() * meanSlow
		if dur < 1 {
			dur = 1
		}
		p.Events = append(p.Events,
			Event{Time: at, Kind: SlowdownStart, Machine: m, Factor: slowFactor},
			Event{Time: at + dur, Kind: SlowdownEnd, Machine: m})
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Time < p.Events[j].Time })
	return p
}

// count converts a fraction of n into a whole count, rounding up so any
// positive fraction injects at least one fault.
func count(frac float64, n int) int {
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	c := int(frac * float64(n))
	if float64(c) < frac*float64(n) {
		c++
	}
	if c > n {
		c = n
	}
	return c
}

// Record is one observed fault or recovery, logged by the simulator
// (sim.Result.FaultEvents) and the resource manager so experiments can
// report recovery behaviour.
type Record struct {
	Time    float64 `json:"time"`
	Kind    Kind    `json:"kind"`
	Machine int     `json:"machine"`
	// TasksKilled is the number of running (or queued) tasks failed and
	// returned to the pending pool by a crash.
	TasksKilled int `json:"tasksKilled,omitempty"`
	// Downtime is, on a recover/rejoin record, the seconds the machine
	// was out of service — the per-event recovery latency.
	Downtime float64 `json:"downtime,omitempty"`
}

// DefaultRingCap is a fault log's capacity.
const DefaultRingCap = 1024

// NewRing returns a bounded fault log: the most recent DefaultRingCap
// records, evictions counted, so a long-running RM or simulation logging
// every crash and recovery does not grow its log forever under churn.
func NewRing() *telemetry.Ring[Record] {
	return telemetry.NewRing[Record](DefaultRingCap)
}

// RecoveryStats summarizes a fault log.
type RecoveryStats struct {
	Crashes     int
	Recoveries  int
	TasksKilled int
	// MeanDowntime and MaxDowntime are over recover records.
	MeanDowntime float64
	MaxDowntime  float64

	downtime float64 // the sum MeanDowntime divides
}

// Add folds one record into the statistics, so a log that evicts old
// records can still be summarized whole as it is written.
func (st *RecoveryStats) Add(r Record) {
	switch r.Kind {
	case MachineCrash:
		st.Crashes++
		st.TasksKilled += r.TasksKilled
	case MachineRecover:
		st.Recoveries++
		st.downtime += r.Downtime
		st.MeanDowntime = st.downtime / float64(st.Recoveries)
		if r.Downtime > st.MaxDowntime {
			st.MaxDowntime = r.Downtime
		}
	}
}

// Summarize aggregates a fault log into recovery statistics.
func Summarize(log []Record) RecoveryStats {
	var st RecoveryStats
	for _, r := range log {
		st.Add(r)
	}
	return st
}
