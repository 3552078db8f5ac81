// Package tetris is a Go implementation of Tetris, the multi-resource
// cluster scheduler of "Multi-Resource Packing for Cluster Schedulers"
// (Grandl, Ananthanarayanan, Kandula, Rao, Akella — SIGCOMM 2014).
//
// Tetris packs tasks onto machines using all of their resource demands —
// CPU, memory, disk read/write bandwidth and network in/out bandwidth —
// scoring each feasible (task, machine) pair by the dot product of the
// task's demand vector and the machine's available-resource vector, and
// combining that alignment with a multi-resource shortest-remaining-
// time-first job score, a fairness knob and barrier-aware preferences.
//
// The module contains:
//
//   - the Tetris scheduling policy plus the baselines the paper compares
//     against (slot-based fair scheduling and Dominant Resource
//     Fairness), behind a single Scheduler interface;
//   - a trace-driven, fluid-flow cluster simulator;
//   - a calibrated synthetic workload generator reproducing the
//     published production-trace statistics;
//   - a distributed prototype (resource manager, node managers and job
//     managers over TCP) mirroring the paper's YARN integration;
//   - runners that regenerate every table and figure of the paper's
//     evaluation (see cmd/tetris-bench and EXPERIMENTS.md).
//
// # Quick start
//
//	cl := tetris.NewFacebookCluster(20)
//	wl := tetris.GenerateWorkload(tetris.TraceConfig{Seed: 1, NumJobs: 40, NumMachines: 20})
//	res, err := tetris.Simulate(tetris.SimConfig{
//		Cluster:   cl,
//		Workload:  wl,
//		Scheduler: tetris.NewScheduler(tetris.DefaultConfig()),
//	})
//	if err != nil { ... }
//	fmt.Println(res.Makespan, res.AvgJCT())
//
// See examples/ for complete programs.
package tetris

import (
	"github.com/tetris-sched/tetris/internal/bound"
	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/sim"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Resource model.
type (
	// Vector is a point in the six-dimensional resource space: cores, GB
	// of memory, MB/s disk read, MB/s disk write, Mb/s network in, Mb/s
	// network out.
	Vector = resources.Vector
	// ResourceKind identifies one dimension of a Vector.
	ResourceKind = resources.Kind
)

// Resource dimensions.
const (
	CPU       = resources.CPU
	Memory    = resources.Memory
	DiskRead  = resources.DiskRead
	DiskWrite = resources.DiskWrite
	NetIn     = resources.NetIn
	NetOut    = resources.NetOut
)

// NewVector builds a resource vector from the six dimension values in
// canonical order (cores, GB, MB/s, MB/s, Mb/s, Mb/s).
func NewVector(cpu, mem, diskR, diskW, netIn, netOut float64) Vector {
	return resources.New(cpu, mem, diskR, diskW, netIn, netOut)
}

// Workload model.
type (
	// Workload is a set of jobs plus the machine universe their input
	// blocks refer to.
	Workload = workload.Workload
	// Job is a DAG of stages with barrier dependencies.
	Job = workload.Job
	// Stage is a set of statistically similar tasks.
	Stage = workload.Stage
	// Task is the schedulable unit: peak demands plus work totals.
	Task = workload.Task
	// TaskID names a task (job, stage, index).
	TaskID = workload.TaskID
	// InputBlock is one piece of task input resident on a machine.
	InputBlock = workload.InputBlock
	// Work holds a task's total work (cpu-seconds, MB written).
	Work = workload.Work
)

// Cluster model.
type (
	// Cluster is a set of machines organized into racks.
	Cluster = cluster.Cluster
	// Machine is one server with a multi-resource capacity.
	Machine = cluster.Machine
)

// NewCluster builds a cluster of n identical machines.
func NewCluster(n int, capacity Vector, rackSize int) *Cluster {
	return cluster.New(n, capacity, rackSize)
}

// NewFacebookCluster builds an n-machine cluster with the Facebook
// trace-replay profile of the paper (16 cores, 32 GB, 4×50 MB/s disks,
// 1 Gbps NICs).
func NewFacebookCluster(n int) *Cluster { return cluster.NewFacebook(n) }

// NewDeploymentCluster builds an n-machine cluster approximating the
// paper's 250-machine deployment (10 Gbps NICs, 2.5× oversubscribed rack
// uplinks).
func NewDeploymentCluster(n int) *Cluster { return cluster.NewDeployment(n) }

// Scheduling policies.
type (
	// Scheduler is a pluggable scheduling policy.
	Scheduler = scheduler.Scheduler
	// Config parameterizes the Tetris scheduler: fairness knob, barrier
	// knob, remote penalty, ε multiplier, alignment scorer.
	Config = scheduler.TetrisConfig
	// Scorer is an alignment-score heuristic (Table 8 alternatives).
	Scorer = scheduler.Scorer
	// Assignment is one task→machine placement decision.
	Assignment = scheduler.Assignment
	// View is the cluster snapshot a Scheduler decides over.
	View = scheduler.View
)

// DefaultConfig returns the paper's default operating point: fairness
// knob f=0.25, barrier knob b=0.9, 10% remote penalty, ε=ā/p̄ and cosine
// alignment.
func DefaultConfig() Config { return scheduler.DefaultTetrisConfig() }

// NewScheduler creates a Tetris scheduler.
func NewScheduler(cfg Config) Scheduler { return scheduler.NewTetris(cfg) }

// NewSlotFairScheduler creates the slot-based fair ("capacity")
// scheduler baseline: memory-defined slots, fair slot shares, no
// awareness of CPU, disk or network.
func NewSlotFairScheduler() Scheduler { return scheduler.NewSlotFair() }

// NewDRFScheduler creates the Dominant Resource Fairness baseline over
// CPU and memory.
func NewDRFScheduler() Scheduler { return scheduler.NewDRF() }

// Scorers returns all implemented alignment heuristics (cosine,
// L2-norm-diff, L2-norm-ratio, FFD-prod, FFD-sum).
func Scorers() []Scorer { return scheduler.Scorers() }

// Simulation.
type (
	// SimConfig parameterizes one simulation run.
	SimConfig = sim.Config
	// Result aggregates a run's outcome: makespan, per-job completion
	// times, utilization samples, unfairness integrals.
	Result = sim.Result
	// JobResult is one job's outcome.
	JobResult = sim.JobResult
	// Activity is non-job background activity (ingestion, evacuation).
	Activity = sim.Activity
)

// Simulate runs one simulation to completion.
func Simulate(cfg SimConfig) (*Result, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Improvement returns 100×(baseline−ours)/baseline, the paper's gain
// metric.
func Improvement(baseline, ours float64) float64 { return sim.Improvement(baseline, ours) }

// PerJobImprovement returns per-job JCT improvements of ours over base.
func PerJobImprovement(base, ours *Result) []float64 { return sim.PerJobImprovement(base, ours) }

// UpperBound computes the §2.2.3 aggregate upper bound on packing gains
// for a workload on a cluster.
func UpperBound(cl *Cluster, wl *Workload) (*Result, error) { return bound.Run(cl, wl) }

// Workload generation.
type (
	// TraceConfig parameterizes synthetic workload generation.
	TraceConfig = trace.Config
	// TraceSummary holds §2.2-style workload statistics.
	TraceSummary = trace.Summary
)

// GenerateWorkload builds the §5.1 workload suite: jobs drawn from the
// four size/selectivity classes with uniform arrivals.
func GenerateWorkload(cfg TraceConfig) *Workload { return trace.GenerateSuite(cfg) }

// GenerateFacebookWorkload builds a heavy-tailed Facebook-like trace.
func GenerateFacebookWorkload(cfg TraceConfig) *Workload { return trace.GenerateFacebookLike(cfg) }

// SummarizeWorkload computes demand dispersion and correlation
// statistics (Tables 2–3, Figure 2).
func SummarizeWorkload(wl *Workload) *TraceSummary { return trace.Summarize(wl) }

// SaveWorkload writes a workload as JSON to the named file.
func SaveWorkload(path string, wl *Workload) error { return trace.SaveFile(path, wl) }

// LoadWorkload reads a workload from the named file.
func LoadWorkload(path string) (*Workload, error) { return trace.LoadFile(path) }

// GangConfig parameterizes the gang coordinator: hold timeout,
// preemption deadline and wave spacing.
type GangConfig = gang.Config

// DefaultGangConfig returns the gang coordinator's default operating
// point.
func DefaultGangConfig() GangConfig { return gang.DefaultConfig() }

// NewGangCoordinator wraps inner with the gang-admission layer: gang
// jobs are admitted all-or-nothing, hoarded placements time out and are
// released, and low-priority preemptible tasks may be evicted for a
// waiting gang; singletons pass through. The simulator recognizes the
// coordinator and acts on its preemptions, commits and releases.
func NewGangCoordinator(inner Scheduler, cfg GangConfig) Scheduler {
	return gang.New(inner, cfg)
}

// GenerateGangWorkload builds the gang-scenario mix: gangFraction
// ML/MPI gang jobs among small preemptible batch fillers (≤0 defaults
// to 0.3).
func GenerateGangWorkload(cfg TraceConfig, gangFraction float64) *Workload {
	return trace.GenerateGangMix(cfg, gangFraction)
}

// Fault injection & recovery.
type (
	// FaultPlan is a deterministic schedule of machine crashes,
	// recoveries and slowdowns, plus straggler-injection knobs.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault (time, kind, machine, factor).
	FaultEvent = faults.Event
	// FaultPlanConfig parameterizes random fault-plan generation.
	FaultPlanConfig = faults.PlanConfig
	// FaultRecord is one observed fault event: what happened, to which
	// machine, how many task attempts it killed, how long it lasted.
	FaultRecord = faults.Record
	// RecoveryStats aggregates a run's fault records.
	RecoveryStats = faults.RecoveryStats
)

// GenerateFaultPlan builds a seeded random fault plan: identical configs
// yield identical plans, so chaos runs replay bit for bit.
func GenerateFaultPlan(cfg FaultPlanConfig) *FaultPlan { return faults.Generate(cfg) }

// SummarizeFaults aggregates fault records into recovery statistics.
func SummarizeFaults(recs []FaultRecord) RecoveryStats { return faults.Summarize(recs) }

// Estimation.
type (
	// Estimator estimates task demands from completed tasks and
	// recurring-job history (§4.1).
	Estimator = estimator.Estimator
)

// NewEstimator creates a demand estimator with the paper's defaults.
func NewEstimator() *Estimator { return estimator.New() }
