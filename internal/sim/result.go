package sim

import (
	"sort"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/stats"
	"github.com/tetris-sched/tetris/internal/workload"
)

// JobResult records one job's outcome.
type JobResult struct {
	Arrival  float64
	Finish   float64
	JCT      float64
	NumTasks int
	// Unfairness is the relative integral unfairness of §5.3.2:
	// ∫ (a(t)−f(t))/f(t) dt over the job's lifetime. Negative values mean
	// the job received worse service than its fair share.
	Unfairness float64
	// Failed marks a job killed because a task exhausted its attempt cap
	// under the fault plan (Config.MaxTaskAttempts). Finish/JCT then
	// record the kill time, not a completion.
	Failed bool
}

// Sample is one cluster-level utilization observation.
type Sample struct {
	Time    float64
	Running int
	// Used is the aggregate actual usage across the cluster.
	Used resources.Vector
	// Demand is the aggregate of running tasks' peak demands; it exceeds
	// capacity when a scheduler over-allocates (Figure 5's >100% lines).
	Demand resources.Vector
}

// HighUseCounts tallies, per resource, machine-level samples above the
// Table-6 thresholds.
type HighUseCounts struct {
	Over50  int // usage > 50% of capacity
	Over80  int // usage > 80% of capacity
	Over100 int // demand > 100% of capacity (over-allocation)
}

// TaskRecord is one task's placement record (opt-in via
// Config.RecordTasks).
type TaskRecord struct {
	Task    workload.TaskID
	Machine int
	Start   float64
	Finish  float64
}

// Result aggregates everything a simulation run produces.
type Result struct {
	Makespan      float64
	Jobs          map[int]JobResult
	TaskDurations []float64
	Tasks         []TaskRecord
	Samples       []Sample
	LocalReadMB   float64
	RemoteReadMB  float64
	// FailedAttempts counts task executions that failed and re-ran
	// (Config.TaskFailureProb and fault-plan crashes).
	FailedAttempts int
	// FaultEvents is the chronological log of injected machine crashes
	// and recoveries (Config.FaultPlan): per-event task kill counts and
	// recovery latencies fall out of it. It holds the most recent
	// faults.DefaultRingCap records; older ones are evicted and counted in
	// DroppedFaultEvents.
	FaultEvents []faults.Record
	// DroppedFaultEvents counts fault records evicted from the bounded
	// log during the run.
	DroppedFaultEvents uint64
	// recovery summarizes every fault record the run logged, evicted
	// ones included.
	recovery faults.RecoveryStats
	// KilledJobs lists jobs abandoned after a task exhausted
	// Config.MaxTaskAttempts, in kill order.
	KilledJobs []int
	// Stragglers counts task attempts started degraded by straggler
	// injection.
	Stragglers int
	// Preemptions counts running attempts evicted for higher-priority
	// gangs (each also counts in FailedAttempts — preemption charges the
	// normal attempt accounting).
	Preemptions int
	// GangCommits counts gang quorums admitted all-or-nothing;
	// GangWaits records each commit's admission latency (seconds from
	// first quorum want to atomic commit), in commit order.
	GangCommits int
	GangWaits   []float64
	// GangReleases counts hoard epochs that hit the hold timeout and
	// returned their machines to the pool.
	GangReleases int
	// MachineSamples is the number of (machine × sample) observations
	// behind HighUse.
	MachineSamples int
	HighUse        [resources.NumKinds]HighUseCounts
}

func newResult() *Result {
	return &Result{Jobs: make(map[int]JobResult)}
}

// JCTs returns all completed jobs' completion times in ascending job-ID
// order (killed jobs are excluded — they have no completion).
func (r *Result) JCTs() []float64 {
	ids := make([]int, 0, len(r.Jobs))
	for id := range r.Jobs {
		if !r.Jobs[id].Failed {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = r.Jobs[id].JCT
	}
	return out
}

// GangWaitPercentile returns the p-th percentile gang admission
// latency (0 when no gang committed).
func (r *Result) GangWaitPercentile(p float64) float64 {
	if len(r.GangWaits) == 0 {
		return 0
	}
	return stats.Percentile(append([]float64(nil), r.GangWaits...), p)
}

// RecoveryStats summarizes every crash and recovery the run applied,
// including those evicted from FaultEvents: counts, tasks killed, and
// downtime statistics.
func (r *Result) RecoveryStats() faults.RecoveryStats { return r.recovery }

// AvgJCT returns the mean job completion time.
func (r *Result) AvgJCT() float64 { return stats.Mean(r.JCTs()) }

// MedianJCT returns the median job completion time.
func (r *Result) MedianJCT() float64 { return stats.Median(r.JCTs()) }

// MeanTaskDuration returns the mean task duration.
func (r *Result) MeanTaskDuration() float64 { return stats.Mean(r.TaskDurations) }

// LocalityFraction returns the fraction of input bytes read locally.
func (r *Result) LocalityFraction() float64 {
	total := r.LocalReadMB + r.RemoteReadMB
	if total == 0 {
		return 1
	}
	return r.LocalReadMB / total
}

// Improvement returns the percentage improvement of this run over a
// baseline value: 100 × (baseline − ours) / baseline, the paper's §5.1
// metric.
func Improvement(baseline, ours float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - ours) / baseline
}

// PerJobImprovement returns, for each job present in both results, the
// percentage JCT improvement of ours over the baseline run.
func PerJobImprovement(baseline, ours *Result) []float64 {
	var out []float64
	ids := make([]int, 0, len(baseline.Jobs))
	for id := range baseline.Jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b := baseline.Jobs[id]
		o, ok := ours.Jobs[id]
		if !ok || b.JCT <= 0 {
			continue
		}
		out = append(out, Improvement(b.JCT, o.JCT))
	}
	return out
}

// SlowdownStats summarizes how many jobs got slower in ours vs the
// baseline, and the mean and max slowdown percentage among them —
// the impact-of-unfairness metric of §5.3.2 (Figure 9).
type SlowdownStats struct {
	FractionSlowed float64
	MeanSlowdown   float64 // % increase in JCT among slowed jobs
	MaxSlowdown    float64
}

// Slowdowns computes SlowdownStats of ours against baseline.
func Slowdowns(baseline, ours *Result) SlowdownStats {
	var slowed []float64
	n := 0
	for id, b := range baseline.Jobs {
		o, ok := ours.Jobs[id]
		if !ok || b.JCT <= 0 {
			continue
		}
		n++
		if o.JCT > b.JCT*1.001 { // ignore float jitter
			slowed = append(slowed, 100*(o.JCT-b.JCT)/b.JCT)
		}
	}
	if n == 0 {
		return SlowdownStats{}
	}
	st := SlowdownStats{FractionSlowed: float64(len(slowed)) / float64(n)}
	if len(slowed) > 0 {
		st.MeanSlowdown = stats.Mean(slowed)
		st.MaxSlowdown = stats.Percentile(slowed, 100)
	}
	return st
}

// sample records one utilization observation (called on the sampling
// event cadence).
func (s *Sim) sample() {
	s.updateReported()
	var used, demand resources.Vector
	for m := range s.machines {
		rep := s.machines[m].Reported
		used = used.Add(rep)
		d := s.machineDemand(m)
		demand = demand.Add(d)
		s.res.MachineSamples++
		for _, k := range resources.Kinds() {
			c := s.machines[m].Capacity.Get(k)
			if c <= 0 {
				continue
			}
			hu := &s.res.HighUse[k]
			if rep.Get(k) > 0.5*c {
				hu.Over50++
			}
			if rep.Get(k) > 0.8*c {
				hu.Over80++
			}
			if d.Get(k) > 1.000001*c {
				hu.Over100++
			}
		}
	}
	s.res.Samples = append(s.res.Samples, Sample{
		Time:    s.clock,
		Running: len(s.running),
		Used:    used,
		Demand:  demand,
	})
	s.metrics.observeSample(s.clock, used, demand, s.total, len(s.running), len(s.active))
	s.metrics.fairnessDev.Set(s.fairnessDeviation())
}
