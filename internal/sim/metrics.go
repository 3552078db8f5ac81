package sim

// Simulator telemetry. The simulator is single-threaded while Run()
// executes, so scrape-visible state is published through plain atomic
// gauges updated from the sim loop — never GaugeFuncs reading Sim
// internals, which a concurrent HTTP scrape would race against. A
// scrape mid-run sees the values from the last sampling instant.

import (
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
)

// simMetrics is the simulator's metric set. With a nil registry it
// records into a private one, keeping the update sites branch-free.
type simMetrics struct {
	// Per-resource cluster-level fractions of capacity, refreshed at
	// each sampling instant (Config.SampleEvery).
	util   [resources.NumKinds]*telemetry.Gauge
	demand [resources.NumKinds]*telemetry.Gauge

	simTime      *telemetry.Gauge
	tasksRunning *telemetry.Gauge
	jobsActive   *telemetry.Gauge
	// fairnessDev is the mean relative deviation |share−fair|/fair of
	// active jobs' dominant shares from their weight-proportional fair
	// shares — the instantaneous form of the §5.3.2 unfairness integral.
	fairnessDev *telemetry.Gauge

	placements    *telemetry.Counter
	scheduleRound *telemetry.Histogram
	faultDropped  *telemetry.Gauge
	scans         *scheduler.ScanMetrics

	// rateRecomputed / rateClean split the resource nodes (machines, rack
	// uplinks) of every event-loop iteration into those whose fluid shares
	// were re-derived and those left alone (Sim.rateNodesRecomputed).
	rateRecomputed *telemetry.Counter
	rateClean      *telemetry.Counter

	// Previous cumulative rate-node counters, for per-round deltas: the
	// registry's counters may be shared with other runs, so they are never
	// read back.
	prevRecomputed, prevRateClean uint64
}

func newSimMetrics(reg *telemetry.Registry) *simMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &simMetrics{
		simTime:       reg.Gauge("tetris_sim_time_seconds", "Simulated time of the last published sample."),
		tasksRunning:  reg.Gauge("tetris_sim_tasks_running", "Running task attempts at the last sample."),
		jobsActive:    reg.Gauge("tetris_sim_jobs_active", "Arrived, unfinished jobs at the last sample."),
		fairnessDev:   reg.Gauge("tetris_sim_fairness_deviation", "Mean relative deviation of active jobs' dominant shares from their fair shares."),
		placements:    reg.Counter("tetris_sim_placements_total", "Task placements made by the scheduler under simulation."),
		scheduleRound: reg.Histogram("tetris_sim_schedule_round_seconds", "Wall-clock latency of one simulated scheduling round."),
		faultDropped:  reg.Gauge("tetris_sim_fault_log_dropped", "Fault-log records evicted from the bounded ring."),
		scans:         scheduler.NewScanMetrics(reg, func(n string) string { return "tetris_sim_" + n }),
	}
	const nodesHelp = "Resource nodes (machines, rack uplinks) per event-loop iteration whose fluid shares were re-derived (recomputed) or left alone because nothing arrived at or left them (clean)."
	m.rateRecomputed = reg.Counter(telemetry.Label("tetris_sim_rate_nodes_total", "result", "recomputed"), nodesHelp)
	m.rateClean = reg.Counter(telemetry.Label("tetris_sim_rate_nodes_total", "result", "clean"), nodesHelp)
	const (
		utilHelp   = "Cluster utilization as a fraction of capacity, per resource."
		demandHelp = "Running tasks' aggregate peak demand as a fraction of capacity, per resource."
	)
	for _, k := range resources.Kinds() {
		m.util[k] = reg.Gauge(telemetry.Label("tetris_sim_utilization", "resource", k.String()), utilHelp)
		m.demand[k] = reg.Gauge(telemetry.Label("tetris_sim_demand", "resource", k.String()), demandHelp)
	}
	return m
}

// observeRateNodes adds to the published rate-node counters what the
// simulator's cumulative ones gained since the last call.
func (m *simMetrics) observeRateNodes(recomputed, clean uint64) {
	m.rateRecomputed.Add(recomputed - m.prevRecomputed)
	m.rateClean.Add(clean - m.prevRateClean)
	m.prevRecomputed, m.prevRateClean = recomputed, clean
}

// observeSample publishes the cluster-level gauges for one sampling
// instant. used and demand are aggregates across machines; total is
// the cluster capacity.
func (m *simMetrics) observeSample(t float64, used, demand, total resources.Vector, running, activeJobs int) {
	m.simTime.Set(t)
	m.tasksRunning.Set(float64(running))
	m.jobsActive.Set(float64(activeJobs))
	for _, k := range resources.Kinds() {
		if c := total.Get(k); c > 0 {
			m.util[k].Set(used.Get(k) / c)
			m.demand[k].Set(demand.Get(k) / c)
		}
	}
}

// fairnessDeviation returns the mean relative deviation of active
// jobs' dominant shares from their weight-proportional fair shares
// (0 when no job is active or all weights are zero).
func (s *Sim) fairnessDeviation() float64 {
	var totalWeight float64
	n := 0
	for _, jr := range s.active {
		if !jr.state.Status.Finished() {
			totalWeight += jr.state.Job.Weight
			n++
		}
	}
	if n == 0 || totalWeight == 0 {
		return 0
	}
	var dev float64
	for _, jr := range s.active {
		if jr.state.Status.Finished() {
			continue
		}
		fair := jr.state.Job.Weight / totalWeight
		_, share := resources.DominantShare(jr.truePeaks, s.total)
		d := (share - fair) / fair
		if d < 0 {
			d = -d
		}
		dev += d
	}
	return dev / float64(n)
}
