package main

import (
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/workload"
)

// endToEnd lists the metrics a user of the control plane sees, with the
// share of the parent's median each may worsen by. Every workload emits
// every one of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"tasks_per_s", "1/s", "higher", 0.25},
	{"beats_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"makespan_vs", "vs", "lower", 0.03},
	{"mean_jct_vs", "vs", "lower", 0.03},
}

// perLayer lists the single-layer metrics of the traced run. A workload
// that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "trace.generate_ms", Unit: "ms", Better: "lower"},

	{Name: "sim.new_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.rounds", Unit: "count", Better: "lower"},

	{Name: "scheduler.calls", Unit: "count", Better: "lower"},
	{Name: "scheduler.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "scheduler.p50_us", Unit: "us", Better: "lower"},
	{Name: "scheduler.p99_us", Unit: "us", Better: "lower"},
	{Name: "scheduler.assignments", Unit: "count", Better: "higher"},
	{Name: "scheduler.empty_round_frac", Unit: "frac", Better: "lower"},
	{Name: "scheduler.view_machines_mean", Unit: "count", Better: "lower"},
	{Name: "scheduler.view_jobs_mean", Unit: "count", Better: "lower"},
	{Name: "scheduler.down_machine_frac", Unit: "frac", Better: "lower"},

	{Name: "rm.nm_beat.calls", Unit: "count", Better: "higher"},
	{Name: "rm.nm_beat.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "rm.nm_beat.self_ms", Unit: "ms", Better: "lower"},
	{Name: "rm.nm_beat.p50_us", Unit: "us", Better: "lower"},
	{Name: "rm.nm_beat.p99_us", Unit: "us", Better: "lower"},
	{Name: "rm.nm_beat.work_p99_us", Unit: "us", Better: "lower"},
	{Name: "rm.nm_beat.launches", Unit: "count", Better: "higher"},
	{Name: "rm.nm_beat.completions", Unit: "count", Better: "higher"},
	{Name: "rm.nm_beat.errors", Unit: "count", Better: "lower"},

	{Name: "rm.am_beat.calls", Unit: "count", Better: "higher"},
	{Name: "rm.am_beat.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "rm.am_beat.p50_us", Unit: "us", Better: "lower"},
	{Name: "rm.am_beat.p99_us", Unit: "us", Better: "lower"},

	{Name: "rm.submit.calls", Unit: "count", Better: "higher"},
	{Name: "rm.submit.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "rm.submit.self_ms", Unit: "ms", Better: "lower"},
	{Name: "rm.submit.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rm.submit.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "rm.submit.jobs", Unit: "count", Better: "higher"},
	{Name: "rm.submit.rejects", Unit: "count", Better: "lower"},
	{Name: "rm.submit.reject_frac", Unit: "frac", Better: "lower"},

	{Name: "rm.route.ns_per_job", Unit: "ns", Better: "lower"},
	{Name: "rm.route.infeasible_frac", Unit: "frac", Better: "lower"},
	{Name: "rm.register.ms", Unit: "ms", Better: "lower"},

	{Name: "rm.recover.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "rm.recover.ms_max", Unit: "ms", Better: "lower"},
	{Name: "rm.recover.records", Unit: "count", Better: "lower"},
	{Name: "rm.verify_ledger_ms", Unit: "ms", Better: "lower"},

	{Name: "journal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "journal.sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "journal.sync_p99_us", Unit: "us", Better: "lower"},
	{Name: "journal.syncs", Unit: "count", Better: "lower"},
	{Name: "journal.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "journal.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.open_replay_ms", Unit: "ms", Better: "lower"},

	{Name: "wire.encode_ns_per_beat", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_beat", Unit: "ns", Better: "lower"},
	{Name: "wire.reply_encode_ns_per_beat", Unit: "ns", Better: "lower"},
	{Name: "wire.reply_decode_ns_per_beat", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_beat_out", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_per_beat_in", Unit: "B", Better: "lower"},
	{Name: "wire.frames", Unit: "count", Better: "lower"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.json_encode_ns_per_beat", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.frame_rtt_p99_us", Unit: "us", Better: "lower"},

	{Name: "estimator.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "estimator.estimate_ns", Unit: "ns", Better: "lower"},

	{Name: "driver.self_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// newLayer returns a per-layer table with every metric present and 0, so
// a workload only fills in the layers it crosses.
func newLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// schedulerLayer fills scheduler.* from the probes at the Scheduler
// interface (one per shard core or simulator).
func schedulerLayer(layer map[string]float64, scheds []*timedScheduler) {
	var calls, empty, asgs int
	var machines, jobs, seen, down int64
	var durs []float64
	var busy float64
	for _, s := range scheds {
		calls += s.calls
		empty += s.empty
		asgs += s.assignments
		machines += s.viewMachines
		jobs += s.viewJobs
		seen += s.machinesSeen
		down += s.downSeen
		durs = append(durs, s.allNs...)
	}
	for _, d := range durs {
		busy += d
	}
	sorted := sortedCopy(durs)
	p50, _ := percentile(sorted, 0.5)
	p99, _ := percentile(sorted, 0.99)
	layer["scheduler.calls"] = float64(calls)
	layer["scheduler.busy_ms"] = busy / 1e6
	layer["scheduler.p50_us"] = p50 / 1e3
	layer["scheduler.p99_us"] = p99 / 1e3
	layer["scheduler.assignments"] = float64(asgs)
	if calls > 0 {
		layer["scheduler.empty_round_frac"] = float64(empty) / float64(calls)
		layer["scheduler.view_machines_mean"] = float64(machines) / float64(calls)
		layer["scheduler.view_jobs_mean"] = float64(jobs) / float64(calls)
	}
	if seen > 0 {
		layer["scheduler.down_machine_frac"] = float64(down) / float64(seen)
	}
}

// spanLayers fills the metrics that come from spans: each entry point's
// calls, busy and self time and percentiles, and the driver's own time
// outside every span. An entry point is read from the timed region when
// it is called there, else from set-up or the checks after the region
// (rm-backlog submits during set-up, every RM workload verifies after).
func spanLayers(ep *episode, tr *tracer) {
	phases := []map[string]*layerTotals{
		tr.totals(tr.timedFrom, tr.timedTo),
		tr.totals(0, tr.timedFrom),
		tr.totals(tr.timedTo, len(tr.spans)),
	}
	find := func(span string) *layerTotals {
		for _, p := range phases {
			if lt := p[span]; lt != nil {
				return lt
			}
		}
		return &layerTotals{}
	}
	busy := func(span string) float64 { return float64(find(span).busyNs) / 1e6 }
	calls := func(prefix, unit string, div float64) {
		lt := find(prefix)
		sorted := sortedCopy(lt.durs)
		p50, _ := percentile(sorted, 0.5)
		p99, _ := percentile(sorted, 0.99)
		ep.layer[prefix+".calls"] = float64(lt.calls)
		ep.layer[prefix+".busy_ms"] = float64(lt.busyNs) / 1e6
		ep.layer[prefix+".p50_"+unit] = p50 / div
		ep.layer[prefix+".p99_"+unit] = p99 / div
	}
	calls("rm.nm_beat", "us", 1e3)
	calls("rm.am_beat", "us", 1e3)
	calls("rm.submit", "ms", 1e6)
	ep.layer["rm.nm_beat.self_ms"] = float64(find("rm.nm_beat").selfNs) / 1e6
	ep.layer["rm.submit.self_ms"] = busy("rm.submit") // less fsync time where a journal is on
	ep.layer["trace.generate_ms"] = busy("trace.generate")
	ep.layer["sim.new_ms"] = busy("sim.new")
	ep.layer["sim.run_ms"] = busy("sim.run")
	ep.layer["sim.self_ms"] = float64(find("sim.run").selfNs) / 1e6
	ep.layer["rm.register.ms"] = busy("rm.register")
	ep.layer["rm.verify_ledger_ms"] = busy("rm.verify_ledger")
	wall := ep.spanWallS
	if wall == 0 {
		wall = ep.wallS
	}
	ep.layer["driver.self_ms"] = wall*1e3 - float64(tr.rootNs())/1e6
}

// estimatorProbe times the demand estimator alone on the workload's
// stage population: one Observe per task, then one Estimate per task.
func estimatorProbe(layer map[string]float64, wl *workload.Workload) {
	est := estimator.New()
	n := 0
	t0 := time.Now()
	for _, j := range wl.Jobs {
		for si, st := range j.Stages {
			for _, t := range st.Tasks {
				est.Observe(j, si, t.Peak, t.PeakDuration())
				n++
			}
		}
	}
	observe := time.Since(t0)
	t0 = time.Now()
	for _, j := range wl.Jobs {
		for si, st := range j.Stages {
			for _, t := range st.Tasks {
				est.Estimate(j, si, t.Peak, t.PeakDuration())
			}
		}
	}
	estimate := time.Since(t0)
	layer["estimator.observe_ns"] = float64(observe) / float64(n)
	layer["estimator.estimate_ns"] = float64(estimate) / float64(n)
}
