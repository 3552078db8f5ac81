// tetris-sim runs one trace-driven simulation and reports makespan, job
// completion times and utilization.
//
// Usage:
//
//	tetris-sim -scheduler tetris -machines 100 -jobs 200
//	tetris-sim -scheduler drf -trace trace.json
//	tetris-sim -scheduler tetris -fairness 0 -barrier 1 -compare
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	tetris "github.com/tetris-sched/tetris"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/stats"
	"github.com/tetris-sched/tetris/internal/telemetry"
)

func main() {
	var (
		schedName = flag.String("scheduler", "tetris", "tetris | slot-fair | drf")
		machines  = flag.Int("machines", 100, "cluster size")
		jobs      = flag.Int("jobs", 100, "jobs to generate (ignored with -trace)")
		tracePath = flag.String("trace", "", "load workload from JSON instead of generating")
		traceKind = flag.String("workload", "suite", "generator: suite | facebook")
		seed      = flag.Int64("seed", 42, "random seed")
		span      = flag.Float64("arrival-span", 5000, "arrival span in seconds (0 = all at t=0)")
		fairness  = flag.Float64("fairness", 0.25, "tetris fairness knob f ∈ [0,1)")
		barrier   = flag.Float64("barrier", 0.9, "tetris barrier knob b ∈ (0,1]")
		penalty   = flag.Float64("remote-penalty", 0.1, "tetris remote penalty")
		epsMult   = flag.Float64("eps", 1, "tetris ε multiplier m")
		scenario  = flag.String("scenario", "", "named scenario: gang (ML/MPI gang mix)")
		gangFrac  = flag.Float64("gang-fraction", 0.3, "fraction of gang jobs in -scenario gang")
		compare   = flag.Bool("compare", false, "also run slot-fair and DRF and print gains")
		failures  = flag.Float64("failures", 0, "task failure probability (re-executed on failure)")

		chaos      = flag.Float64("chaos", 0, "fraction of machines to crash and recover (0 = off)")
		chaosSeed  = flag.Int64("chaos-seed", 7, "fault-plan seed (same seed → bit-identical run)")
		mttr       = flag.Float64("mttr", 60, "mean machine downtime in seconds")
		stragglers = flag.Float64("stragglers", 0, "per-attempt straggler probability")
		stragFact  = flag.Float64("straggler-factor", 0.5, "straggler speed factor (fraction of full speed)")
		maxAttempt = flag.Int("max-attempts", 0, "per-task attempt cap; the job is abandoned past it (0 = unlimited)")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/trace and pprof on this address during the run (empty = off)")
		sampleEvery = flag.Float64("sample-every", 0, "utilization sampling period in simulated seconds (0 = 10 when -metrics-addr is set, else off)")
	)
	flag.Parse()

	// Telemetry: one registry across all runs of this invocation (under
	// -compare the baselines aggregate into the same series); decision
	// traces from the tetris scheduler land in a bounded ring.
	var (
		reg  *telemetry.Registry
		ring *scheduler.DecisionRing
	)
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		ring = scheduler.NewDecisionRing(256, 16)
		ts := &telemetry.Server{Registry: reg, Trace: func() any { return ring.Snapshot() }}
		if err := ts.Start(*metricsAddr); err != nil {
			log.Fatalf("-metrics-addr: %v", err)
		}
		defer ts.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", ts.Addr())
		if *sampleEvery == 0 {
			*sampleEvery = 10
		}
	}

	if *scenario != "" && *scenario != "gang" {
		log.Fatalf("unknown scenario %q (want gang)", *scenario)
	}
	wl := loadWorkload(*tracePath, *traceKind, *scenario, *seed, *jobs, *machines, *span, *gangFrac)
	if wl.NumMachines > *machines {
		log.Fatalf("workload references %d machines; raise -machines", wl.NumMachines)
	}
	mkSched := func(name string) tetris.Scheduler {
		switch name {
		case "tetris":
			cfg := tetris.DefaultConfig()
			cfg.Fairness = *fairness
			cfg.Barrier = *barrier
			cfg.RemotePenalty = *penalty
			cfg.EpsilonMultiplier = *epsMult
			cfg.Trace = ring
			return tetris.NewScheduler(cfg)
		case "slot-fair", "cs", "fair":
			return tetris.NewSlotFairScheduler()
		case "drf":
			return tetris.NewDRFScheduler()
		case "drf-network":
			return scheduler.NewDRFWithNetwork()
		default:
			log.Fatalf("unknown scheduler %q", name)
			return nil
		}
	}

	var plan *tetris.FaultPlan
	if *chaos > 0 || *stragglers > 0 {
		horizon := *span
		if horizon <= 0 {
			horizon = 1000
		}
		plan = tetris.GenerateFaultPlan(tetris.FaultPlanConfig{
			Seed:            *chaosSeed,
			Machines:        *machines,
			Horizon:         horizon,
			CrashFraction:   *chaos,
			MeanDowntime:    *mttr,
			StragglerProb:   *stragglers,
			StragglerFactor: *stragFact,
		})
	}

	run := func(name string) *tetris.Result {
		res, err := tetris.Simulate(tetris.SimConfig{
			Cluster:         tetris.NewFacebookCluster(*machines),
			Workload:        wl,
			Scheduler:       mkSched(name),
			TaskFailureProb: *failures,
			FaultPlan:       plan,
			MaxTaskAttempts: *maxAttempt,
			SampleEvery:     *sampleEvery,
			Metrics:         reg,
		})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		return res
	}

	res := run(*schedName)
	jcts := res.JCTs()
	fmt.Printf("scheduler     %s\n", *schedName)
	fmt.Printf("jobs          %d (%d tasks)\n", len(res.Jobs), wl.NumTasks())
	fmt.Printf("makespan      %.0f s\n", res.Makespan)
	fmt.Printf("avg JCT       %.0f s (median %.0f, p90 %.0f)\n",
		res.AvgJCT(), stats.Median(jcts), stats.Percentile(jcts, 90))
	fmt.Printf("task duration %.1f s mean\n", res.MeanTaskDuration())
	fmt.Printf("locality      %.0f%% of input bytes read locally\n", 100*res.LocalityFraction())
	if *scenario == "gang" {
		fmt.Printf("gangs         %d committed (admit wait p50 %.0f s, p99 %.0f s), %d hoards released\n",
			res.GangCommits, res.GangWaitPercentile(50), res.GangWaitPercentile(99), res.GangReleases)
		fmt.Printf("preemptions   %d attempts evicted for gangs (%.2f/1000 s simulated)\n",
			res.Preemptions, 1000*float64(res.Preemptions)/res.Makespan)
	}
	if *failures > 0 {
		fmt.Printf("failures      %d task attempts failed and re-ran\n", res.FailedAttempts)
	}
	if plan != nil {
		st := res.RecoveryStats()
		fmt.Printf("chaos         %d crashes, %d recoveries, %d task attempts killed\n",
			st.Crashes, st.Recoveries, st.TasksKilled)
		if st.Recoveries > 0 {
			fmt.Printf("downtime      %.0f s mean, %.0f s max\n", st.MeanDowntime, st.MaxDowntime)
		}
		if res.Stragglers > 0 {
			fmt.Printf("stragglers    %d task attempts injected\n", res.Stragglers)
		}
		if len(res.KilledJobs) > 0 {
			fmt.Printf("killed jobs   %v (exceeded -max-attempts %d)\n", res.KilledJobs, *maxAttempt)
		}
	}

	if *compare && *schedName == "tetris" {
		for _, base := range []string{"slot-fair", "drf"} {
			b := run(base)
			fmt.Printf("\nvs %-10s mean JCT gain %.1f%%  median %.1f%%  makespan gain %.1f%%\n",
				base,
				stats.Mean(tetris.PerJobImprovement(b, res)),
				stats.Median(tetris.PerJobImprovement(b, res)),
				tetris.Improvement(b.Makespan, res.Makespan))
		}
	}
}

func loadWorkload(path, kind, scenario string, seed int64, jobs, machines int, span, gangFrac float64) *tetris.Workload {
	if path != "" {
		wl, err := tetris.LoadWorkload(path)
		if err != nil {
			log.Fatalf("load trace: %v", err)
		}
		return wl
	}
	cfg := tetris.TraceConfig{
		Seed: seed, NumJobs: jobs, NumMachines: machines,
		ArrivalSpanSec: span, RecurringFraction: 0.4,
	}
	if scenario == "gang" {
		return tetris.GenerateGangWorkload(cfg, gangFrac)
	}
	switch kind {
	case "suite":
		return tetris.GenerateWorkload(cfg)
	case "facebook":
		return tetris.GenerateFacebookWorkload(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload kind %q\n", kind)
		os.Exit(2)
		return nil
	}
}
