// tetris-hollow is the Kubemark-style scale harness: it boots one real
// resource manager in-process and points a hollow-node fleet
// (internal/hollow) plus a hollow job-manager pool at it — thousands of
// protocol-faithful NMs and hundreds of AMs multiplexed over a handful
// of TCP connections, with synthetic task execution so the process cost
// scales with heartbeats, not tasks.
//
// The run ends when every job finishes or -duration elapses, whichever
// comes first, and always writes a BENCH_scale_<scenario>.json snapshot
// with the scale trajectory's core metrics: scheduling rounds/sec, NM
// heartbeat RTT p50/p99, wire bytes per node per second, and process CPU
// per node. It then judges its own run (verdict): the process exits 1 if
// a job failed, the ledger does not balance, or a metric the run turned
// on measured nothing or broke its bound.
//
// Examples:
//
//	tetris-hollow -nodes 1000 -jobs 12 -duration 60s -scenario smoke
//	tetris-hollow -nodes 5000 -conns 16 -heartbeat 2s -duration 120s -scenario 5k
//	tetris-hollow -nodes 50000 -conns 64 -heartbeat 10s -batch 128 -scenario 50k
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	tetris "github.com/tetris-sched/tetris"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/hollow"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/trace"
)

// options is one run's fully resolved configuration.
type options struct {
	nodes, conns, ams, jobs, taskCap int
	duration, heartbeat, poll        time.Duration
	nodeTimeout                      time.Duration
	compression                      float64
	seed                             int64
	batch                            int
	scenario                         string
	gangFrac                         float64
	crashFrac                        float64
	shards                           int
	logger                           *log.Logger

	tenants, stormWorkers, stormBatch int
	quotaJobs, shedHigh, shedLimit    int
	stormRate, tenantRate             float64
}

func main() {
	var (
		nodes       = flag.Int("nodes", 1000, "hollow node managers to multiplex")
		conns       = flag.Int("conns", 0, "TCP connections the fleet shares (0 = one per 512 nodes)")
		ams         = flag.Int("ams", 0, "hollow job managers (0 = one per 16 jobs)")
		jobs        = flag.Int("jobs", 12, "jobs to generate and submit")
		taskCap     = flag.Int("task-cap", 60, "truncate generated stages to this many tasks (0 = keep full §5.1 sizes)")
		duration    = flag.Duration("duration", 60*time.Second, "hard wall-clock budget for the run")
		heartbeat   = flag.Duration("heartbeat", time.Second, "per-node heartbeat interval")
		poll        = flag.Duration("poll", 500*time.Millisecond, "per-job AM progress poll interval")
		compression = flag.Float64("compression", 50, "time compression for synthetic task durations and job arrivals")
		seed        = flag.Int64("seed", 1, "seed for workload, fault plan, stagger and sampling")
		batch       = flag.Int("batch", 0, "coalesce up to this many nodes' heartbeats per frame (0 or 1 = one beat per frame)")
		scenario    = flag.String("scenario", "smoke", "scenario name; output file is BENCH_scale_<scenario>.json. \"gang\" switches to the ML/MPI gang workload")
		gangFrac    = flag.Float64("gang-fraction", 0.5, "fraction of gang jobs in -scenario gang")
		outDir      = flag.String("out", ".", "directory for the BENCH snapshot")
		nodeTimeout = flag.Duration("node-timeout", 10*time.Second, "RM failure-detector heartbeat silence threshold (0 = off)")
		crashFrac   = flag.Float64("crash-frac", 0, "fraction of nodes that crash once mid-run (fault-plan churn; needs -node-timeout)")
		shards      = flag.Int("shards", 1, "scheduler shards: the RM partitions nodes by id mod N and routes each job to one shard")
		verbose     = flag.Bool("v", false, "verbose RM/fleet logging")

		tenants      = flag.Int("tenants", 0, "enable the admission front door and run a submission storm drawn from this many tenants (0 = off)")
		stormWorkers = flag.Int("storm-workers", 8, "concurrent storm submission connections")
		stormBatch   = flag.Int("storm-batch", 16, "jobs per storm submit batch")
		stormRate    = flag.Float64("storm-rate", 0, "cap on storm jobs/sec across workers (0 = unthrottled)")
		quotaJobs    = flag.Int("tenant-quota-jobs", 50, "per-tenant queued-job quota")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant submit rate limit in jobs/sec (0 = off)")
		shedHigh     = flag.Int("shed-highwater", 2000, "admitted backlog where load shedding starts (0 = off)")
		shedLimit    = flag.Int("shed-limit", 0, "backlog where every submission sheds (0 = 2x highwater)")
	)
	flag.Parse()
	if *crashFrac > 0 && *nodeTimeout <= 0 {
		log.Fatal("-crash-frac needs -node-timeout: without a detector, crashed hollow nodes stay allocated forever")
	}
	if *shards < 1 {
		log.Fatal("-shards must be >= 1")
	}

	var logger *log.Logger
	if *verbose {
		logger = log.New(os.Stderr, "", log.Lmicroseconds)
	}
	o := options{
		nodes: *nodes, conns: *conns, ams: *ams, jobs: *jobs, taskCap: *taskCap,
		duration: *duration, heartbeat: *heartbeat, poll: *poll, nodeTimeout: *nodeTimeout,
		compression: *compression, seed: *seed, batch: *batch,
		scenario: *scenario, gangFrac: *gangFrac, crashFrac: *crashFrac,
		shards: *shards, logger: logger,
		tenants: *tenants, stormWorkers: *stormWorkers, stormBatch: *stormBatch,
		quotaJobs: *quotaJobs, shedHigh: *shedHigh, shedLimit: *shedLimit,
		stormRate: *stormRate, tenantRate: *tenantRate,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	snap, failed, err := runOnce(ctx, o)
	if err != nil {
		log.Fatalf("tetris-hollow: %v", err)
	}
	bad := verdict(snap)
	out := filepath.Join(*outDir, "BENCH_scale_"+*scenario+".json")
	if err := snap.write(out); err != nil {
		bad = append(bad, err.Error())
	} else {
		fmt.Printf("  snapshot            %s\n", out)
	}
	for _, b := range bad {
		fmt.Printf("  FAIL                %s\n", b)
	}
	if failed > 0 || len(bad) > 0 {
		os.Exit(1)
	}
	fmt.Printf("  verdict             ok (%d metrics)\n", len(snap.Metrics))
}

// snapshot is one run's BENCH_scale_<scenario>.json record: what was run
// (Config), where (Env) and what was measured (Metrics), flat so any two
// snapshots diff key by key. Metric keys are snake_case with the unit
// suffixed.
type snapshot struct {
	Schema   int                `json:"schema"`
	Kind     string             `json:"kind"`
	Scenario string             `json:"scenario"`
	Unix     int64              `json:"unix,omitempty"`
	Env      env                `json:"env"`
	Config   map[string]string  `json:"config,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
}

// env is what a snapshot's numbers depend on beyond its Config, stamped
// as the control-plane benchmark stamps its result files.
type env struct {
	Commit     string `json:"commit"` // empty outside a git work tree
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"` // /proc/cpuinfo's model name; empty where unreadable
}

func describeEnv() env {
	e := env{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU()}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// write stores the snapshot as indented JSON. A non-finite metric fails
// here (JSON has no NaN); the verdict names it.
func (s *snapshot) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// The bounds the verdict holds a run to, beyond liveness.
const (
	maxSubmitP99Seconds     = 0.5 // storm submit RTT p99 (-tenants)
	maxPreemptionsPerSecond = 50  // gang preemption churn (-scenario gang)
)

// verdict judges a finished run from its snapshot alone and returns one
// line per failing metric (nil = pass). Every metric must be finite; the
// metrics of what the run turned on must be nonzero — a zero rate or
// latency means nothing was measured, not that the RM was infinitely
// fast — and the tail bounds above must hold.
func verdict(s *snapshot) []string {
	var bad []string
	for k, v := range s.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%s = %g (not finite)", k, v))
		}
	}
	nonzero := []string{
		"rounds_per_sec", "beats_per_sec", "heartbeat_p50_seconds", "heartbeat_p99_seconds",
		"registers_total", "tasks_completed_total",
	}
	// Node i belongs to shard i mod N, so with nodes 0..n-1 every shard
	// below n owns one.
	for i := 0; i < int(s.Metrics["shards"]) && i < int(s.Metrics["nodes"]); i++ {
		nonzero = append(nonzero, fmt.Sprintf("shard%d_beats_per_sec", i), fmt.Sprintf("shard%d_heartbeat_p99_seconds", i))
	}
	bounds := map[string]float64{}
	if _, storm := s.Config["tenants"]; storm {
		nonzero = append(nonzero, "storm_admitted_total", "storm_rejected_total", "storm_batches_total", "submit_p50_seconds")
		bounds["submit_p99_seconds"] = maxSubmitP99Seconds
	}
	if s.Scenario == "gang" {
		nonzero = append(nonzero, "gangs_admitted_total", "gang_admit_p50_seconds", "preemptions_total", "gang_releases_total", "jobs_finished")
		bounds["preemptions_per_sec"] = maxPreemptionsPerSecond
	}
	for _, k := range nonzero {
		if v, ok := s.Metrics[k]; !ok {
			bad = append(bad, k+" missing")
		} else if v == 0 {
			bad = append(bad, k+" = 0 (want nonzero)")
		}
	}
	for k, bound := range bounds {
		if v, ok := s.Metrics[k]; !ok {
			bad = append(bad, k+" missing")
		} else if v > bound {
			bad = append(bad, fmt.Sprintf("%s = %g (bound <= %g)", k, v, bound))
		}
	}
	sort.Strings(bad)
	return bad
}

// runOnce boots one RM, runs one fleet + AM pool (+ optional storm) to
// completion or the duration budget, and returns the measurement
// snapshot plus the count of failed jobs.
func runOnce(ctx context.Context, o options) (*snapshot, int, error) {
	reg := telemetry.NewRegistry()
	schedCfg := tetris.DefaultConfig()
	// With -tenants the admission front door guards submissions: the
	// storm's anonymous masses get default quotas while the AM fleet
	// submits as the high-priority "fleet" tenant, so the real workload
	// rides above the shed floor.
	var admCfg *rm.AdmissionConfig
	if o.tenants > 0 {
		admCfg = &rm.AdmissionConfig{
			Defaults:      rm.TenantLimits{MaxQueuedJobs: o.quotaJobs, SubmitRate: o.tenantRate},
			Tenants:       map[string]rm.TenantLimits{"fleet": {Priority: 9}},
			ShedHighWater: o.shedHigh,
			ShedLimit:     o.shedLimit,
		}
	}
	// Every scheduler core (each shard's, under -shards) runs its rounds
	// through the gang coordinator. Its hold and preemption bounds
	// compress with task time so release and eviction both fire inside a
	// short wall-clock run; under -scenario gang the attempt cap rises
	// because each preemption charges the victim's normal attempt
	// accounting.
	gangScenario := o.scenario == "gang"
	gangCfg := gang.DefaultConfig()
	gangCfg.HoldSec /= o.compression
	gangCfg.PreemptSec /= o.compression
	maxAttempts := 4
	if gangScenario {
		maxAttempts = 64
	}

	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:          o.shards,
		NewScheduler:    func() tetris.Scheduler { return tetris.NewScheduler(schedCfg) },
		NewEstimator:    tetris.NewEstimator,
		NodeTimeout:     o.nodeTimeout,
		MaxTaskAttempts: maxAttempts,
		Gang:            gangCfg,
		Metrics:         reg,
		Logger:          o.logger,
		Admission:       admCfg,
	})
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	fmt.Printf("tetris-hollow: RM on %s (%d shard(s)), %d hollow nodes, %d jobs, %v budget, batch %d\n",
		srv.Addr(), o.shards, o.nodes, o.jobs, o.duration, o.batch)

	var plan *faults.Plan
	if o.crashFrac > 0 {
		plan = faults.Generate(faults.PlanConfig{
			Seed:          o.seed,
			Machines:      o.nodes,
			Horizon:       o.duration.Seconds(),
			CrashFraction: o.crashFrac,
			MeanDowntime:  o.duration.Seconds() / 6,
		})
		fmt.Printf("tetris-hollow: fault plan injects %d crashes\n", plan.Crashes())
	}

	runCtx, expire := context.WithTimeout(ctx, o.duration)
	defer expire()

	fleet, err := hollow.New(hollow.Config{
		RMAddr:      srv.Addr(),
		Nodes:       o.nodes,
		Conns:       o.conns,
		Heartbeat:   o.heartbeat,
		Compression: o.compression,
		Seed:        o.seed,
		Batch:       o.batch,
		Plan:        plan,
		Logger:      o.logger,
	})
	if err != nil {
		return nil, 0, err
	}

	genCfg := trace.Config{
		Seed:        o.seed,
		NumJobs:     o.jobs,
		NumMachines: o.nodes,
	}
	var wl *tetris.Workload
	if gangScenario {
		wl = trace.GenerateGangMix(genCfg, o.gangFrac)
	} else {
		wl = trace.GenerateSuite(genCfg)
	}
	if o.taskCap > 0 {
		for _, j := range wl.Jobs {
			for _, st := range j.Stages {
				if len(st.Tasks) > o.taskCap {
					st.Tasks = st.Tasks[:o.taskCap]
				}
			}
		}
	}

	start := time.Now()
	cpu0 := processCPU()
	fleetDone := make(chan struct{})
	go func() {
		defer close(fleetDone)
		fleet.Run(runCtx)
	}()

	var stormRep hollow.StormReport
	stormDone := make(chan struct{})
	if o.tenants > 0 {
		go func() {
			defer close(stormDone)
			stormRep = hollow.RunStorm(runCtx, hollow.StormConfig{
				RMAddr:    srv.Addr(),
				Tenants:   o.tenants,
				Workers:   o.stormWorkers,
				Batch:     o.stormBatch,
				Rate:      o.stormRate,
				Seed:      o.seed,
				BaseJobID: 1 << 30, // disjoint from the trace workload's ids
				Logger:    o.logger,
			})
		}()
	} else {
		close(stormDone)
	}

	amCfg := hollow.AMConfig{
		RMAddr:    srv.Addr(),
		Jobs:      wl.Jobs,
		AMs:       o.ams,
		Poll:      o.poll,
		TimeScale: o.compression,
		Seed:      o.seed,
		Logger:    o.logger,
	}
	if admCfg != nil {
		amCfg.Tenant = "fleet"
	}
	amRep := hollow.RunAMs(runCtx, amCfg)
	// Jobs are done (or the budget expired); stop the fleet and measure.
	expire()
	<-fleetDone
	<-stormDone
	elapsed := time.Since(start).Seconds()
	cpuSec := processCPU() - cpu0
	fr := fleet.Report()

	// Every RM series is labeled shard="<i>": rounds, beats, handle time
	// and gang counts sum across shards, gang admit-wait quantiles take
	// the worst shard, and per-shard entries are kept for the gate.
	// Beats (the NM-heartbeat histogram's count) are the throughput; a
	// round is observed only when one ran, and most beats need none.
	perShard := make(map[string]float64)
	var rounds, nmHandleN, gangCommits, gangReleases, preempts uint64
	var roundSec, nmHandleSec, gangP50, gangP99 float64
	for i := 0; i < o.shards; i++ {
		label := strconv.Itoa(i)
		series := func(name string) string { return telemetry.Label(name, "shard", label) }
		rh := reg.Histogram(series("tetris_rm_schedule_round_seconds"), "")
		hh := reg.Histogram(series("tetris_rm_nm_heartbeat_seconds"), "")
		rounds += rh.Count()
		roundSec += rh.Sum()
		nmHandleSec += hh.Sum()
		nmHandleN += hh.Count()
		perShard["shard"+label+"_rounds_per_sec"] = float64(rh.Count()) / elapsed
		perShard["shard"+label+"_beats_per_sec"] = float64(hh.Count()) / elapsed
		perShard["shard"+label+"_heartbeat_p99_seconds"] = hh.Quantile(0.99)
		if !gangScenario {
			continue
		}
		gangCommits += reg.Counter(series("tetris_rm_gang_commits_total"), "").Value()
		gangReleases += reg.Counter(series("tetris_rm_gang_releases_total"), "").Value()
		preempts += reg.Counter(series("tetris_rm_preemptions_total"), "").Value()
		gh := reg.Histogram(series("tetris_rm_gang_admit_wait_seconds"), "")
		gangP50 = math.Max(gangP50, gh.Quantile(0.5))
		gangP99 = math.Max(gangP99, gh.Quantile(0.99))
	}

	snap := &snapshot{
		Schema:   1,
		Kind:     "hollow-scale",
		Scenario: o.scenario,
		Unix:     time.Now().Unix(),
		Env:      describeEnv(),
		Config: map[string]string{
			"nodes":       strconv.Itoa(o.nodes),
			"conns":       strconv.Itoa(fleet.Conns()),
			"jobs":        strconv.Itoa(o.jobs),
			"heartbeat":   o.heartbeat.String(),
			"poll":        o.poll.String(),
			"compression": strconv.FormatFloat(o.compression, 'g', -1, 64),
			"seed":        strconv.FormatInt(o.seed, 10),
			"batch":       strconv.Itoa(o.batch),
			"shards":      strconv.Itoa(o.shards),
			"crash_frac":  strconv.FormatFloat(o.crashFrac, 'g', -1, 64),
			"duration":    o.duration.String(),
		},
		Metrics: map[string]float64{
			"elapsed_seconds":                elapsed,
			"nodes":                          float64(o.nodes),
			"rounds_per_sec":                 float64(rounds) / elapsed,
			"schedule_round_mean_seconds":    safeDiv(roundSec, float64(rounds)),
			"heartbeat_p50_seconds":          fr.RTTp50,
			"heartbeat_p99_seconds":          fr.RTTp99,
			"heartbeat_rtt_samples":          float64(fr.RTTSamples),
			"beats_per_sec":                  float64(nmHandleN) / elapsed,
			"delta_beats_total":              float64(fr.DeltaBeats),
			"delta_beat_fraction":            safeDiv(float64(fr.DeltaBeats), float64(fr.Beats)),
			"wire_bytes_per_node_per_sec":    float64(fr.BytesSent+fr.BytesRecv) / float64(o.nodes) / elapsed,
			"process_cpu_seconds_per_sec":    cpuSec / elapsed,
			"cpu_seconds_per_node_per_sec":   cpuSec / float64(o.nodes) / elapsed,
			"rm_nm_heartbeat_handle_seconds": safeDiv(nmHandleSec, float64(nmHandleN)),
			"shards":                         float64(o.shards),
			"registers_total":                float64(fr.Registers),
			"redials_total":                  float64(fr.Redials),
			"crash_windows_total":            float64(fr.Crashes),
			"tasks_launched_total":           float64(fr.TasksLaunched),
			"tasks_completed_total":          float64(fr.TasksCompleted),
			"jobs_submitted":                 float64(amRep.Submitted),
			"jobs_finished":                  float64(amRep.Finished),
			"jobs_failed":                    float64(amRep.Failed),
		},
	}
	for k, v := range perShard {
		snap.Metrics[k] = v
	}
	if o.tenants > 0 {
		att := float64(stormRep.Attempts)
		snap.Config["tenants"] = strconv.Itoa(o.tenants)
		snap.Config["storm_workers"] = strconv.Itoa(o.stormWorkers)
		snap.Config["storm_batch"] = strconv.Itoa(o.stormBatch)
		snap.Config["tenant_quota_jobs"] = strconv.Itoa(o.quotaJobs)
		snap.Config["shed_highwater"] = strconv.Itoa(o.shedHigh)
		snap.Metrics["admission_per_sec"] = safeDiv(float64(stormRep.Admitted+stormRep.Rejected), elapsed)
		snap.Metrics["submit_p50_seconds"] = stormRep.SubmitP50
		snap.Metrics["submit_p99_seconds"] = stormRep.SubmitP99
		snap.Metrics["storm_attempts_total"] = att
		snap.Metrics["storm_admitted_total"] = float64(stormRep.Admitted)
		snap.Metrics["storm_rejected_total"] = float64(stormRep.Rejected)
		snap.Metrics["storm_shed_total"] = float64(stormRep.Shed)
		snap.Metrics["storm_rate_limited_total"] = float64(stormRep.RateLimited)
		snap.Metrics["storm_quota_total"] = float64(stormRep.Quota)
		snap.Metrics["storm_errors_total"] = float64(stormRep.Errors)
		snap.Metrics["storm_batches_total"] = float64(stormRep.Batches)
		snap.Metrics["shed_rate"] = safeDiv(float64(stormRep.Shed), att)
		snap.Metrics["fleet_throttled_total"] = float64(amRep.Throttled)
	}
	if gangScenario {
		snap.Config["gang_fraction"] = strconv.FormatFloat(o.gangFrac, 'g', -1, 64)
		snap.Metrics["gangs_admitted_total"] = float64(gangCommits)
		snap.Metrics["gang_admit_p50_seconds"] = gangP50
		snap.Metrics["gang_admit_p99_seconds"] = gangP99
		snap.Metrics["preemptions_total"] = float64(preempts)
		snap.Metrics["preemptions_per_sec"] = float64(preempts) / elapsed
		snap.Metrics["gang_releases_total"] = float64(gangReleases)
		snap.Metrics["gang_releases_per_sec"] = float64(gangReleases) / elapsed
		// Fraction of hoard epochs that timed out instead of committing —
		// the coordinator's hoarding efficiency.
		snap.Metrics["gang_release_rate"] = safeDiv(float64(gangReleases), float64(gangReleases+gangCommits))
		snap.Metrics["tasks_preempted_total"] = float64(fr.TasksPreempted)
	}

	fmt.Printf("tetris-hollow: %s in %.1fs — %d/%d jobs finished, %d tasks completed\n",
		o.scenario, elapsed, amRep.Finished, amRep.Submitted, fr.TasksCompleted)
	fmt.Printf("  beats/sec           %.1f (%.1f rounds/sec ran, mean round %.3fms)\n",
		float64(nmHandleN)/elapsed, float64(rounds)/elapsed, 1e3*safeDiv(roundSec, float64(rounds)))
	for i := 0; i < o.shards; i++ {
		label := strconv.Itoa(i)
		fmt.Printf("  shard %-2s            %.1f beats/sec, %.1f rounds/sec, heartbeat p99 %.3fms\n",
			label, perShard["shard"+label+"_beats_per_sec"], perShard["shard"+label+"_rounds_per_sec"],
			1e3*perShard["shard"+label+"_heartbeat_p99_seconds"])
	}
	fmt.Printf("  heartbeat RTT       p50 %.3fms  p99 %.3fms  (%d samples)\n",
		fr.RTTp50*1e3, fr.RTTp99*1e3, fr.RTTSamples)
	fmt.Printf("  wire bytes/node/sec %.0f (delta beats %.0f%%, batch %d)\n",
		float64(fr.BytesSent+fr.BytesRecv)/float64(o.nodes)/elapsed,
		100*safeDiv(float64(fr.DeltaBeats), float64(fr.Beats)), o.batch)
	fmt.Printf("  process CPU         %.2fs (%.4fms per node per sec)\n",
		cpuSec, 1e3*cpuSec/float64(o.nodes)/elapsed)
	if o.tenants > 0 {
		fmt.Printf("  admission           %.0f verdicts/sec — %d admitted, %d rejected (%d shed, %d rate-limited, %d quota)\n",
			snap.Metrics["admission_per_sec"], stormRep.Admitted, stormRep.Rejected,
			stormRep.Shed, stormRep.RateLimited, stormRep.Quota)
		fmt.Printf("  submit RTT          p50 %.3fms  p99 %.3fms  (%d batches, %d transport errors)\n",
			stormRep.SubmitP50*1e3, stormRep.SubmitP99*1e3, stormRep.Batches, stormRep.Errors)
	}
	if gangScenario {
		fmt.Printf("  gangs               %d admitted (admit wait p50 %.3fs p99 %.3fs), %d hoards released\n",
			gangCommits, gangP50, gangP99, gangReleases)
		fmt.Printf("  preemptions         %d decided (%.1f/sec), %d kills delivered to nodes\n",
			preempts, float64(preempts)/elapsed, fr.TasksPreempted)
	}
	if err := srv.VerifyLedger(); err != nil {
		return nil, amRep.Failed, fmt.Errorf("ledger check failed: %v", err)
	}
	fmt.Println("  ledger              balanced")
	return snap, amRep.Failed, nil
}

// processCPU returns the process's cumulative user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
