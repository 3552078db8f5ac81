// tetris-cluster boots the distributed prototype on loopback TCP: one
// resource manager, N node managers and one job manager per submitted
// job, with time-compressed emulated task execution (§4.4).
//
// Usage:
//
//	tetris-cluster -nodes 8 -jobs 4 -compression 100
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"time"

	tetris "github.com/tetris-sched/tetris"
	"github.com/tetris-sched/tetris/internal/am"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 8, "number of node managers")
		jobs        = flag.Int("jobs", 4, "number of jobs to submit")
		compression = flag.Float64("compression", 100, "time compression factor")
		seed        = flag.Int64("seed", 42, "workload seed")
		verbose     = flag.Bool("v", false, "verbose RM/NM logging")

		nodeTimeout = flag.Duration("node-timeout", 0, "declare a node dead after this heartbeat silence (0 = off)")
		killNode    = flag.Int("kill-node", -1, "node ID to kill mid-run (-1 = none; requires -node-timeout)")
		killAfter   = flag.Duration("kill-after", time.Second, "when to kill -kill-node")
		reviveAfter = flag.Duration("revive-after", 0, "start a replacement NM this long after the kill (0 = never)")

		journalDir = flag.String("journal-dir", "", "RM write-ahead journal directory: one log for every shard, under shard-0/ (empty = no durability); a restarted RM pointed at the same directory with the same -shards recovers its state, and another -shards is refused")
		fsyncMode  = flag.String("fsync", "interval", "journal fsync policy: interval, always, or never")
		snapEvery  = flag.Int("snapshot-every", 0, "checkpoint every shard once one shard has journaled this many records since the last checkpoint (0 = default)")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, JSON /debug/status and /debug/trace, and pprof on this address (empty = off)")

		shards = flag.Int("shards", 1, "scheduler shards: the RM partitions nodes by id mod N and routes each job to one shard")

		connTimeout = flag.Duration("conn-timeout", 0, "per-read/write deadline on RM connection handlers (0 = 2m default)")
		tenant      = flag.String("tenant", "", "tenant name stamped on submitted jobs (empty = anonymous default tenant)")
		quotaJobs   = flag.Int("tenant-quota-jobs", 0, "per-tenant queued-job quota; >0 enables the admission front door")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant submit rate limit, jobs/sec (0 = unlimited; needs -tenant-quota-jobs)")
		shedHigh    = flag.Int("shed-highwater", 0, "unfinished-job backlog where priority shedding starts (0 = off; needs -tenant-quota-jobs)")
		shedLimit   = flag.Int("shed-limit", 0, "backlog where every submission sheds (0 = 2x highwater)")
	)
	flag.Parse()
	syncPolicy, err := journal.ParsePolicy(*fsyncMode)
	if err != nil {
		log.Fatalf("-fsync: %v", err)
	}
	if *killNode >= 0 && *nodeTimeout <= 0 {
		log.Fatal("-kill-node needs -node-timeout, or the RM will wait on the dead node forever")
	}
	if *killNode >= *nodes {
		log.Fatalf("-kill-node %d out of range (%d nodes)", *killNode, *nodes)
	}

	var logger *log.Logger
	if *verbose {
		logger = log.New(os.Stderr, "", log.Lmicroseconds)
	}
	// One registry aggregates RM, NM and AM series; the scheduler's
	// decision traces land in a bounded ring served at /debug/trace.
	reg := telemetry.NewRegistry()
	ring := scheduler.NewDecisionRing(256, 1)
	schedCfg := tetris.DefaultConfig()
	schedCfg.Trace = ring
	// Admission front door: enabled when a per-tenant quota is set.
	var admCfg *rm.AdmissionConfig
	if *quotaJobs > 0 {
		admCfg = &rm.AdmissionConfig{
			Defaults:      rm.TenantLimits{MaxQueuedJobs: *quotaJobs, SubmitRate: *tenantRate},
			ShedHighWater: *shedHigh,
			ShedLimit:     *shedLimit,
		}
	} else if *tenantRate > 0 || *shedHigh > 0 {
		log.Fatal("-tenant-rate/-shed-highwater need -tenant-quota-jobs to enable admission")
	}
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:        *shards,
		NewScheduler:  func() tetris.Scheduler { return tetris.NewScheduler(schedCfg) },
		NewEstimator:  tetris.NewEstimator,
		NodeTimeout:   *nodeTimeout,
		JournalDir:    *journalDir,
		JournalSync:   syncPolicy,
		SnapshotEvery: *snapEvery,
		Admission:     admCfg,
		ConnTimeout:   *connTimeout,
		Metrics:       reg,
		Logger:        logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("resource manager listening on %s (%d shard(s))\n", srv.Addr(), *shards)
	if *journalDir != "" {
		fmt.Printf("journaling to %s (fsync=%s)\n", *journalDir, *fsyncMode)
	}
	if *metricsAddr != "" {
		ts := &telemetry.Server{
			Registry: reg,
			Status:   func() (any, error) { return srv.ClusterStatus(), nil },
			Trace:    func() any { return ring.Snapshot() },
		}
		if err := ts.Start(*metricsAddr); err != nil {
			log.Fatalf("-metrics-addr: %v", err)
		}
		defer ts.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", ts.Addr())
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	capVec := tetris.NewVector(16, 32, 200, 200, 1000, 1000)
	var nmWG sync.WaitGroup
	runNM := func(nodeCtx context.Context, id int) {
		node := nm.New(nm.Config{
			NodeID:      id,
			Capacity:    capVec,
			RMAddr:      srv.Addr(),
			Compression: *compression,
			Logger:      logger,
			Metrics:     reg,
		})
		nmWG.Add(1)
		go func() {
			defer nmWG.Done()
			if err := node.Run(nodeCtx); err != nil && nodeCtx.Err() == nil {
				log.Printf("nm %d: %v", id, err)
			}
		}()
	}
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	for i := 0; i < *nodes; i++ {
		if i == *killNode {
			runNM(victimCtx, i)
		} else {
			runNM(ctx, i)
		}
	}
	fmt.Printf("%d node managers running (%.0f× time compression)\n", *nodes, *compression)

	if *killNode >= 0 {
		revive := *reviveAfter
		kill, id := *killAfter, *killNode
		go func() {
			select {
			case <-time.After(kill):
				fmt.Printf("killing node manager %d\n", id)
				killVictim()
			case <-ctx.Done():
				return
			}
			if revive <= 0 {
				return
			}
			select {
			case <-time.After(revive):
				fmt.Printf("starting replacement node manager %d\n", id)
				runNM(ctx, id)
			case <-ctx.Done():
			}
		}()
	}

	wl := tetris.GenerateWorkload(tetris.TraceConfig{
		Seed:        *seed,
		NumJobs:     *jobs,
		NumMachines: *nodes,
	})
	// Shrink the generated jobs so the demo finishes quickly.
	for _, j := range wl.Jobs {
		for _, st := range j.Stages {
			if len(st.Tasks) > 30 {
				st.Tasks = st.Tasks[:30]
			}
		}
	}

	start := time.Now()
	var amWG sync.WaitGroup
	for _, j := range wl.Jobs {
		j := j
		amWG.Add(1)
		go func() {
			defer amWG.Done()
			res, err := am.Run(ctx, am.Config{RMAddr: srv.Addr(), Job: j, Tenant: *tenant, Metrics: reg})
			if err != nil {
				if ctx.Err() == nil {
					log.Printf("job %d: %v", j.ID, err)
				}
				return
			}
			fmt.Printf("job %-3d (%s, %d tasks) finished: wall %-8s emulated %.0fs\n",
				j.ID, j.Name, j.NumTasks(), res.Wall.Round(time.Millisecond),
				res.Wall.Seconds()**compression)
		}()
	}
	amWG.Wait()
	fmt.Printf("all jobs done in %s wall time\n", time.Since(start).Round(time.Millisecond))

	nmMean, nmP99, amMean, amP99 := srv.HeartbeatStats()
	fmt.Printf("RM heartbeat cost: NM mean %.0fµs p99 %.0fµs; AM mean %.0fµs p99 %.0fµs\n",
		nmMean*1e6, nmP99*1e6, amMean*1e6, amP99*1e6)
	if appends, snaps, ok := srv.JournalStats(); ok {
		fmt.Printf("journal: %d records appended, %d snapshots\n", appends, snaps)
	}
	st := srv.ClusterStatus()
	if st.DroppedFaults > 0 {
		fmt.Printf("fault log: %d oldest records evicted from the bounded ring\n", st.DroppedFaults)
	}
	if len(st.Faults) > 0 {
		fmt.Printf("cluster: %d/%d nodes live\n", len(st.Live), st.Nodes)
		for _, e := range st.Faults {
			switch e.Kind {
			case faults.MachineCrash:
				fmt.Printf("fault: t=%-6.1f node %d crashed, %d task attempts reclaimed\n",
					e.Time, e.Machine, e.TasksKilled)
			case faults.MachineRecover:
				fmt.Printf("fault: t=%-6.1f node %d recovered after %.1fs down\n",
					e.Time, e.Machine, e.Downtime)
			}
		}
	}
	cancel()
	nmWG.Wait()
}
