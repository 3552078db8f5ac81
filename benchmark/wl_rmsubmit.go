package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"github.com/tetris-sched/tetris/internal/cluster"
	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/rm"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// submitJobs builds rm-submit's input: batches × batchJobs one-stage
// jobs of jobTasks tasks each. Task shapes are the map tasks of a small
// §5.1 suite (the fixed population), dealt to the jobs in an order the
// seed shuffles, so demands have the trace's diversity while the counts
// are fixed.
func submitJobs(seed, population int64, sz rmSubmitSizes) []*workload.Job {
	suite := trace.GenerateSuite(trace.Config{Seed: population, NumJobs: 4, NumMachines: sz.Nodes})
	var pool []*workload.Task
	for _, j := range suite.Jobs {
		pool = append(pool, j.Stages[0].Tasks...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	jobs := make([]*workload.Job, sz.Batches*sz.BatchJobs)
	for id := range jobs {
		st := &workload.Stage{Name: "s"}
		for i := 0; i < sz.JobTasks; i++ {
			src := pool[(id*sz.JobTasks+i)%len(pool)]
			st.Tasks = append(st.Tasks, &workload.Task{
				ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
				Peak: src.Peak,
				Work: workload.Work{CPUSeconds: src.Work.CPUSeconds},
			})
		}
		jobs[id] = &workload.Job{ID: id, Name: "submit", Weight: 1, Stages: []*workload.Stage{st}}
	}
	return jobs
}

// shardState is what a recovered RM must reproduce.
type shardState struct {
	jobIDs []int
	digest []byte
}

func shardStates(g *rm.Sharded) []shardState {
	out := make([]shardState, g.NumShards())
	for i := range out {
		out[i] = shardState{g.Shard(i).JobIDs(), g.Shard(i).StateDigest()}
	}
	return out
}

// runRMSubmit is one episode of rm-submit: a 4-shard journaled RM with
// admission on takes batches of small jobs; after each batch one
// heartbeat sweep completes what the previous sweep launched and each
// job of the batch is polled once as its AM would. Then the RM is closed
// and recovered from copies of its journal. Its operation latency is one
// SubmitBatch call.
func runRMSubmit(c *runCtx) (*episode, error) {
	sz := c.sz.RMSubmit
	ep := &episode{layer: newLayer()}

	setup := time.Now()
	dir, err := os.MkdirTemp(c.outDir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sp := c.tr.begin("trace.generate")
	jobs := submitJobs(c.seed, c.sz.PopulationSeed, sz)
	c.tr.end(sp)
	probes := &schedProbes{tr: c.tr}
	reg := telemetry.NewRegistry()
	cfg := rm.ShardedConfig{
		Shards:       sz.Shards,
		NewScheduler: probes.newScheduler,
		JournalDir:   filepath.Join(dir, "live"),
		JournalSync:  journal.SyncInterval,
		Admission:    &rm.AdmissionConfig{Defaults: rm.TenantLimits{MaxQueuedJobs: sz.MaxQueuedJobs}},
		Metrics:      reg,
	}
	g, err := rm.NewShardedInProcess(cfg)
	if err != nil {
		return nil, err
	}
	defer g.Close() // closing twice is harmless; the success path checks the first
	registerInProcess(g, sz.Nodes, cluster.FacebookProfile(), c.tr)
	routeProbe(ep.layer, g, jobs, c.tr)
	clock := newNodeClock(1, 1) // a launch completes on the next sweep
	var warm, st beatStats
	sweepInProcess(g, sz.Nodes, 0, clock, &warm, c.tr, ep) // untimed warm-up sweep
	ep.setupS = time.Since(setup).Seconds()

	total := len(jobs) * sz.JobTasks
	rejects := 0
	arrival := make(map[int]float64, len(jobs))
	probes.reset()
	c.tr.markTimed()
	region := beginRegion()
	sweep := 1
	for b := 0; b < sz.Batches; b, sweep = b+1, sweep+1 {
		c.tr.setOp(sweep)
		batch := jobs[b*sz.BatchJobs : (b+1)*sz.BatchJobs]
		tenant := "tenant-" + strconv.Itoa(b%sz.Tenants)
		t0 := time.Now()
		sp := c.tr.begin("rm.submit")
		results, err := g.SubmitBatch(tenant, batch)
		c.tr.end(sp)
		ep.opNs = append(ep.opNs, float64(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		for _, r := range results {
			ep.attempted++
			arrival[r.JobID] = float64(sweep)
			if r.Reject != nil {
				rejects++
				ep.fail("job %d rejected: %s %s", r.JobID, r.Reject.Code, r.Reject.Reason)
			}
		}
		sweepInProcess(g, sz.Nodes, sweep, clock, &st, c.tr, ep)
		for _, j := range batch {
			sp := c.tr.begin("rm.am_beat")
			r := g.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: j.ID})
			c.tr.end(sp)
			ep.attempted++
			if r.Type != wire.TypeAMReply {
				ep.fail("AM poll of job %d: %s", j.ID, r.Error)
			}
		}
	}
	for guard := (stallGuard{}); clock.completions < total; sweep++ {
		sweepInProcess(g, sz.Nodes, sweep, clock, &st, c.tr, ep)
		if guard.stalled(clock) {
			return nil, errStalled(sweep, clock.completions, total)
		}
	}
	region.end(ep)
	c.tr.markDone()
	fsyncS := fsyncSeconds(reg, sz.Shards)

	checkRM(ep, g, jobs, c.tr)
	finish := checkJobs(ep, jobs, clock)
	ep.tasks = clock.completions
	ep.beats = st.beats
	ep.makespanVS, ep.meanJCTVS = qualityOf(finish, func(id int) float64 { return arrival[id] })
	ep.digest = finishDigest(finish)

	live := shardStates(g)
	if err := g.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	recoverMs, records, err := reopen(ep, cfg, dir, sz.Reopens, live, c.tr)
	if err != nil {
		return nil, err
	}

	if c.tr != nil {
		schedulerLayer(ep.layer, probes.probes)
		spanLayers(ep, c.tr)
		beatLayer(ep.layer, &st, clock)
		ep.layer["rm.submit.self_ms"] -= fsyncS * 1e3
		ep.layer["rm.submit.jobs"] = float64(len(jobs) - rejects)
		ep.layer["rm.submit.rejects"] = float64(rejects)
		ep.layer["rm.submit.reject_frac"] = float64(rejects) / float64(len(jobs))
		sorted := sortedCopy(recoverMs)
		ep.layer["rm.recover.ms_p50"] = median(sorted)
		ep.layer["rm.recover.ms_max"] = sorted[len(sorted)-1]
		ep.layer["rm.recover.records"] = records
		if err := journalProbe(ep.layer, filepath.Join(cfg.JournalDir, "shard-0"), dir); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// fsyncSeconds is the journal fsync time the shards' own telemetry has
// observed so far.
func fsyncSeconds(reg *telemetry.Registry, shards int) float64 {
	var s float64
	for i := 0; i < shards; i++ {
		s += reg.Histogram(telemetry.Label("tetris_rm_journal_fsync_seconds", "shard", strconv.Itoa(i)), "").Sum()
	}
	return s
}

// reopen recovers an RM from a fresh copy of the closed one's journal n
// times (recovery checkpoints what it replays, so each timing needs its
// own copy) and gates that every recovery reproduces the live RM: same
// job IDs and the same state digest on every shard. It returns the
// recovery times in ms and the records one recovery replays.
func reopen(ep *episode, cfg rm.ShardedConfig, dir string, n int, live []shardState, tr *tracer) (msEach []float64, records float64, err error) {
	src := cfg.JournalDir
	for i := 0; i < n; i++ {
		cfg.JournalDir = filepath.Join(dir, "reopen-"+strconv.Itoa(i))
		if err := copyTree(src, cfg.JournalDir); err != nil {
			return nil, 0, err
		}
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		t0 := time.Now()
		sp := tr.begin("rm.recover")
		g, err := rm.NewShardedInProcess(cfg)
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("reopen %d: %w", i, err)
		}
		msEach = append(msEach, ms(time.Since(t0)))
		records = 0
		for s := range live {
			ep.attempted++
			core := g.Shard(s)
			if !slices.Equal(core.JobIDs(), live[s].jobIDs) {
				ep.fail("reopen %d shard %d: recovered %d jobs, live RM had %d", i, s, len(core.JobIDs()), len(live[s].jobIDs))
			} else if !bytes.Equal(core.RecoveredDigest(), live[s].digest) {
				ep.fail("reopen %d shard %d: recovered state digest differs from the live RM's", i, s)
			}
			records += reg.Gauge(telemetry.Label("tetris_rm_journal_replay_records", "shard", strconv.Itoa(s)), "").Value()
		}
		if err := g.Close(); err != nil {
			return nil, 0, fmt.Errorf("reopen %d: close: %w", i, err)
		}
	}
	return msEach, records, nil
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
