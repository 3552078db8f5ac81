package rm

import (
	"bytes"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/testutil"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// TestConcurrentCheckpoint: checkpoints taken mid-traffic — four shards
// with SnapshotEvery 8, two goroutines beating disjoint halves of the
// fleet in batch frames until every job finished while this one submits
// batches — leave a log from
// which every shard recovers to the state it closed with. Run under the
// race detector, it also checks the checkpoint's lock discipline.
func TestConcurrentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedConfig{Shards: 4, NewScheduler: tetrisScheduler, JournalDir: dir, SnapshotEvery: 8}
	g, err := NewShardedInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nodes, batches, batchJobs = 32, 20, 4
	registerFleet(t, g, nodes)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	halt := func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	beater := func(first int) {
		defer wg.Done()
		done := make(map[int][]wire.TaskCompletion) // node → completions to report
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := &wire.HeartbeatBatch{}
			for id := first; id < first+nodes/2; id++ {
				b.Beats = append(b.Beats, wire.NMHeartbeat{NodeID: id, Completed: done[id]})
				done[id] = nil
			}
			for _, e := range g.HandleHeartbeatBatch(b).HeartbeatBatchReply.Replies {
				if e.Error != "" {
					t.Errorf("node %d: %s", e.NodeID, e.Error)
					return
				}
				for _, l := range e.Reply.Launch {
					done[e.NodeID] = append(done[e.NodeID], wire.TaskCompletion{Task: l.Task, Usage: l.Demand, Duration: 1})
				}
			}
		}
	}
	wg.Add(2)
	go beater(0)
	go beater(nodes / 2)
	for b := range batches {
		var jobs []*workload.Job
		for i := range batchJobs {
			jobs = append(jobs, simpleJob(b*batchJobs+i, 3))
		}
		if _, err := g.SubmitBatch("", jobs); err != nil {
			t.Error(err)
			break
		}
	}
	testutil.WaitFor(t, 10*time.Second, "every job finished", func() bool { return finishedJobs(g) == batches*batchJobs })
	halt()
	if _, snaps, _ := g.JournalStats(); snaps < 3 {
		t.Fatalf("%d checkpoints, want some taken mid-traffic", snaps)
	}
	if err := g.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := NewShardedInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	for i := range cfg.Shards {
		if !bytes.Equal(g2.Shard(i).RecoveredDigest(), g.Shard(i).StateDigest()) {
			t.Errorf("shard %d recovered a state other than the one it closed with", i)
		}
	}
	if err := g2.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSubmitBatchDurable is one durable 16-job SubmitBatch on a
// journaled 4-shard RM of 64 nodes, each op a batch of new jobs; a fresh
// RM every 125 batches keeps the job table small. fsyncs/op counts the
// log's fsyncs during the timed batches (no ticker: SyncNever) — one per
// batch, the barrier, where per-shard logs paid one per shard touched.
func BenchmarkSubmitBatchDurable(b *testing.B) {
	const shards, nodes, batchJobs, window = 4, 64, 16, 125
	reg := telemetry.NewRegistry()
	fsyncs := func() (n uint64) {
		for i := range shards { // every shard's series: the log's is shard 0's
			n += reg.Histogram(telemetry.Label("tetris_rm_journal_fsync_seconds", "shard", strconv.Itoa(i)), "").Count()
		}
		return n
	}
	jobs := make([]*workload.Job, window*batchJobs)
	for id := range jobs {
		jobs[id] = simpleJob(id, 4)
	}
	var g *Sharded
	var synced, base uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			b.StopTimer()
			if g != nil {
				synced += fsyncs() - base
				g.Close()
			}
			var err error
			g, err = NewShardedInProcess(ShardedConfig{Shards: shards, NewScheduler: tetrisScheduler,
				JournalDir: b.TempDir(), JournalSync: journal.SyncNever, Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			for id := range nodes {
				g.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
			}
			g.JournalStats() // drains startup and registration fsyncs
			base = fsyncs()
			b.StartTimer()
		}
		k := i % window * batchJobs
		if _, err := g.SubmitBatch("", jobs[k:k+batchJobs]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	synced += fsyncs() - base
	g.Close()
	b.ReportMetric(float64(synced)/float64(b.N), "fsyncs/op")
}
