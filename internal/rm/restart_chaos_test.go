package rm

// Crash-restart chaos test: a live cluster (real sockets, real NM/AM
// processes-as-goroutines) has its RM killed at randomized points
// mid-workload and restarted from the journal on the same address. At
// every crash the replayed state must match the pre-crash state byte
// for byte, and at the end every job must have completed with zero
// lost or duplicated task attempts.

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/am"
	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// reserveAddr grabs an ephemeral loopback port and releases it so every
// RM incarnation can listen on the same address.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startRM boots an RM incarnation on the fixed address, retrying the
// bind briefly (the previous incarnation's socket may still be
// releasing).
func startRM(t *testing.T, addr, journalDir string) *Sharded {
	t.Helper()
	cfg := ShardedConfig{
		Shards:          1,
		NewScheduler:    tetrisScheduler,
		NewEstimator:    estimator.New,
		NodeTimeout:     3 * time.Second,
		MaxTaskAttempts: 10,
		JournalDir:      journalDir,
		SnapshotEvery:   64, // exercise checkpoints mid-chaos
	}
	var (
		s   *Sharded
		err error
	)
	for attempt := 0; attempt < 50; attempt++ {
		s, err = NewSharded(addr, cfg)
		if err == nil {
			return s
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rm would not restart on %s: %v", addr, err)
	return nil
}

func chaosJob(id, tasks int) *workload.Job {
	j := &workload.Job{ID: id, Name: fmt.Sprintf("chaos-%d", id), Weight: 1}
	st := &workload.Stage{Name: "work"}
	for i := 0; i < tasks; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
			Peak: resources.New(2, 4, 0, 0, 0, 0),
			Work: workload.Work{CPUSeconds: 40}, // 100 ms wall at 200×
		})
	}
	j.Stages = []*workload.Stage{st}
	return j
}

func TestChaosRMCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runRMCrashChaos(t, seed)
		})
	}
}

func runRMCrashChaos(t *testing.T, seed int64) {
	const (
		numNodes    = 4
		numJobs     = 6
		tasksPerJob = 45
		minCrashes  = 5
	)
	rng := rand.New(rand.NewSource(seed))
	addr := reserveAddr(t)
	journalDir := t.TempDir()
	var logger *log.Logger // nil: discard; flip to os.Stderr when debugging

	srv := startRM(t, addr, journalDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	capVec := resources.New(16, 32, 200, 200, 1000, 1000)
	var nmWG sync.WaitGroup
	for i := 0; i < numNodes; i++ {
		node := nm.New(nm.Config{
			NodeID:        i,
			Capacity:      capVec,
			RMAddr:        addr,
			Heartbeat:     10 * time.Millisecond,
			Compression:   200,
			MaxReconnects: 1000,
			Logger:        logger,
		})
		nmWG.Add(1)
		go func(id int) {
			defer nmWG.Done()
			if err := node.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("nm %d died: %v", id, err)
			}
		}(i)
	}

	amErrs := make(chan error, numJobs)
	var amWG sync.WaitGroup
	for id := 0; id < numJobs; id++ {
		job := chaosJob(id, tasksPerJob)
		amWG.Add(1)
		go func() {
			defer amWG.Done()
			_, err := am.Run(ctx, am.Config{
				RMAddr: addr, Job: job,
				Poll:          10 * time.Millisecond,
				MaxReconnects: 1000,
			})
			if err != nil {
				amErrs <- fmt.Errorf("job %d: %w", job.ID, err)
			}
		}()
	}
	amsDone := make(chan struct{})
	go func() { amWG.Wait(); close(amsDone) }()

	// Kill the RM at randomized points until the workload finishes,
	// verifying replay equivalence at every restart.
	crashes := 0
	for done := false; !done; {
		select {
		case <-amsDone:
			done = true
		case <-time.After(time.Duration(100+rng.Intn(120)) * time.Millisecond):
			crashes++
			if err := srv.Close(); err != nil {
				t.Fatalf("crash %d: close: %v", crashes, err)
			}
			want := srv.Shard(0).StateDigest()
			srv = startRM(t, addr, journalDir)
			if got := srv.Shard(0).RecoveredDigest(); !bytes.Equal(want, got) {
				t.Fatalf("crash %d: replayed state diverges from pre-crash state\n pre-crash: %s\n recovered: %s",
					crashes, want, got)
			}
		}
	}
	close(amErrs)
	for err := range amErrs {
		t.Error(err)
	}
	if crashes < minCrashes {
		t.Errorf("workload outpaced the chaos: only %d RM crashes (want >= %d); grow the workload",
			crashes, minCrashes)
	}

	// Zero lost or duplicated attempts: every job completed every task
	// exactly once (Status panics on duplicate MarkDone, so Finished
	// plus zero failures is exact), and the reconciled books balance.
	core := srv.Shard(0)
	core.mu.Lock()
	for id := 0; id < numJobs; id++ {
		ji := core.jobs[id]
		if ji == nil {
			t.Errorf("job %d unknown to final RM", id)
			continue
		}
		if !ji.finished || ji.failed {
			t.Errorf("job %d: finished=%v failed=%v", id, ji.finished, ji.failed)
		}
		if got := ji.state.Status.DoneTasks(); got != tasksPerJob {
			t.Errorf("job %d: %d tasks done, want %d", id, got, tasksPerJob)
		}
		if f := ji.state.Status.TotalFailures(); f != 0 {
			t.Errorf("job %d: %d failed attempts, want 0 (no node ever died)", id, f)
		}
	}
	core.mu.Unlock()
	if err := srv.VerifyLedger(); err != nil {
		t.Errorf("final ledger: %v", err)
	}

	cancel()
	nmWG.Wait()
	srv.Close()
}
