package rm

// Overload chaos: a multi-tenant submission storm batters a journaled
// RM at many times its admission capacity while the RM is killed and
// restarted from the journal mid-batch. Invariants checked at every
// restart and at the end:
//   - replayed state is bit-identical to the pre-crash state,
//   - every acked-admitted job survives with its tenant intact,
//   - every acked-rejected job is absent (rejections journal nothing),
//   - per-tenant accounting rebuilt by replay matches the job table,
//     so quotas hold across incarnations,
//   - heartbeat traffic is answered normally even when every
//     submission is being shed.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/wire"
)

func startAdmissionRM(t *testing.T, addr, journalDir string) *Sharded {
	t.Helper()
	cfg := ShardedConfig{
		Shards:        1,
		NewScheduler:  tetrisScheduler,
		NewEstimator:  estimator.New,
		JournalDir:    journalDir,
		SnapshotEvery: 64,
		Admission: &AdmissionConfig{
			Defaults:      TenantLimits{MaxQueuedJobs: 10},
			ShedHighWater: 25,
			ShedLimit:     35,
			RetryAfter:    10 * time.Millisecond,
		},
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

func TestChaosAdmissionCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	const (
		workers    = 4
		tenants    = 4
		batchSize  = 5
		minCrashes = 4
	)
	addr := reserveAddr(t)
	journalDir := t.TempDir()
	srv := startAdmissionRM(t, addr, journalDir)

	// verdicts records every acked per-job outcome. Jobs whose batch hit
	// a transport error (the RM was killed mid-batch) have no entry —
	// they may legitimately be present or absent after replay, but when
	// present must still carry the right tenant.
	type verdict struct {
		tenant   string
		admitted bool
	}
	var (
		mu       sync.Mutex
		verdicts = map[int]verdict{}
		nextID   atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(idx) + 1))
			var conn net.Conn
			var framer *wire.Framer
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			for !stop.Load() {
				if conn == nil {
					c, err := net.Dial("tcp", addr)
					if err != nil {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					conn, framer = c, wire.NewFramer(wire.CodecJSON)
				}
				tenant := fmt.Sprintf("t%d", rng.Intn(tenants))
				batch := &wire.SubmitBatch{Tenant: tenant}
				for i := 0; i < batchSize; i++ {
					batch.Jobs = append(batch.Jobs, chaosJob(int(nextID.Add(1)-1), 1))
				}
				err := framer.Write(conn, &wire.Message{Type: wire.TypeSubmitBatch, SubmitBatch: batch})
				var reply *wire.Message
				if err == nil {
					reply, err = framer.Read(conn)
				}
				if err != nil {
					conn.Close()
					conn = nil
					continue
				}
				if reply.Type != wire.TypeSubmitBatchReply {
					continue
				}
				mu.Lock()
				for _, res := range reply.SubmitBatchReply.Results {
					verdicts[res.JobID] = verdict{tenant: tenant, admitted: res.Reject == nil}
				}
				mu.Unlock()
			}
		}(w)
	}

	// Kill the RM at randomized points mid-storm, verifying replay
	// equivalence at every restart, plus heartbeat liveness under full
	// shedding.
	rng := rand.New(rand.NewSource(42))
	for crashes := 0; crashes < minCrashes; crashes++ {
		time.Sleep(time.Duration(60+rng.Intn(80)) * time.Millisecond)
		if err := srv.Close(); err != nil {
			t.Fatalf("crash %d: close: %v", crashes, err)
		}
		want := srv.Shard(0).StateDigest()
		srv = startAdmissionRM(t, addr, journalDir)
		if got := srv.Shard(0).RecoveredDigest(); !bytes.Equal(want, got) {
			t.Fatalf("crash %d: replayed state diverges\n pre-crash: %s\n recovered: %s", crashes, want, got)
		}
	}
	// With jobs never finishing, the backlog has long blown past
	// ShedLimit: every submission sheds, but heartbeats still answer.
	mu.Lock()
	var probe int
	for id, v := range verdicts {
		if v.admitted {
			probe = id
			break
		}
	}
	mu.Unlock()
	if reply := srv.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: probe}); reply.AMReply == nil {
		t.Errorf("AM heartbeat degraded under overload: %+v", reply)
	}
	stop.Store(true)
	wg.Wait()

	// Final verification against the last incarnation's state.
	core := srv.Shard(0)
	core.mu.Lock()
	perTenant := map[string]int{}
	unfinished := 0
	for _, ji := range core.jobs {
		if !ji.finished {
			perTenant[ji.tenant]++
			unfinished++
		}
	}
	jobTenant := func(id int) (string, bool) {
		ji := core.jobs[id]
		if ji == nil {
			return "", false
		}
		return ji.tenant, true
	}
	core.mu.Unlock()

	mu.Lock()
	admitted, rejected := 0, 0
	for id, v := range verdicts {
		got, present := jobTenant(id)
		if v.admitted {
			admitted++
			if !present {
				t.Errorf("acked-admitted job %d lost across restarts", id)
			} else if got != v.tenant {
				t.Errorf("job %d recovered under tenant %q, submitted by %q", id, got, v.tenant)
			}
		} else {
			rejected++
			if present {
				t.Errorf("acked-rejected job %d resurrected (tenant %q)", id, got)
			}
		}
	}
	mu.Unlock()
	if admitted == 0 || rejected == 0 {
		t.Fatalf("storm not overloading: %d admitted, %d rejected — tune quotas", admitted, rejected)
	}

	// Replay-rebuilt accounting must match the job table exactly: that
	// is what makes quotas hold across crash-restarts.
	for tenant, want := range perTenant {
		if got := srv.adm.queuedJobs(tenant); got != want {
			t.Errorf("tenant %q accounting = %d queued, job table has %d", tenant, got, want)
		}
	}
	if got := srv.adm.backlog(); got != int64(unfinished) {
		t.Errorf("backlog = %d, job table has %d unfinished", got, unfinished)
	}
	// And the per-tenant quota is never exceeded.
	for tenant, n := range perTenant {
		if n > 10 {
			t.Errorf("tenant %q holds %d unfinished jobs, quota is 10", tenant, n)
		}
	}
	srv.Close()
}
