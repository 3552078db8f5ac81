package hollow

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/rm"
)

// TestStormOverloadsAdmission points the storm at a quota-bound RM and
// checks the front door both admits and rejects under the onslaught,
// with batch round-trips measured.
func TestStormOverloadsAdmission(t *testing.T) {
	srv, err := rm.NewSharded("127.0.0.1:0", rm.ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NewEstimator: estimator.New,
		Admission: &rm.AdmissionConfig{
			Defaults:      rm.TenantLimits{MaxQueuedJobs: 5},
			ShedHighWater: 200,
			ShedLimit:     400,
			RetryAfter:    10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rep := RunStorm(context.Background(), StormConfig{
		RMAddr:   srv.Addr(),
		Tenants:  10_000,
		Workers:  4,
		Batch:    8,
		Duration: 400 * time.Millisecond,
		Seed:     7,
	})
	if rep.Batches == 0 || rep.Attempts == 0 {
		t.Fatalf("storm sent nothing: %+v", rep)
	}
	if rep.Admitted == 0 {
		t.Errorf("nothing admitted: %+v", rep)
	}
	if rep.Rejected == 0 {
		t.Errorf("nothing rejected — the storm is not overloading: %+v", rep)
	}
	if rep.Quota == 0 {
		t.Errorf("hot tenants never hit the queued-job quota: %+v", rep)
	}
	if rep.Admitted+rep.Rejected > rep.Attempts {
		t.Errorf("verdicts exceed attempts: %+v", rep)
	}
	// With no transport failure every attempt got its verdict: the batch
	// the budget's expiry interrupts is neither.
	if rep.Errors == 0 && rep.Attempts != rep.Admitted+rep.Rejected {
		t.Errorf("healthy storm: %d attempts but %d verdicts: %+v", rep.Attempts, rep.Admitted+rep.Rejected, rep)
	}
	if rep.SubmitP99 <= 0 || rep.SubmitP50 > rep.SubmitP99 {
		t.Errorf("batch RTT quantiles malformed: p50=%v p99=%v", rep.SubmitP50, rep.SubmitP99)
	}
}

// TestStormBudgetExpiryIsNotAnError: against a peer that accepts and never
// replies, every worker's one exchange is cut short by the storm's own
// budget. That is the storm ending, not a transport failure, and a batch
// nobody answered is not an attempt.
func TestStormBudgetExpiryIsNotAnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Accepted connections stay open and silent until the listener closes,
	// which is after the storm has returned.
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		var conns []net.Conn
		for {
			c, err := ln.Accept()
			if err != nil {
				break
			}
			conns = append(conns, c)
		}
		for _, c := range conns {
			c.Close()
		}
	}()
	defer func() {
		ln.Close()
		<-accepting
	}()

	rep := RunStorm(context.Background(), StormConfig{
		RMAddr:   ln.Addr().String(),
		Workers:  4,
		Batch:    8,
		Duration: 200 * time.Millisecond,
	})
	if rep.Errors != 0 || rep.Attempts != 0 {
		t.Errorf("silent peer, budget expired: Errors=%d Attempts=%d, want 0 and 0: %+v", rep.Errors, rep.Attempts, rep)
	}
	if rep.Batches != 0 || rep.Admitted+rep.Rejected != 0 {
		t.Errorf("silent peer produced verdicts: %+v", rep)
	}
}
