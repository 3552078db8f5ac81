package hollow

import (
	"context"
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
		RMAddr:      srv.Addr(),
		Tenants:     10_000,
		HotTenants:  4,
		HotFraction: 0.7,
		Workers:     4,
		Batch:       8,
		Duration:    400 * time.Millisecond,
		Seed:        7,
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
	if rep.SubmitP99 <= 0 || rep.SubmitP50 > rep.SubmitP99 {
		t.Errorf("batch RTT quantiles malformed: p50=%v p99=%v", rep.SubmitP50, rep.SubmitP99)
	}
}
