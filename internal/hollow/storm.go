package hollow

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// StormConfig parameterizes a submission storm: a fleet of synthetic
// tenants pushing batched job submissions at the RM far beyond its
// admission capacity, to exercise quotas, rate limits, and load
// shedding. The storm is the adversarial counterpart of the hollow AM
// pool — it does not wait for its jobs; it only measures the front
// door.
type StormConfig struct {
	// RMAddr is the resource manager's address (required).
	RMAddr string
	// Tenants is the tenant-id universe the storm draws from (default
	// 1e6). Tenant names are "t<number>".
	Tenants int
	// Workers is the number of concurrent submitting connections
	// (default 8).
	Workers int
	// Batch is the number of jobs per submit-batch frame (default 16).
	Batch int
	// Rate caps total submitted jobs/sec across all workers; 0 means
	// unthrottled — submit as fast as the RM acks.
	Rate float64
	// Duration bounds the storm (required unless ctx is bounded).
	Duration time.Duration
	// BaseJobID starts the storm's job-id space, kept disjoint from any
	// concurrently running AM fleet's ids.
	BaseJobID int
	// Seed drives tenant choice and backoff jitter (default 1).
	Seed int64
	// Logger for diagnostics; nil discards.
	Logger *log.Logger
}

// The storm's shape: a batch comes from the hot set of the first
// stormHotTenants tenants (at most Tenants) with probability
// stormHotFraction, so per-tenant quotas and rate limits trip while the
// long tail exercises lazy tenant creation; a job has stormTasksPerJob
// tasks.
const (
	stormHotTenants  = 64
	stormHotFraction = 0.5
	stormTasksPerJob = 2
)

// StormReport is the storm's outcome, bucketed by admission verdict.
type StormReport struct {
	Attempts    int // jobs offered to the RM
	Admitted    int
	Rejected    int // all rejections
	RateLimited int
	Quota       int // quota-jobs
	Shed        int
	Conflict    int
	Invalid     int
	Errors      int // transport failures (batch outcome unknown)
	Batches     int
	SubmitP50   float64 // seconds per batch round-trip
	SubmitP99   float64
}

// RunStorm drives the submission storm until Duration elapses or ctx
// ends, and reports what the RM's front door did with it.
func RunStorm(ctx context.Context, cfg StormConfig) StormReport {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1_000_000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	var (
		nextID atomic.Int64
		rtts   = newReservoir(8192, cfg.Seed)
		mu     sync.Mutex
		rep    StormReport
		wg     sync.WaitGroup
	)
	nextID.Store(int64(cfg.BaseJobID))
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			r := runStormWorker(ctx, cfg, idx, &nextID, rtts)
			mu.Lock()
			rep.Attempts += r.Attempts
			rep.Admitted += r.Admitted
			rep.Rejected += r.Rejected
			rep.RateLimited += r.RateLimited
			rep.Quota += r.Quota
			rep.Shed += r.Shed
			rep.Conflict += r.Conflict
			rep.Invalid += r.Invalid
			rep.Errors += r.Errors
			rep.Batches += r.Batches
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	rep.SubmitP50 = rtts.quantile(0.50)
	rep.SubmitP99 = rtts.quantile(0.99)
	return rep
}

// runStormWorker pushes batches over one redialed connection.
func runStormWorker(ctx context.Context, cfg StormConfig, idx int, nextID *atomic.Int64, rtts *reservoir) StormReport {
	var rep StormReport
	rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)*7919))
	bo := faults.NewBackoff(50*time.Millisecond, 2*time.Second, cfg.Seed+int64(idx)+1)
	// Pace each worker to its share of the global job rate.
	var pace time.Duration
	if cfg.Rate > 0 {
		pace = time.Duration(float64(cfg.Batch) * float64(cfg.Workers) / cfg.Rate * float64(time.Second))
	}
	var conn *wire.Conn
	closeConn := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	defer closeConn()
	for ctx.Err() == nil {
		if conn == nil {
			c, err := wire.Dial(ctx, cfg.RMAddr)
			if err != nil {
				select {
				case <-ctx.Done():
				case <-time.After(bo.Next()):
				}
				continue
			}
			conn = c
			bo.Reset()
		}
		tenant := stormTenant(rng, cfg)
		batch := &wire.SubmitBatch{Tenant: tenant, Jobs: make([]*workload.Job, 0, cfg.Batch)}
		for i := 0; i < cfg.Batch; i++ {
			batch.Jobs = append(batch.Jobs, stormJob(int(nextID.Add(1)-1)))
		}
		rep.Attempts += len(batch.Jobs)
		t0 := time.Now()
		reply, err := conn.Call(&wire.Message{Type: wire.TypeSubmitBatch, SubmitBatch: batch})
		if err != nil {
			if ctx.Err() != nil {
				// The storm's own budget expired and the deadline armed at
				// dial time cut the exchange short: no transport failed, and
				// a batch the storm stopped waiting on is not an attempt.
				rep.Attempts -= len(batch.Jobs)
				break
			}
			// The RM may have been killed mid-batch (chaos runs do this on
			// purpose): the batch's fate is unknown until the journal
			// replays. Count it and redial.
			rep.Errors++
			closeConn()
			continue
		}
		rtts.observe(time.Since(t0).Seconds())
		rep.Batches++
		if reply.Type != wire.TypeSubmitBatchReply || reply.SubmitBatchReply == nil {
			cfg.Logger.Printf("hollow: storm %d: unexpected reply %q: %s", idx, reply.Type, reply.Error)
			rep.Errors++
			continue
		}
		for _, res := range reply.SubmitBatchReply.Results {
			if res.Reject == nil {
				rep.Admitted++
				continue
			}
			rep.Rejected++
			switch res.Reject.Code {
			case wire.RejectRateLimited:
				rep.RateLimited++
			case wire.RejectQuotaJobs:
				rep.Quota++
			case wire.RejectShed:
				rep.Shed++
			case wire.RejectConflict:
				rep.Conflict++
			case wire.RejectInvalid:
				rep.Invalid++
			}
		}
		if pace > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(pace):
			}
		}
	}
	return rep
}

// stormTenant draws a tenant name: usually from the small hot set,
// otherwise uniformly from the full universe.
func stormTenant(rng *rand.Rand, cfg StormConfig) string {
	if rng.Float64() < stormHotFraction {
		return fmt.Sprintf("t%d", rng.Intn(min(stormHotTenants, cfg.Tenants)))
	}
	return fmt.Sprintf("t%d", rng.Intn(cfg.Tenants))
}

// stormJob builds a minimal valid single-stage job.
func stormJob(id int) *workload.Job {
	st := &workload.Stage{Name: "s"}
	for i := 0; i < stormTasksPerJob; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
			Peak: resources.New(1, 1, 0, 0, 0, 0),
			Work: workload.Work{CPUSeconds: 5},
		})
	}
	return &workload.Job{ID: id, Name: "storm", Weight: 1, Stages: []*workload.Stage{st}}
}
