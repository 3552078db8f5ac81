package hollow

import (
	"context"
	"io"
	"log"
	"sort"
	"sync"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// AMConfig parameterizes a hollow job-manager pool: many jobs driven by
// few goroutines, each multiplexing its jobs' submissions and progress
// polls over one RM connection.
type AMConfig struct {
	// RMAddr is the resource manager's address (required).
	RMAddr string
	// Jobs to run (required). Each job's Arrival (trace seconds) is
	// divided by TimeScale to a wall-clock submission offset.
	Jobs []*workload.Job
	// AMs is the pool size (default: one per 16 jobs, at least 1).
	AMs int
	// Poll is the per-job progress poll interval (default 500ms).
	Poll time.Duration
	// TimeScale divides trace arrival seconds into wall seconds, the
	// same role as NM time compression (default 50).
	TimeScale float64
	// Tenant names the submitting principal stamped on every submission
	// for the RM's admission gate. Empty means the anonymous tenant.
	Tenant string
	// Seed drives reconnect jitter (default 1).
	Seed int64
	// Logger for diagnostics; nil discards.
	Logger *log.Logger
}

// AMReport is the pool's outcome.
type AMReport struct {
	Submitted int
	Finished  int
	Failed    int // jobs the RM abandoned (attempt cap exhausted) or rejected outright
	Throttled int // transient admission rejections honored with a later retry
	Polls     uint64
}

// amJob is one job's lifecycle state inside a pool worker.
type amJob struct {
	job       *workload.Job
	submitAt  time.Duration
	retryAt   time.Duration // earliest resubmit after an admission throttle
	submitted bool
	done      bool
}

// RunAMs drives all jobs to completion (or ctx cancellation) and
// reports the outcome. Transport failures redial with backoff and
// resubmit outstanding jobs — the RM deduplicates identical
// definitions, so resubmission is always safe.
func RunAMs(ctx context.Context, cfg AMConfig) AMReport {
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 50
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.AMs <= 0 {
		cfg.AMs = (len(cfg.Jobs) + 15) / 16
		if cfg.AMs < 1 {
			cfg.AMs = 1
		}
	}
	if cfg.AMs > len(cfg.Jobs) {
		cfg.AMs = len(cfg.Jobs)
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if len(cfg.Jobs) == 0 {
		return AMReport{}
	}

	// Shard jobs round-robin by arrival order so every worker sees a
	// similar submission timeline.
	ordered := append([]*workload.Job(nil), cfg.Jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	workers := make([][]*amJob, cfg.AMs)
	for i, j := range ordered {
		w := i % cfg.AMs
		workers[w] = append(workers[w], &amJob{
			job:      j,
			submitAt: time.Duration(j.Arrival / cfg.TimeScale * float64(time.Second)),
		})
	}

	var (
		mu     sync.Mutex
		report AMReport
		wg     sync.WaitGroup
	)
	start := time.Now()
	for i, jobs := range workers {
		wg.Add(1)
		go func(idx int, jobs []*amJob) {
			defer wg.Done()
			r := runAMWorker(ctx, cfg, idx, start, jobs)
			mu.Lock()
			report.Submitted += r.Submitted
			report.Finished += r.Finished
			report.Failed += r.Failed
			report.Throttled += r.Throttled
			report.Polls += r.Polls
			mu.Unlock()
		}(i, jobs)
	}
	wg.Wait()
	return report
}

// runAMWorker drives one worker's job set over one (redialed) RM
// connection until every job finishes or ctx ends.
func runAMWorker(ctx context.Context, cfg AMConfig, idx int, start time.Time, jobs []*amJob) AMReport {
	var rep AMReport
	bo := faults.NewBackoff(100*time.Millisecond, 5*time.Second, cfg.Seed+int64(idx)+1)
	var conn *wire.Conn
	closeConn := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	defer closeConn()
	redial := func() bool {
		closeConn()
		for ctx.Err() == nil {
			c, err := wire.Dial(ctx, cfg.RMAddr)
			if err == nil {
				// Resubmission after a link loss: the RM may have restarted;
				// re-announce every outstanding job (dedup makes this safe).
				for _, aj := range jobs {
					if aj.submitted && !aj.done {
						aj.submitted = false
					}
				}
				conn = c
				bo.Reset()
				return true
			}
			select {
			case <-ctx.Done():
				return false
			case <-time.After(bo.Next()):
			}
		}
		return false
	}
	call := func(m *wire.Message) (*wire.Message, bool) {
		for ctx.Err() == nil {
			if conn == nil && !redial() {
				return nil, false
			}
			if reply, err := conn.Call(m); err == nil {
				return reply, true
			}
			if ctx.Err() != nil {
				return nil, false
			}
			closeConn()
		}
		return nil, false
	}

	ticker := time.NewTicker(cfg.Poll)
	defer ticker.Stop()
	for {
		now := time.Since(start)
		outstanding := 0
		for _, aj := range jobs {
			if aj.done {
				continue
			}
			outstanding++
			if !aj.submitted && now >= aj.submitAt && now >= aj.retryAt {
				reply, ok := call(&wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: aj.job, Tenant: cfg.Tenant}})
				if !ok {
					return rep
				}
				if reply.Type == wire.TypeError {
					cfg.Logger.Printf("hollow: am %d: job %d rejected: %s", idx, aj.job.ID, reply.Error)
					aj.done = true
					rep.Failed++
					continue
				}
				if rej := reply.SubmitReject; reply.Type == wire.TypeSubmitReject && rej != nil {
					if rej.RetryAfter <= 0 {
						cfg.Logger.Printf("hollow: am %d: job %d rejected (%s): %s", idx, aj.job.ID, rej.Code, rej.Reason)
						aj.done = true
						rep.Failed++
						continue
					}
					// Transient admission throttle: honor the RM's hint
					// and retry on a later pass.
					aj.retryAt = now + time.Duration(rej.RetryAfter*float64(time.Second))
					rep.Throttled++
					continue
				}
				aj.submitted = true
				rep.Submitted++
			}
			if !aj.submitted {
				continue
			}
			reply, ok := call(&wire.Message{Type: wire.TypeAMHeartbeat, AMHeartbeat: &wire.AMHeartbeat{JobID: aj.job.ID}})
			if !ok {
				return rep
			}
			rep.Polls++
			if reply.Type == wire.TypeError {
				// E.g. a restarted RM that lost the job; resubmit next pass.
				aj.submitted = false
				continue
			}
			if r := reply.AMReply; r != nil && r.Finished {
				aj.done = true
				if r.Failed {
					rep.Failed++
				} else {
					rep.Finished++
				}
			}
		}
		if outstanding == 0 {
			return rep
		}
		select {
		case <-ctx.Done():
			return rep
		case <-ticker.C:
		}
	}
}
