// Package am implements the job manager (application master) of the
// distributed prototype (§4.4): it submits its job's DAG — with declared
// multi-resource task demands — to the resource manager and polls until
// the job completes.
package am

import (
	"context"
	"fmt"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Config parameterizes a job manager.
type Config struct {
	RMAddr string
	Job    *workload.Job
	// Tenant names the submitting principal for the RM's admission gate
	// and quota accounting. Empty means the anonymous default tenant.
	Tenant string
	// Poll interval (default 50 ms).
	Poll time.Duration
	// MaxReconnects bounds consecutive failed reconnect attempts after
	// the RM link drops mid-poll (exponential backoff with jitter between
	// tries), and consecutive transient admission rejections of the
	// initial submission. 0 means the default of 10; negative disables
	// both. The initial dial and transport failures during submission are
	// never retried: a job that cannot even reach the RM should fail
	// fast.
	MaxReconnects int
	// Metrics receives the job manager's telemetry (poll RTTs, reconnect
	// attempts, job outcomes); AMs sharing one registry aggregate. Nil
	// records into a private registry, exposing nothing.
	Metrics *telemetry.Registry
}

// amMetrics is the job manager's metric set.
type amMetrics struct {
	pollRTT    *telemetry.Histogram
	reconnects *telemetry.Counter
	submitted  *telemetry.Counter
	throttled  *telemetry.Counter
	finished   *telemetry.Counter
	failed     *telemetry.Counter
}

func newAMMetrics(reg *telemetry.Registry) *amMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &amMetrics{
		pollRTT:    reg.Histogram("tetris_am_poll_rtt_seconds", "AM progress-poll round-trip time to the RM."),
		reconnects: reg.Counter("tetris_am_reconnects_total", "Reconnect attempts after a lost RM link."),
		submitted:  reg.Counter("tetris_am_jobs_submitted_total", "Jobs submitted (first acceptance only, not resubmissions)."),
		throttled:  reg.Counter("tetris_am_submit_throttled_total", "Transient admission rejections honored with backoff before resubmitting."),
		finished:   reg.Counter("tetris_am_jobs_finished_total", "Jobs observed finishing successfully."),
		failed:     reg.Counter("tetris_am_jobs_failed_total", "Jobs observed failing (attempt cap exhausted)."),
	}
}

// Result is the outcome of one job run.
type Result struct {
	// JCT is the job completion time in RM-clock seconds (from job
	// submission... the RM clock starts when the RM starts; callers
	// interested in relative durations should difference submissions).
	FinishedAt float64
	// Wall is the real time from submission to completion.
	Wall time.Duration
}

// Run submits the job and blocks until it finishes or ctx is canceled.
// A transport failure mid-poll (RM restart, network partition) is
// retried: the AM re-dials with exponential backoff plus jitter and
// resubmits the job — an RM that kept its state answers "already
// submitted" and polling resumes; a restarted RM accepts the job anew.
// Definitive RM rejections (protocol errors) are never retried.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Job == nil {
		return nil, fmt.Errorf("am: job is required")
	}
	if cfg.Poll == 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	maxRetry := cfg.MaxReconnects
	if maxRetry == 0 {
		maxRetry = 10
	}
	met := newAMMetrics(cfg.Metrics)
	// The initial dial fails fast: a job that cannot even reach the RM
	// should surface immediately. Transient admission rejections
	// (rate-limit, quota, overload shed) are honored with jittered
	// backoff and resubmitted; permanent rejections fail at once.
	conn, err := wire.Dial(ctx, cfg.RMAddr)
	if err != nil {
		return nil, fmt.Errorf("am: dial: %w", err)
	}
	defer func() { conn.Close() }()

	start := time.Now()
	bo := faults.NewBackoff(100*time.Millisecond, 5*time.Second, int64(cfg.Job.ID)+1)
	for {
		reply, err := conn.Call(submitMsg(cfg))
		if err != nil {
			return nil, fmt.Errorf("am: submit: %w", err)
		}
		if reply.Type == wire.TypeError {
			return nil, fmt.Errorf("am: rm rejected job: %s", reply.Error)
		}
		rej := reply.SubmitReject
		if reply.Type != wire.TypeSubmitReject || rej == nil {
			break // accepted
		}
		if rej.RetryAfter <= 0 {
			return nil, fmt.Errorf("am: rm rejected job (%s): %s", rej.Code, rej.Reason)
		}
		if maxRetry < 0 || bo.Attempts() >= maxRetry {
			return nil, fmt.Errorf("am: rm still rejecting after %d submit attempts (%s): %s", bo.Attempts(), rej.Code, rej.Reason)
		}
		met.throttled.Inc()
		d := bo.NextAtLeast(time.Duration(rej.RetryAfter * float64(time.Second)))
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
		}
	}
	met.submitted.Inc()
	bo.Reset()

	ticker := time.NewTicker(cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
		pollT0 := time.Now()
		reply, err := conn.Call(&wire.Message{Type: wire.TypeAMHeartbeat, AMHeartbeat: &wire.AMHeartbeat{JobID: cfg.Job.ID}})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if maxRetry < 0 {
				return nil, fmt.Errorf("am: poll: %w", err)
			}
			conn.Close()
			next, rerr := reconnect(ctx, cfg, bo, maxRetry, met, err)
			if rerr != nil {
				return nil, rerr
			}
			conn = next
			bo.Reset()
			continue
		}
		met.pollRTT.Observe(time.Since(pollT0).Seconds())
		if reply.Type == wire.TypeError {
			return nil, fmt.Errorf("am: rm error: %s", reply.Error)
		}
		if r := reply.AMReply; r != nil && r.Finished {
			if r.Failed {
				met.failed.Inc()
				return nil, fmt.Errorf("am: job %d failed: a task exhausted its attempt cap under node failures", cfg.Job.ID)
			}
			met.finished.Inc()
			return &Result{FinishedAt: r.FinishedAt, Wall: time.Since(start)}, nil
		}
	}
}

// reconnect re-establishes the RM link after a mid-poll transport
// failure and resubmits the job so a restarted RM relearns it — the RM
// deduplicates identical definitions, so resubmission is always safe. A
// journal-recovered RM already knows the job and simply reports its
// progress. Returns the new connection, or an error once the retry
// budget is spent, the context ends, or the RM definitively rejects the
// resubmission.
func reconnect(ctx context.Context, cfg Config, bo *faults.Backoff, maxRetry int, met *amMetrics, cause error) (*wire.Conn, error) {
	lastErr := cause
	var hint time.Duration // the last rejection's RetryAfter
	for {
		if bo.Attempts() >= maxRetry {
			return nil, fmt.Errorf("am: rm unreachable after %d reconnect attempts: %w", bo.Attempts(), lastErr)
		}
		met.reconnects.Inc()
		d := bo.NextAtLeast(hint)
		hint = 0
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
		}
		c, err := wire.Dial(ctx, cfg.RMAddr)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		reply, err := c.Call(submitMsg(cfg))
		if err != nil {
			c.Close()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		if reply.Type == wire.TypeError {
			c.Close()
			return nil, fmt.Errorf("am: rm rejected resubmission: %s", reply.Error)
		}
		if rej := reply.SubmitReject; reply.Type == wire.TypeSubmitReject && rej != nil {
			c.Close()
			if rej.RetryAfter <= 0 {
				return nil, fmt.Errorf("am: rm rejected resubmission (%s): %s", rej.Code, rej.Reason)
			}
			met.throttled.Inc()
			lastErr = fmt.Errorf("am: admission %s: %s", rej.Code, rej.Reason)
			hint = time.Duration(rej.RetryAfter * float64(time.Second))
			continue
		}
		return c, nil
	}
}

// submitMsg builds the job submission frame, stamped with the
// configured tenant.
func submitMsg(cfg Config) *wire.Message {
	return &wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: cfg.Job, Tenant: cfg.Tenant}}
}
