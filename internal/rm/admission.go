package rm

// Admission front door: the multi-tenant gate in front of the scheduler.
// Every job submission names a tenant (empty = the anonymous default
// tenant) and must pass, in order: the global load-shedding floor, the
// tenant's token-bucket submit rate limit, and the tenant's queued-job
// quota before anything is journaled.
// Rejections are typed wire.SubmitReject frames carrying a retry hint —
// nothing about a rejected job ever reaches the journal, so rejected
// jobs cannot resurrect through replay.
//
// Tenant accounting (queued jobs) is derived state:
// the durable record is the Tenant field on submit events and job
// snapshots, and recovery re-adopts every unfinished job through the
// same accounting calls the live path uses (see applySubmit and
// restoreState), so quotas hold across crash-restarts. Token-bucket
// levels are transient by design, like reported usage: a restarted RM
// refills its buckets.
//
// Load shedding degrades gracefully by tenant priority: as the admitted
// backlog climbs from ShedHighWater toward ShedLimit, a rising priority
// floor sheds lowest-priority tenants first; at ShedLimit everything is
// shed. Only submissions are ever shed — heartbeat traffic (NM and AM)
// never passes through the admission gate at all.

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/tokenbucket"
	"github.com/tetris-sched/tetris/internal/wire"
)

// TenantLimits is one tenant's admission envelope. The zero value of
// each field means "unlimited" for that dimension.
type TenantLimits struct {
	// MaxQueuedJobs caps the tenant's admitted-but-unfinished jobs.
	MaxQueuedJobs int
	// SubmitRate is the tenant's submit token-bucket refill in
	// submissions/second, its capacity max(1, SubmitRate); 0 disables
	// rate limiting for the tenant.
	SubmitRate float64
	// Priority orders load shedding: lower priorities are shed first.
	// Must be in [0, 9]; the RM constructors refuse any other.
	Priority int
}

// AdmissionConfig enables and parameterizes the admission front door.
type AdmissionConfig struct {
	// Defaults applies to every tenant without an explicit entry.
	Defaults TenantLimits
	// Tenants overrides limits per tenant name.
	Tenants map[string]TenantLimits
	// ShedHighWater is the admitted-backlog (unfinished jobs) level where
	// load shedding starts; 0 disables shedding.
	ShedHighWater int
	// ShedLimit is the backlog where every submission is shed regardless
	// of priority (default 2×ShedHighWater).
	ShedLimit int
	// RetryAfter is the base backoff hint stamped on transient rejections
	// (default 1s). Shed rejections scale it with saturation.
	RetryAfter time.Duration
}

const (
	// maxPriority is the top of the priority scale.
	maxPriority = 9
	// tenantSeriesLimit caps per-tenant labeled metric series; tenants
	// beyond the cap aggregate into tenant="other". The cap keeps a
	// million-tenant fleet from exploding registry cardinality.
	tenantSeriesLimit = 32
)

// validate refuses a tenant priority outside [0, maxPriority]: shedFloor
// tops out at maxPriority+1, so a higher priority would escape ShedLimit.
func (c *AdmissionConfig) validate() error {
	for name, lim := range c.Tenants {
		if lim.Priority < 0 || lim.Priority > maxPriority {
			return fmt.Errorf("rm: admission: tenant %q priority %d outside [0, %d]", name, lim.Priority, maxPriority)
		}
	}
	if p := c.Defaults.Priority; p < 0 || p > maxPriority {
		return fmt.Errorf("rm: admission: default priority %d outside [0, %d]", p, maxPriority)
	}
	return nil
}

const admissionStripes = 64

type admissionStripe struct {
	mu      sync.Mutex
	tenants map[string]*tenantState
}

// tenantState is one tenant's live accounting. Its mutex orders after
// s.mu (admission runs inside submit handling) and is never held while
// taking any other lock.
type tenantState struct {
	mu     sync.Mutex
	limits TenantLimits
	bucket *tokenbucket.Bucket // nil when the tenant is not rate limited
	queued int                 // admitted, unfinished jobs

	// Per-tenant labeled series (dedicated under tenantSeriesLimit,
	// shared tenant="other" series beyond it).
	admitted *telemetry.Counter
	rejected *telemetry.Counter
	shed     *telemetry.Counter
	depth    *telemetry.Gauge
}

// admission is the front door's shared state: one instance is shared by
// the top layer and every shard core (the top layer gates, the cores
// account).
type admission struct {
	cfg AdmissionConfig

	stripes [admissionStripes]admissionStripe

	backlogN   atomic.Int64 // admitted, unfinished jobs across all tenants
	tenantsN   atomic.Int64 // tenant states materialized so far
	seriesLeft atomic.Int64 // dedicated per-tenant series still available

	admitted    *telemetry.Counter
	rejected    *telemetry.Counter
	shedTotal   *telemetry.Counter
	batches     *telemetry.Counter
	batchJobs   *telemetry.Counter
	rejectCodes map[string]*telemetry.Counter

	otherAdmitted *telemetry.Counter
	otherRejected *telemetry.Counter
	otherShed     *telemetry.Counter
	otherDepth    *telemetry.Gauge
	reg           *telemetry.Registry
}

// newAdmission builds the front door and registers its telemetry. A nil
// registry records into a private one (hot paths stay branch-free).
func newAdmission(cfg AdmissionConfig, reg *telemetry.Registry) *admission {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if cfg.ShedHighWater > 0 && cfg.ShedLimit <= cfg.ShedHighWater {
		cfg.ShedLimit = 2 * cfg.ShedHighWater
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	a := &admission{cfg: cfg, reg: reg}
	for i := range a.stripes {
		a.stripes[i].tenants = make(map[string]*tenantState)
	}
	a.seriesLeft.Store(tenantSeriesLimit)
	a.admitted = reg.Counter("tetris_rm_admission_admitted_total", "Job submissions admitted by the front door.")
	a.rejected = reg.Counter("tetris_rm_admission_rejected_total", "Job submissions rejected by the front door (all causes).")
	a.shedTotal = reg.Counter("tetris_rm_admission_shed_total", "Job submissions shed under overload (also counted in rejected).")
	a.batches = reg.Counter("tetris_rm_admission_batches_total", "Bulk-ingest submit batches processed.")
	a.batchJobs = reg.Counter("tetris_rm_admission_batch_jobs_total", "Jobs carried by bulk-ingest submit batches.")
	a.rejectCodes = make(map[string]*telemetry.Counter)
	for _, code := range []string{
		wire.RejectRateLimited, wire.RejectQuotaJobs, wire.RejectShed,
	} {
		a.rejectCodes[code] = reg.Counter(
			telemetry.Label("tetris_rm_admission_rejects_total", "code", code),
			"Front-door rejections by cause.")
	}
	a.otherAdmitted = reg.Counter(telemetry.Label("tetris_rm_tenant_admitted_total", "tenant", "other"),
		"Admitted submissions per tenant (tenants beyond the series cap aggregate here).")
	a.otherRejected = reg.Counter(telemetry.Label("tetris_rm_tenant_rejected_total", "tenant", "other"),
		"Rejected submissions per tenant.")
	a.otherShed = reg.Counter(telemetry.Label("tetris_rm_tenant_shed_total", "tenant", "other"),
		"Shed submissions per tenant.")
	a.otherDepth = reg.Gauge(telemetry.Label("tetris_rm_tenant_queued_jobs", "tenant", "other"),
		"Admitted unfinished jobs per tenant.")
	reg.GaugeFunc("tetris_rm_admission_backlog_jobs", "Admitted, unfinished jobs across all tenants.",
		func() float64 { return float64(a.backlogN.Load()) })
	reg.GaugeFunc("tetris_rm_admission_tenants_active", "Tenant states materialized by the front door.",
		func() float64 { return float64(a.tenantsN.Load()) })
	return a
}

// tenant materializes (or finds) one tenant's state. Lazy creation keeps
// a ~1M-tenant ID space cheap: only tenants that actually submit cost
// memory.
func (a *admission) tenant(name string) *tenantState {
	h := fnv.New32a()
	h.Write([]byte(name))
	st := &a.stripes[h.Sum32()%admissionStripes]
	st.mu.Lock()
	defer st.mu.Unlock()
	if t, ok := st.tenants[name]; ok {
		return t
	}
	lim, ok := a.cfg.Tenants[name]
	if !ok {
		lim = a.cfg.Defaults
	}
	t := &tenantState{limits: lim}
	if lim.SubmitRate > 0 {
		t.bucket = tokenbucket.New(lim.SubmitRate, max(1, lim.SubmitRate))
	}
	if a.seriesLeft.Add(-1) >= 0 {
		label := name
		if label == "" {
			label = "default"
		}
		t.admitted = a.reg.Counter(telemetry.Label("tetris_rm_tenant_admitted_total", "tenant", label),
			"Admitted submissions per tenant.")
		t.rejected = a.reg.Counter(telemetry.Label("tetris_rm_tenant_rejected_total", "tenant", label),
			"Rejected submissions per tenant.")
		t.shed = a.reg.Counter(telemetry.Label("tetris_rm_tenant_shed_total", "tenant", label),
			"Shed submissions per tenant.")
		t.depth = a.reg.Gauge(telemetry.Label("tetris_rm_tenant_queued_jobs", "tenant", label),
			"Admitted unfinished jobs per tenant.")
	} else {
		t.admitted, t.rejected, t.shed, t.depth = a.otherAdmitted, a.otherRejected, a.otherShed, a.otherDepth
	}
	st.tenants[name] = t
	a.tenantsN.Add(1)
	return t
}

// shedFloor maps the current backlog to a priority floor: -1 when not
// shedding, otherwise tenants with Priority < floor are shed. The floor
// rises linearly from 1 just above ShedHighWater to maxPriority+1 (shed
// everyone) at ShedLimit. frac is the saturation in (0,1], scaling the
// retry hint.
func (a *admission) shedFloor() (floor int, frac float64) {
	high := a.cfg.ShedHighWater
	if high <= 0 {
		return -1, 0
	}
	b := int(a.backlogN.Load())
	if b <= high {
		return -1, 0
	}
	frac = float64(b-high) / float64(a.cfg.ShedLimit-high)
	if frac > 1 {
		frac = 1
	}
	floor = 1 + int(frac*maxPriority)
	return floor, frac
}

// admit runs the gate for one submission and, on success, reserves the
// tenant's queued-job slot. A release must eventually follow a nil
// return: when the admitted job finishes, or when the caller discovers
// downstream that the job already existed (idempotent-resubmission race;
// the admitted counters keep their blip). A non-nil return is a typed
// rejection and changed no accounting.
func (a *admission) admit(tenant string) *wire.SubmitReject {
	t := a.tenant(tenant)
	reject := func(code, reason string, retry float64) *wire.SubmitReject {
		a.rejected.Inc()
		t.rejected.Inc()
		if c := a.rejectCodes[code]; c != nil {
			c.Inc()
		}
		if code == wire.RejectShed {
			a.shedTotal.Inc()
			t.shed.Inc()
		}
		return &wire.SubmitReject{Code: code, Reason: reason, RetryAfter: retry}
	}
	if floor, frac := a.shedFloor(); floor >= 0 && t.limits.Priority < floor {
		return reject(wire.RejectShed,
			fmt.Sprintf("resource manager overloaded: priority %d below shed floor %d", t.limits.Priority, floor),
			a.cfg.RetryAfter.Seconds()*(1+frac))
	}
	t.mu.Lock()
	if t.bucket != nil && !t.bucket.TryTake(1) {
		hint := t.bucket.WaitHint(1)
		t.mu.Unlock()
		return reject(wire.RejectRateLimited,
			fmt.Sprintf("tenant %q over submit rate %.3g/s", tenant, t.limits.SubmitRate),
			hint.Seconds())
	}
	if q := t.limits.MaxQueuedJobs; q > 0 && t.queued >= q {
		t.mu.Unlock()
		return reject(wire.RejectQuotaJobs,
			fmt.Sprintf("tenant %q at queued-job quota %d", tenant, q),
			a.cfg.RetryAfter.Seconds())
	}
	t.queued++
	t.mu.Unlock()
	a.backlogN.Add(1)
	a.admitted.Inc()
	t.admitted.Inc()
	t.depth.Add(1)
	return nil
}

// adopt applies the accounting of an already-durable admitted job
// without gate checks: journal replay and snapshot restore rebuild
// tenant ownership through it. No counters move (counters are
// per-incarnation, like the rest of the RM's).
func (a *admission) adopt(tenant string) {
	t := a.tenant(tenant)
	t.mu.Lock()
	t.queued++
	t.mu.Unlock()
	a.backlogN.Add(1)
	t.depth.Add(1)
}

// release returns an admitted job's accounting when it finishes (or the
// job is abandoned).
func (a *admission) release(tenant string) {
	t := a.tenant(tenant)
	t.mu.Lock()
	if t.queued > 0 {
		t.queued--
	}
	t.mu.Unlock()
	a.backlogN.Add(-1)
	t.depth.Add(-1)
}

// queued reports a tenant's admitted-unfinished count (tests, gauges).
func (a *admission) queuedJobs(tenant string) int {
	t := a.tenant(tenant)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queued
}

// backlog reports the global admitted-unfinished job count.
func (a *admission) backlog() int64 { return a.backlogN.Load() }
