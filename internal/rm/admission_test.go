package rm

// Tests for the multi-tenant admission front door: quotas, rate limits,
// load shedding, typed rejections, batch ingest, connection deadlines,
// hierarchical fairness weights, and accounting recovery through the
// journal.

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

func newAdmissionServer(t *testing.T, adm AdmissionConfig) *Sharded {
	t.Helper()
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		NewEstimator: estimator.New,
		Admission:    &adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// rejectCode submits and returns the typed rejection code ("" = admitted).
func rejectCode(s *Sharded, tenant string, id, tasks int) (string, float64) {
	reply := s.handleSubmitJob(&wire.SubmitJob{Job: simpleJob(id, tasks), Tenant: tenant})
	if reply.Type == wire.TypeSubmitReject {
		return reply.SubmitReject.Code, reply.SubmitReject.RetryAfter
	}
	return "", 0
}

func TestAdmissionQuotaJobs(t *testing.T) {
	s := newAdmissionServer(t, AdmissionConfig{Defaults: TenantLimits{MaxQueuedJobs: 2}})
	s.RegisterMachine(0, resources.New(16, 32, 200, 200, 1000, 1000))

	if code, _ := rejectCode(s, "a", 0, 1); code != "" {
		t.Fatalf("first job rejected: %s", code)
	}
	if code, _ := rejectCode(s, "a", 1, 1); code != "" {
		t.Fatalf("second job rejected: %s", code)
	}
	code, retry := rejectCode(s, "a", 2, 1)
	if code != wire.RejectQuotaJobs {
		t.Fatalf("third job code = %q, want %q", code, wire.RejectQuotaJobs)
	}
	if retry <= 0 {
		t.Error("quota rejection carries no retry hint")
	}
	// Quotas are per tenant: another tenant is unaffected.
	if code, _ := rejectCode(s, "b", 3, 1); code != "" {
		t.Fatalf("tenant b rejected: %s", code)
	}
	if got := s.adm.queuedJobs("a"); got != 2 {
		t.Fatalf("tenant a queued = %d, want 2", got)
	}

	// Finish one of a's jobs: the quota slot frees and a new submission
	// is admitted.
	reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0})
	var done []wire.TaskCompletion
	for _, l := range reply.NMReply.Launch {
		if l.Task.Job == 0 {
			done = append(done, wire.TaskCompletion{Task: l.Task, Usage: l.Demand, Duration: l.Duration})
		}
	}
	if len(done) == 0 {
		t.Fatal("job 0 task not launched")
	}
	s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: done})
	if got := s.adm.queuedJobs("a"); got != 1 {
		t.Fatalf("tenant a queued after finish = %d, want 1", got)
	}
	if code, _ := rejectCode(s, "a", 4, 1); code != "" {
		t.Fatalf("post-release submission rejected: %s", code)
	}
}

func TestAdmissionRateLimit(t *testing.T) {
	s := newAdmissionServer(t, AdmissionConfig{
		Defaults: TenantLimits{SubmitRate: 0.001},
	})
	if code, _ := rejectCode(s, "a", 0, 1); code != "" {
		t.Fatalf("first job rejected: %s", code)
	}
	code, retry := rejectCode(s, "a", 1, 1)
	if code != wire.RejectRateLimited {
		t.Fatalf("second job code = %q, want %q", code, wire.RejectRateLimited)
	}
	if retry <= 0 {
		t.Error("rate-limit rejection carries no retry hint")
	}
	// The limit is per tenant.
	if code, _ := rejectCode(s, "b", 2, 1); code != "" {
		t.Fatalf("tenant b rejected: %s", code)
	}
}

func TestAdmissionShedByPriority(t *testing.T) {
	s := newAdmissionServer(t, AdmissionConfig{
		ShedHighWater: 2,
		ShedLimit:     10,
		Tenants: map[string]TenantLimits{
			"low":  {Priority: 0},
			"high": {Priority: 9},
		},
	})
	// Fill the backlog past the high-water mark with a high-priority
	// tenant (the first submissions see a backlog at or below it).
	for id := 0; id < 3; id++ {
		if code, _ := rejectCode(s, "high", id, 1); code != "" {
			t.Fatalf("filler job %d rejected: %s", id, code)
		}
	}
	code, retry := rejectCode(s, "low", 10, 1)
	if code != wire.RejectShed {
		t.Fatalf("low-priority code = %q, want %q", code, wire.RejectShed)
	}
	if retry <= 0 {
		t.Error("shed rejection carries no retry hint")
	}
	// High priority still clears the floor.
	if code, _ := rejectCode(s, "high", 11, 1); code != "" {
		t.Fatalf("high-priority shed: %s", code)
	}
	// Heartbeat traffic is never shed: an AM poll for an admitted job
	// answers normally under overload.
	if reply := s.HandleAMHeartbeat(&wire.AMHeartbeat{JobID: 0}); reply.AMReply == nil {
		t.Fatalf("AM heartbeat degraded under shedding: %+v", reply)
	}
}

// TestAdmissionRefusesPriorityOutOfRange: shedding tops out at priority
// 9, so a priority above it would be admitted past ShedLimit, which sheds
// everyone. Both constructors refuse such a config, and a negative
// priority, whether in Defaults or in a tenant's entry; 0 and 9 are
// accepted.
func TestAdmissionRefusesPriorityOutOfRange(t *testing.T) {
	cfg := func(adm AdmissionConfig) ShardedConfig {
		return ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler, Admission: &adm}
	}
	for name, adm := range map[string]AdmissionConfig{
		"default 10":   {Defaults: TenantLimits{Priority: 10}},
		"default -1":   {Defaults: TenantLimits{Priority: -1}},
		"tenant 10":    {ShedHighWater: 2, Tenants: map[string]TenantLimits{"ok": {Priority: 9}, "vip": {Priority: 10}}},
		"tenant -1":    {Tenants: map[string]TenantLimits{"neg": {Priority: -1}}},
		"tenant 1<<40": {Tenants: map[string]TenantLimits{"huge": {Priority: 1 << 40}}},
	} {
		if s, err := NewShardedInProcess(cfg(adm)); err == nil {
			s.Close()
			t.Errorf("%s: NewShardedInProcess accepted the config", name)
		} else if !strings.Contains(err.Error(), "priority") {
			t.Errorf("%s: error %q does not name the priority", name, err)
		}
		if s, err := NewSharded("127.0.0.1:0", cfg(adm)); err == nil {
			s.Close()
			t.Errorf("%s: NewSharded accepted the config", name)
		}
	}
	s, err := NewShardedInProcess(cfg(AdmissionConfig{Tenants: map[string]TenantLimits{"low": {Priority: 0}, "high": {Priority: 9}}}))
	if err != nil {
		t.Fatalf("priorities 0 and 9 refused: %v", err)
	}
	s.Close()
}

func TestAdmissionBatchMixed(t *testing.T) {
	s := newAdmissionServer(t, AdmissionConfig{Defaults: TenantLimits{MaxQueuedJobs: 100}})
	good := simpleJob(0, 1)
	bad := simpleJob(1, 1)
	bad.Stages[0].Deps = []int{0} // self-dependency: invalid
	dup := simpleJob(0, 1)        // identical definition: idempotent accept
	conflict := simpleJob(0, 2)   // same ID, different definition

	results, err := s.SubmitBatch("t", []*workload.Job{good, bad, dup, conflict})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Reject != nil {
		t.Errorf("good job rejected: %+v", results[0].Reject)
	}
	if results[1].Reject == nil || results[1].Reject.Code != wire.RejectInvalid {
		t.Errorf("invalid job verdict = %+v", results[1].Reject)
	}
	if results[2].Reject != nil {
		t.Errorf("idempotent resubmission rejected: %+v", results[2].Reject)
	}
	if results[3].Reject == nil || results[3].Reject.Code != wire.RejectConflict {
		t.Errorf("conflicting job verdict = %+v", results[3].Reject)
	}
	// The duplicate must not double-charge the tenant.
	if got := s.adm.queuedJobs("t"); got != 1 {
		t.Errorf("tenant queued = %d, want 1", got)
	}
}

func TestAdmissionConnDeadline(t *testing.T) {
	s, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       1,
		NewScheduler: tetrisScheduler,
		ConnTimeout:  150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A stalled client that never sends a frame must be dropped when the
	// read deadline expires, not hold the handler goroutine forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read succeeded on a conn the RM should have closed")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled conn lived %v, want drop near the 150ms deadline", elapsed)
	}
}

func TestAdmissionTenantWeights(t *testing.T) {
	g := newAdmissionServer(t, AdmissionConfig{})
	if err := g.SubmitJobAs("gold", simpleJob(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.SubmitJobAs("gold", simpleJob(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.SubmitJobAs("bronze", simpleJob(2, 1)); err != nil {
		t.Fatal(err)
	}

	s := g.Shard(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.active) != 3 {
		t.Fatalf("%d active jobs, want 3", len(s.active))
	}
	s.applyTenantWeights()
	// Active tenants split the cluster equally: gold's share splits
	// across its two unit-weight jobs, bronze's goes to its single job.
	if w := s.jobs[0].state.Job.Weight; w != 0.5 {
		t.Errorf("gold job 0 weight = %v, want 0.5", w)
	}
	if w := s.jobs[1].state.Job.Weight; w != 0.5 {
		t.Errorf("gold job 1 weight = %v, want 0.5", w)
	}
	if w := s.jobs[2].state.Job.Weight; w != 1 {
		t.Errorf("bronze job weight = %v, want 1", w)
	}
	s.restoreWeights()
	for id := 0; id < 3; id++ {
		if w := s.jobs[id].state.Job.Weight; w != 1 {
			t.Errorf("job %d weight not restored: %v", id, w)
		}
	}
	// A round's tenant weighting reuses the server's scratch.
	if a := testing.AllocsPerRun(100, func() { s.applyTenantWeights(); s.restoreWeights() }); a != 0 {
		t.Errorf("tenant weighting: %v allocs per round, want 0", a)
	}
}

func TestAdmissionReplayRebuildsAccounting(t *testing.T) {
	dir := t.TempDir()
	adm := AdmissionConfig{Defaults: TenantLimits{MaxQueuedJobs: 2}}
	mk := func() *Sharded {
		s, err := NewSharded("127.0.0.1:0", ShardedConfig{
			Shards:       1,
			NewScheduler: tetrisScheduler,
			NewEstimator: estimator.New,
			Admission:    &adm,
			JournalDir:   dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mk()
	if err := s.SubmitJobAs("a", simpleJob(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitJobAs("a", simpleJob(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitJobAs("b", simpleJob(2, 1)); err != nil {
		t.Fatal(err)
	}
	// Rejected: at tenant a's quota. Nothing about it may be journaled.
	if err := s.SubmitJobAs("a", simpleJob(3, 1)); err == nil || !strings.Contains(err.Error(), wire.RejectQuotaJobs) {
		t.Fatalf("over-quota submit error = %v", err)
	}
	want := s.Shard(0).StateDigest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mk()
	defer s2.Close()
	if got := s2.Shard(0).RecoveredDigest(); string(got) != string(want) {
		t.Fatalf("replayed state diverges\n pre-crash: %s\n recovered: %s", want, got)
	}
	// Accounting is derived state: replay rebuilds it, so the quota
	// still holds and the rejected job never resurrected.
	if got := s2.adm.queuedJobs("a"); got != 2 {
		t.Errorf("tenant a queued after replay = %d, want 2", got)
	}
	if got := s2.adm.queuedJobs("b"); got != 1 {
		t.Errorf("tenant b queued after replay = %d, want 1", got)
	}
	if got := s2.adm.backlog(); got != 3 {
		t.Errorf("backlog after replay = %d, want 3", got)
	}
	core := s2.Shard(0)
	core.mu.Lock()
	if core.jobs[3] != nil {
		t.Error("rejected job resurrected through replay")
	}
	if ji := core.jobs[0]; ji == nil || ji.tenant != "a" {
		t.Errorf("job 0 tenant not recovered: %+v", ji)
	}
	core.mu.Unlock()
	if err := s2.SubmitJobAs("a", simpleJob(4, 1)); err == nil {
		t.Error("quota not enforced after replay")
	}
}

func TestShardedAdmissionGate(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { shardedAdmissionGate(t, shards) })
	}
}

func shardedAdmissionGate(t *testing.T, shards int) {
	dir := t.TempDir()
	adm := AdmissionConfig{Defaults: TenantLimits{MaxQueuedJobs: 2}}
	mk := func() *Sharded {
		g, err := NewShardedInProcess(ShardedConfig{
			Shards:       shards,
			NewScheduler: tetrisScheduler,
			JournalDir:   dir,
			Admission:    &adm,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := mk()
	if err := g.SubmitJobAs("a", simpleJob(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.SubmitJobAs("a", simpleJob(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.SubmitJobAs("a", simpleJob(2, 1)); err == nil || !strings.Contains(err.Error(), wire.RejectQuotaJobs) {
		t.Fatalf("over-quota submit error = %v", err)
	}
	// Idempotent resubmission of a known job bypasses the gate and must
	// not double-charge the reservation.
	if err := g.SubmitJobAs("a", simpleJob(0, 1)); err != nil {
		t.Fatalf("idempotent resubmission rejected: %v", err)
	}
	if got := g.adm.queuedJobs("a"); got != 2 {
		t.Fatalf("tenant a queued = %d, want 2", got)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// Shard journals replay into the shared admission instance: the
	// tenant's accounting — split across shards — reassembles.
	g2 := mk()
	defer g2.Close()
	if got := g2.adm.queuedJobs("a"); got != 2 {
		t.Errorf("tenant a queued after recovery = %d, want 2", got)
	}
	if err := g2.SubmitJobAs("a", simpleJob(3, 1)); err == nil {
		t.Error("quota not enforced after recovery")
	}
}
