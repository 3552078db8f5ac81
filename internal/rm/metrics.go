package rm

// RM telemetry: every durable state transition and every latency the
// paper's Table 7 cares about is recorded into a telemetry.Registry.
// Counters/histograms are resolved once at construction so the hot
// paths touch only atomics; scrape-time gauges (node liveness, resync
// backlog, fault-log drops) are GaugeFuncs that lock s.mu from the
// scrape goroutine — the RM never touches the registry lock while
// holding s.mu, so the ordering is acyclic.
//
// Counters are per-incarnation (like JournalStats): journal replay
// re-applies historical transitions through the same apply* functions,
// so every counting site is guarded by s.replaying to keep a restarted
// RM from re-counting its past.

import (
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
)

type rmMetrics struct {
	placements    *telemetry.Counter
	completions   *telemetry.Counter
	jobsSubmitted *telemetry.Counter
	jobsFinished  *telemetry.Counter
	jobsFailed    *telemetry.Counter
	deadNodes     *telemetry.Counter
	reclaims      *telemetry.Counter
	rejoins       *telemetry.Counter
	orphansKilled *telemetry.Counter
	lostRequeued  *telemetry.Counter
	deltaBeats    *telemetry.Counter
	preemptions   *telemetry.Counter
	gangCommits   *telemetry.Counter
	gangReleases  *telemetry.Counter
	// rounds counts scheduling rounds by what triggered them (indexed by
	// roundCause; causeNone unused); beatsWithoutRound counts the NM
	// heartbeats that needed none.
	rounds            [numCauses]*telemetry.Counter
	beatsWithoutRound *telemetry.Counter
	// stageScans / stagePrunes split the Tetris core's stage visits into
	// windows walked task by task and visits one envelope comparison
	// skipped (scheduler.ScanStats).
	stageScans  *telemetry.Counter
	stagePrunes *telemetry.Counter

	scheduleRound *telemetry.Histogram
	nmHeartbeat   *telemetry.Histogram
	amHeartbeat   *telemetry.Histogram
	journalFsync  *telemetry.Histogram
	gangAdmitWait *telemetry.Histogram

	replaySeconds *telemetry.Gauge
	replayRecords *telemetry.Gauge

	// Previous cumulative scheduler-core counters, for per-round deltas.
	// Only touched at the Schedule call site under s.mu.
	prevScan scheduler.ScanStats
}

// newRMMetrics resolves one shard core's metric set in reg. A nil reg
// gets a private registry: recording still happens (hot paths stay
// branch-free) but nothing is exposed. Every series carries the shard
// label, so shard cores sharing one registry stay distinguishable.
func newRMMetrics(reg *telemetry.Registry, shard string) *rmMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	name := func(n string) string { return telemetry.Label(n, "shard", shard) }
	m := &rmMetrics{
		placements:    reg.Counter(name("tetris_rm_placements_total"), "Task placements decided by the scheduler."),
		completions:   reg.Counter(name("tetris_rm_completions_total"), "Task completions absorbed from node heartbeats."),
		jobsSubmitted: reg.Counter(name("tetris_rm_jobs_submitted_total"), "Jobs accepted from job managers."),
		jobsFinished:  reg.Counter(name("tetris_rm_jobs_finished_total"), "Jobs that completed every task."),
		jobsFailed:    reg.Counter(name("tetris_rm_jobs_failed_total"), "Jobs abandoned after a task exhausted its attempt cap."),
		deadNodes:     reg.Counter(name("tetris_rm_dead_nodes_total"), "Nodes declared dead by the failure detector."),
		reclaims:      reg.Counter(name("tetris_rm_tasks_reclaimed_total"), "Running tasks preempted back to pending by dead-node reclaim."),
		rejoins:       reg.Counter(name("tetris_rm_node_rejoins_total"), "Presumed-dead nodes that returned to service."),
		orphansKilled: reg.Counter(name("tetris_rm_resync_orphans_killed_total"), "Orphaned task attempts killed during resync reconciliation."),
		lostRequeued:  reg.Counter(name("tetris_rm_resync_lost_requeued_total"), "Lost launches released and re-queued during resync."),
		deltaBeats:    reg.Counter(name("tetris_rm_delta_heartbeats_total"), "NM heartbeats received as delta availability reports."),
		preemptions:   reg.Counter(name("tetris_rm_preemptions_total"), "Task attempts evicted for higher-priority gangs."),
		gangCommits:   reg.Counter(name("tetris_rm_gang_commits_total"), "Gang quorums admitted all-or-nothing."),
		gangReleases:  reg.Counter(name("tetris_rm_gang_releases_total"), "Gang hoards released by the hold timeout."),

		scheduleRound: reg.Histogram(name("tetris_rm_schedule_round_seconds"), "Wall time of one scheduling round (the Table 7 allocation cost)."),
		nmHeartbeat:   reg.Histogram(name("tetris_rm_nm_heartbeat_seconds"), "NM heartbeat processing time, scheduling included."),
		amHeartbeat:   reg.Histogram(name("tetris_rm_am_heartbeat_seconds"), "AM heartbeat processing time."),
		journalFsync:  reg.Histogram(name("tetris_rm_journal_fsync_seconds"), "Write-ahead journal fsync latency."),
		gangAdmitWait: reg.Histogram(name("tetris_rm_gang_admit_wait_seconds"), "Gang admission latency: first quorum want to atomic commit."),

		replaySeconds: reg.Gauge(name("tetris_rm_journal_replay_seconds"), "Wall time of the last journal recovery replay."),
		replayRecords: reg.Gauge(name("tetris_rm_journal_replay_records"), "Log records replayed by the last journal recovery."),

		beatsWithoutRound: reg.Counter(name("tetris_rm_beats_without_round_total"), "NM heartbeats processed without a scheduling round: nothing a round decides on had changed."),
	}
	const scansHelp = "Stage visits of the Tetris core's candidate collection: windows walked task by task (scanned) and visits skipped by one demand-envelope comparison (pruned)."
	m.stageScans = reg.Counter(telemetry.Label(name("tetris_rm_sched_stage_scans_total"), "result", "scanned"), scansHelp)
	m.stagePrunes = reg.Counter(telemetry.Label(name("tetris_rm_sched_stage_scans_total"), "result", "pruned"), scansHelp)
	for c := causeNone + 1; c < numCauses; c++ {
		m.rounds[c] = reg.Counter(telemetry.Label(name("tetris_rm_rounds_total"), "cause", causeNames[c]),
			"Scheduling rounds run, by trigger: a changed input (submit, completion, node, usage), a follow-up to a round that acted, or the heartbeat-interval floor.")
	}
	return m
}

// registerGauges installs the scrape-time views over live server state.
// Called from newCore before the core is reachable; fns run on the
// scrape goroutine and take s.mu.
func (s *Server) registerGauges(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	name := func(n string) string { return telemetry.Label(n, "shard", s.cfg.ShardLabel) }
	reg.GaugeFunc(name("tetris_rm_nodes_total"), "Registered node managers.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.countNodes(nil))
	})
	reg.GaugeFunc(name("tetris_rm_nodes_live"), "Registered nodes not presumed dead.", func() float64 {
		return float64(s.LiveNodes())
	})
	reg.GaugeFunc(name("tetris_rm_jobs_running"), "Submitted jobs not yet finished.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.active))
	})
	reg.GaugeFunc(name("tetris_rm_tasks_running"), "Task attempts currently charged to the ledger.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, ji := range s.active { // a finished job holds no launches
			n += len(ji.launched)
		}
		return float64(n)
	})
	reg.GaugeFunc(name("tetris_rm_resync_pending"), "Recovered machines still awaiting NM re-registration.", func() float64 {
		return float64(s.ResyncPending())
	})
	reg.GaugeFunc(name("tetris_rm_fault_log_dropped"), "Fault records evicted from the bounded fault ring.", func() float64 {
		return float64(s.faultLog.Dropped())
	})
}

// innerScheduler looks through wrappers that expose their inner
// scheduler (the gang coordinator).
func innerScheduler(sched scheduler.Scheduler) scheduler.Scheduler {
	if w, ok := sched.(interface{ Inner() scheduler.Scheduler }); ok {
		return w.Inner()
	}
	return sched
}

// observeScans adds the round's share of the Tetris core's cumulative
// scan counters to the stage-scan series. Caller holds s.mu (the
// counters are plain fields of the scheduler). No-op for schedulers
// without them.
func (m *rmMetrics) observeScans(sched scheduler.Scheduler) {
	p, ok := innerScheduler(sched).(interface{ ScanStats() scheduler.ScanStats })
	if !ok {
		return
	}
	st := p.ScanStats()
	m.stageScans.Add(st.StageScans - m.prevScan.StageScans)
	m.stagePrunes.Add(st.StagePrunes - m.prevScan.StagePrunes)
	m.prevScan = st
}
