package scheduler

import (
	"slices"
	"sync/atomic"

	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Decision tracing answers "why was/wasn't this task placed" at the
// granularity the paper reasons at: per scheduling round, per considered
// (task, machine) pair — the feasibility verdict, the fairness-knob
// cutoff the task's job fell on, the alignment and ε-combined score, and
// the chosen machine. Traces are sampled (every Nth round) and bounded
// (a telemetry.Ring of rounds, a per-round decision cap), so they are
// safe to leave on in production the way the fault log is.
//
// The Tetris core emits the traces; its oracle, behind the test boundary,
// is kept free of instrumentation. When tracing is configured but the
// round is sampled out, every hook is one nil check and no record is
// built — TestTraceSampledOutAllocs pins that at zero allocations so the
// benchgate holds. A sampled round runs the same pruned scan as any
// other (collectIncr): its decisions list only the options considerTR
// evaluated, and its Scan field counts the stage visits, stage walks
// and locality options the prunes skipped.

// Decision outcomes.
const (
	// OutcomePlaced: the task won the combined-score comparison and was
	// assigned to Machine.
	OutcomePlaced = "placed"
	// OutcomeOutscored: the task was feasible on Machine but another
	// candidate scored higher in the first fill comparison.
	OutcomeOutscored = "outscored"
	// OutcomeInfeasibleLocal: the task's placement demand did not fit
	// Machine's free vector.
	OutcomeInfeasibleLocal = "infeasible-local"
	// OutcomeInfeasibleRemote: a remote-read charge did not fit at its
	// source machine (§3.2 feasibility).
	OutcomeInfeasibleRemote = "infeasible-remote"
)

// TaskDecision records one considered (task, machine) option.
type TaskDecision struct {
	Task    workload.TaskID `json:"task"`
	Machine int             `json:"machine"`
	Outcome string          `json:"outcome"`
	// Align, P and Score are set for placed/outscored outcomes: the
	// alignment score (already remote-penalized when applicable), the
	// job's remaining-work score, and the combined align − ε·p actually
	// compared.
	Align float64 `json:"align,omitempty"`
	P     float64 `json:"p,omitempty"`
	Score float64 `json:"score,omitempty"`
	// Remote marks a placement that reads some input remotely.
	Remote bool `json:"remote,omitempty"`
}

// RoundTrace records one sampled scheduling round.
type RoundTrace struct {
	Round    uint64  `json:"round"`
	Time     float64 `json:"time"`
	Machines int     `json:"machines"`
	// Fairness-knob cutoff (§3.4): of RunnableJobs sorted by fairness
	// deficit, only the first EligibleJobs were considered; CutoffJobIDs
	// lists the jobs excluded this round (barrier-tail tasks excepted).
	RunnableJobs int     `json:"runnable_jobs"`
	EligibleJobs int     `json:"eligible_jobs"`
	CutoffJobIDs []int   `json:"cutoff_job_ids,omitempty"`
	Eps          float64 `json:"eps"` // last ε computed this round
	Placed       int     `json:"placed"`
	// Scan is what the core's ScanStats gained over this round: the
	// options evaluated and the ones the prunes skipped without a
	// decision record.
	Scan      ScanStats      `json:"scan"`
	Decisions []TaskDecision `json:"decisions"`
	// Truncated counts decisions dropped after the per-round cap.
	Truncated int `json:"truncated,omitempty"`
}

// clone returns a copy of rt that shares no memory with it, its slices
// cut to size: the core builds every sampled round in one reused
// RoundTrace, and a retained trace must not change under a reader. An
// empty slice stays nil, so a round with no decisions still serializes
// as "decisions": null.
func (rt *RoundTrace) clone() RoundTrace {
	c := *rt
	c.CutoffJobIDs = cloneNonEmpty(rt.CutoffJobIDs)
	c.Decisions = cloneNonEmpty(rt.Decisions)
	return c
}

func cloneNonEmpty[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// maxTraceDecisions caps one round's decision list; busy rounds keep the
// earliest records (the most deprived jobs come first) and count the
// rest in Truncated.
const maxTraceDecisions = 512

// DecisionRing collects sampled RoundTraces into a bounded ring.
type DecisionRing struct {
	ring  *telemetry.Ring[RoundTrace]
	every uint64
	seen  atomic.Uint64
}

// NewDecisionRing traces one round in every `every` (≤1 = every round),
// retaining the most recent `capacity` round traces.
func NewDecisionRing(capacity, every int) *DecisionRing {
	if every < 1 {
		every = 1
	}
	return &DecisionRing{
		ring:  telemetry.NewRing[RoundTrace](capacity),
		every: uint64(every),
	}
}

// sample reports whether the next round should be traced.
func (dr *DecisionRing) sample() bool {
	return (dr.seen.Add(1)-1)%dr.every == 0
}

// Snapshot returns the retained round traces, oldest first.
func (dr *DecisionRing) Snapshot() []RoundTrace { return dr.ring.Snapshot() }

// Dropped returns how many round traces the ring has evicted.
func (dr *DecisionRing) Dropped() uint64 { return dr.ring.Dropped() }

// Len returns the number of retained round traces.
func (dr *DecisionRing) Len() int { return dr.ring.Len() }

// trace appends a decision to the in-flight round trace, honoring the
// per-round cap. Call sites test t.rt themselves, so that an unsampled
// round never builds the record it would drop here; the nil check below
// is the backstop for a site that forgets.
func (t *Tetris) trace(d TaskDecision) {
	rt := t.rt
	if rt == nil {
		return
	}
	if len(rt.Decisions) >= maxTraceDecisions {
		rt.Truncated++
		return
	}
	rt.Decisions = append(rt.Decisions, d)
}
