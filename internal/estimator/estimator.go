// Package estimator implements §4.1 of the paper: estimating tasks' peak
// resource demands and durations from (a) completed tasks of the same
// stage, (b) prior runs of recurring jobs, and (c) a deliberate
// over-estimate when neither source is available — over-estimation is
// preferred to under-estimation because the resource tracker can reclaim
// idle resources but an under-provisioned task slows down.
package estimator

import (
	"sort"
	"sync"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/stats"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Source says where an estimate came from.
type Source int

// Estimate sources, in decreasing order of fidelity.
const (
	// FromStage: measured statistics of completed tasks in the same stage
	// of the same job.
	FromStage Source = iota
	// FromHistory: statistics from earlier runs of the same recurring job
	// (same lineage and stage index).
	FromHistory
	// Overestimated: no measurements available; the declared demand was
	// inflated by the over-estimation factor.
	Overestimated
)

// String names the source.
func (s Source) String() string {
	switch s {
	case FromStage:
		return "stage"
	case FromHistory:
		return "history"
	default:
		return "overestimate"
	}
}

type stageKey struct {
	job   int
	stage int
}

type lineageKey struct {
	lineage int
	stage   int
}

// stageStats accumulates per-dimension demand and duration observations.
type stageStats struct {
	peak     [resources.NumKinds]stats.Online
	duration stats.Online
}

func (ss *stageStats) observe(peak resources.Vector, duration float64) {
	for k := 0; k < int(resources.NumKinds); k++ {
		ss.peak[k].Add(peak.Get(resources.Kind(k)))
	}
	ss.duration.Add(duration)
}

func (ss *stageStats) meanPeak() resources.Vector {
	var v resources.Vector
	for k := 0; k < int(resources.NumKinds); k++ {
		v = v.With(resources.Kind(k), ss.peak[k].Mean())
	}
	return v
}

// Estimator estimates task demands. It is safe for concurrent use (the
// distributed prototype observes completions from many AM goroutines).
// The zero value is NOT ready; use New.
type Estimator struct {
	mu      sync.Mutex
	current map[stageKey]*stageStats
	history map[lineageKey]*stageStats
}

// Declared demands are inflated by overestimateFactor until the stage (or
// its lineage) has minSamples completions to estimate from.
const (
	overestimateFactor = 1.5
	minSamples         = 3
)

// New returns an Estimator.
func New() *Estimator {
	return &Estimator{
		current: make(map[stageKey]*stageStats),
		history: make(map[lineageKey]*stageStats),
	}
}

// Observe records the measured peak usage and duration of a completed
// task. Recurring jobs additionally feed their lineage history.
func (e *Estimator) Observe(job *workload.Job, stage int, peak resources.Vector, duration float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ck := stageKey{job.ID, stage}
	ss := e.current[ck]
	if ss == nil {
		ss = &stageStats{}
		e.current[ck] = ss
	}
	ss.observe(peak, duration)
	if job.Lineage != 0 {
		lk := lineageKey{job.Lineage, stage}
		hs := e.history[lk]
		if hs == nil {
			hs = &stageStats{}
			e.history[lk] = hs
		}
		hs.observe(peak, duration)
	}
}

// Estimate returns the estimated peak demand and duration for a task of
// the given job and stage. declared is the demand the job manager stated
// (usually the trace's true peak; in a real deployment, a guess).
func (e *Estimator) Estimate(job *workload.Job, stage int, declared resources.Vector, declaredDuration float64) (resources.Vector, float64, Source) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ss := e.current[stageKey{job.ID, stage}]; ss != nil && ss.duration.N() >= minSamples {
		return ss.meanPeak(), ss.duration.Mean(), FromStage
	}
	if job.Lineage != 0 {
		if hs := e.history[lineageKey{job.Lineage, stage}]; hs != nil && hs.duration.N() >= minSamples {
			return hs.meanPeak(), hs.duration.Mean(), FromHistory
		}
	}
	return declared.Scale(overestimateFactor), declaredDuration * overestimateFactor, Overestimated
}

// StageCoV returns the coefficient of variation of observed durations for
// a stage of a job (diagnostic; §4.1 reports the production values).
func (e *Estimator) StageCoV(jobID, stage int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ss := e.current[stageKey{jobID, stage}]; ss != nil {
		return ss.duration.CoV()
	}
	return 0
}

// StageState is the serializable statistics of one (job|lineage, stage)
// pair, used when checkpointing the estimator into the RM journal.
type StageState struct {
	Key      int                                   `json:"key"` // job ID or lineage ID
	Stage    int                                   `json:"stage"`
	Peak     [resources.NumKinds]stats.OnlineState `json:"peak"`
	Duration stats.OnlineState                     `json:"duration"`
}

// State is the serializable snapshot of an Estimator's accumulated
// statistics (tuning knobs are configuration, not state). Entries are
// sorted by (key, stage) so the encoding is deterministic — the RM's
// journal-replay equivalence check compares snapshots byte for byte.
type State struct {
	Current []StageState `json:"current,omitempty"`
	History []StageState `json:"history,omitempty"`
}

func exportStage(key, stage int, ss *stageStats) StageState {
	st := StageState{Key: key, Stage: stage, Duration: ss.duration.State()}
	for k := 0; k < int(resources.NumKinds); k++ {
		st.Peak[k] = ss.peak[k].State()
	}
	return st
}

func importStage(st StageState) *stageStats {
	ss := &stageStats{}
	ss.duration.SetState(st.Duration)
	for k := 0; k < int(resources.NumKinds); k++ {
		ss.peak[k].SetState(st.Peak[k])
	}
	return ss
}

func sortStages(xs []StageState) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Key != xs[j].Key {
			return xs[i].Key < xs[j].Key
		}
		return xs[i].Stage < xs[j].Stage
	})
}

// Export snapshots the estimator's statistics.
func (e *Estimator) Export() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st State
	for k, ss := range e.current {
		st.Current = append(st.Current, exportStage(k.job, k.stage, ss))
	}
	for k, ss := range e.history {
		st.History = append(st.History, exportStage(k.lineage, k.stage, ss))
	}
	sortStages(st.Current)
	sortStages(st.History)
	return st
}

// Import replaces the estimator's statistics with an exported snapshot.
func (e *Estimator) Import(st State) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.current = make(map[stageKey]*stageStats, len(st.Current))
	e.history = make(map[lineageKey]*stageStats, len(st.History))
	for _, s := range st.Current {
		e.current[stageKey{s.Key, s.Stage}] = importStage(s)
	}
	for _, s := range st.History {
		e.history[lineageKey{s.Key, s.Stage}] = importStage(s)
	}
}

// ForgetJob drops the in-flight statistics of a finished job, keeping
// only lineage history.
func (e *Estimator) ForgetJob(jobID int, numStages int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for s := 0; s < numStages; s++ {
		delete(e.current, stageKey{jobID, s})
	}
}
