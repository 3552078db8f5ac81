package estimator

import (
	"math"
	"sync"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

func job(id, lineage int) *workload.Job {
	return &workload.Job{ID: id, Lineage: lineage, Weight: 1}
}

func TestOverestimateFallback(t *testing.T) {
	e := New()
	declared := resources.New(2, 4, 10, 10, 0, 0)
	peak, dur, src := e.Estimate(job(1, 0), 0, declared, 30)
	if src != Overestimated {
		t.Fatalf("source = %v, want overestimate", src)
	}
	if peak != declared.Scale(1.5) {
		t.Errorf("peak = %v, want declared×1.5", peak)
	}
	if dur != 45 {
		t.Errorf("duration = %v, want 45", dur)
	}
}

func TestInStageStatisticsKickInAfterMinSamples(t *testing.T) {
	e := New()
	j := job(1, 0)
	measured := resources.New(1, 2, 5, 5, 0, 0)
	declared := resources.New(9, 9, 9, 9, 9, 9)

	e.Observe(j, 0, measured, 20)
	e.Observe(j, 0, measured, 20)
	if _, _, src := e.Estimate(j, 0, declared, 1); src != Overestimated {
		t.Fatalf("2 samples < minSamples, got source %v", src)
	}
	e.Observe(j, 0, measured, 20)
	peak, dur, src := e.Estimate(j, 0, declared, 1)
	if src != FromStage {
		t.Fatalf("source = %v, want stage", src)
	}
	if peak != measured {
		t.Errorf("peak = %v, want %v", peak, measured)
	}
	if dur != 20 {
		t.Errorf("duration = %v", dur)
	}
}

func TestStageStatsAreMeans(t *testing.T) {
	e := New()
	j := job(1, 0)
	e.Observe(j, 0, resources.New(1, 0, 0, 0, 0, 0), 10)
	e.Observe(j, 0, resources.New(2, 0, 0, 0, 0, 0), 20)
	e.Observe(j, 0, resources.New(3, 0, 0, 0, 0, 0), 30)
	peak, dur, _ := e.Estimate(j, 0, resources.Vector{}, 0)
	if got := peak.Get(resources.CPU); math.Abs(got-2) > 1e-9 {
		t.Errorf("mean cpu = %v, want 2", got)
	}
	if math.Abs(dur-20) > 1e-9 {
		t.Errorf("mean duration = %v, want 20", dur)
	}
}

func TestLineageHistoryUsedForFreshJob(t *testing.T) {
	e := New()
	old := job(1, 42)
	measured := resources.New(1, 1, 1, 1, 1, 1)
	for i := 0; i < 5; i++ {
		e.Observe(old, 0, measured, 15)
	}
	// A new instance of the same recurring job, no in-stage samples yet.
	fresh := job(2, 42)
	peak, dur, src := e.Estimate(fresh, 0, resources.Vector{}, 0)
	if src != FromHistory {
		t.Fatalf("source = %v, want history", src)
	}
	if peak != measured || dur != 15 {
		t.Errorf("history estimate = %v/%v", peak, dur)
	}
	// Different stage: no history.
	if _, _, src := e.Estimate(fresh, 1, resources.Vector{}, 0); src != FromHistory {
		if src != Overestimated {
			t.Errorf("stage-1 source = %v", src)
		}
	}
}

func TestStagePreferredOverHistory(t *testing.T) {
	e := New()
	stale := job(1, 7)
	for i := 0; i < 3; i++ {
		e.Observe(stale, 0, resources.New(9, 9, 9, 9, 9, 9), 99)
	}
	j := job(2, 7)
	inStage := resources.New(1, 1, 1, 1, 1, 1)
	for i := 0; i < 3; i++ {
		e.Observe(j, 0, inStage, 10)
	}
	peak, _, src := e.Estimate(j, 0, resources.Vector{}, 0)
	if src != FromStage || peak != inStage {
		t.Errorf("got %v from %v, want in-stage stats", peak, src)
	}
}

func TestForgetJobKeepsHistory(t *testing.T) {
	e := New()
	j := job(1, 5)
	for i := 0; i < 3; i++ {
		e.Observe(j, 0, resources.New(2, 2, 2, 2, 2, 2), 12)
	}
	e.ForgetJob(1, 1)
	if _, _, src := e.Estimate(j, 0, resources.Vector{}, 0); src != FromHistory {
		t.Errorf("after ForgetJob, source = %v, want history", src)
	}
}

func TestStageCoV(t *testing.T) {
	e := New()
	j := job(3, 0)
	if e.StageCoV(3, 0) != 0 {
		t.Error("CoV before observations should be 0")
	}
	e.Observe(j, 0, resources.Vector{}, 10)
	e.Observe(j, 0, resources.Vector{}, 30)
	if cov := e.StageCoV(3, 0); cov <= 0 {
		t.Errorf("CoV = %v, want > 0", cov)
	}
}

func TestConcurrentObserveEstimate(t *testing.T) {
	e := New()
	j := job(1, 9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e.Observe(j, 0, resources.New(1, 1, 1, 1, 1, 1), 10)
				e.Estimate(j, 0, resources.Vector{}, 0)
			}
		}()
	}
	wg.Wait()
	peak, dur, src := e.Estimate(j, 0, resources.Vector{}, 0)
	if src != FromStage || dur != 10 || peak.Get(resources.CPU) != 1 {
		t.Errorf("after concurrent updates: %v %v %v", peak, dur, src)
	}
}

func TestSourceString(t *testing.T) {
	if FromStage.String() != "stage" || FromHistory.String() != "history" || Overestimated.String() != "overestimate" {
		t.Error("source names wrong")
	}
}
