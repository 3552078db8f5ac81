package tracker

import (
	"sync"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

var capVec = resources.New(16, 32, 200, 200, 1000, 1000)

func id(i int) workload.TaskID { return workload.TaskID{Job: 0, Stage: 0, Index: i} }

func TestEmptyReport(t *testing.T) {
	tr := New(capVec)
	rep := tr.ReportAt(0)
	if !rep.Used.IsZero() || !rep.Allocated.IsZero() {
		t.Errorf("empty tracker: %+v", rep)
	}
	if rep.Available != capVec {
		t.Errorf("Available = %v, want full capacity", rep.Available)
	}
}

func TestRampUpAllowance(t *testing.T) {
	tr := New(capVec)
	expected := resources.New(4, 8, 0, 0, 0, 0)
	tr.Start(id(1), expected, 100)

	// Immediately after start, the task is charged its full expected
	// demand even though it has not used anything yet.
	rep := tr.ReportAt(100)
	if rep.Used != expected {
		t.Errorf("Used at t=0: %v, want %v", rep.Used, expected)
	}
	// Halfway through the ramp the allowance has decayed to half.
	rep = tr.ReportAt(105)
	if got := rep.Used.Get(resources.CPU); got != 2 {
		t.Errorf("Used.cpu at half-ramp = %v, want 2", got)
	}
	// After the ramp only observed usage counts (still zero).
	rep = tr.ReportAt(111)
	if !rep.Used.IsZero() {
		t.Errorf("Used after ramp = %v, want zero", rep.Used)
	}
	// Allocation is charged regardless: available excludes the peaks.
	if got := rep.Available.Get(resources.CPU); got != 12 {
		t.Errorf("Available.cpu = %v, want 12", got)
	}
}

func TestObservedDominatesAllowance(t *testing.T) {
	tr := New(capVec)
	tr.Start(id(1), resources.New(2, 2, 0, 0, 0, 0), 0)
	tr.Observe(id(1), resources.New(6, 1, 0, 0, 0, 0))
	rep := tr.ReportAt(1) // within ramp: max(observed, expected×0.9)
	if got := rep.Used.Get(resources.CPU); got != 6 {
		t.Errorf("Used.cpu = %v, want observed 6", got)
	}
	if got := rep.Used.Get(resources.Memory); got != 1.8 {
		t.Errorf("Used.mem = %v, want allowance 1.8", got)
	}
}

func TestOverUseShrinksAvailability(t *testing.T) {
	tr := New(capVec)
	tr.Start(id(1), resources.New(1, 1, 10, 10, 0, 0), 0)
	// Task misbehaves: uses far more disk than allocated.
	tr.Observe(id(1), resources.New(1, 1, 150, 0, 0, 0))
	rep := tr.ReportAt(20)
	if got := rep.Available.Get(resources.DiskRead); got != 50 {
		t.Errorf("Available.diskR = %v, want 50 (capacity − observed)", got)
	}
}

func TestFinishReturnsUsageAndClears(t *testing.T) {
	tr := New(capVec)
	tr.Start(id(1), resources.New(1, 1, 0, 0, 0, 0), 0)
	tr.Observe(id(1), resources.New(2, 2, 0, 0, 0, 0))
	got := tr.Finish(id(1))
	if got.Get(resources.CPU) != 2 {
		t.Errorf("Finish usage = %v", got)
	}
	if len(tr.tasks) != 0 {
		t.Errorf("NumTasks = %d", len(tr.tasks))
	}
	// Finishing again is harmless.
	if !tr.Finish(id(1)).IsZero() {
		t.Error("double Finish should return zero")
	}
	// Observing an unknown task is ignored.
	tr.Observe(id(9), resources.New(5, 5, 5, 5, 5, 5))
	if !tr.ReportAt(100).Used.IsZero() {
		t.Error("unknown-task observation leaked into report")
	}
}

func TestAvailableNeverNegative(t *testing.T) {
	tr := New(capVec)
	tr.Start(id(1), resources.New(999, 999, 999, 999, 9999, 9999), 0)
	rep := tr.ReportAt(100)
	if !rep.Available.IsZero() {
		t.Errorf("Available = %v, want clamped to zero", rep.Available)
	}
}

func TestZeroRampUp(t *testing.T) {
	tr := New(capVec)
	tr.RampUpSec = 0
	tr.Start(id(1), resources.New(4, 4, 0, 0, 0, 0), 0)
	if !tr.ReportAt(0).Used.IsZero() {
		t.Error("RampUpSec=0 disables the allowance")
	}
}

func TestConcurrentAccess(t *testing.T) {
	tr := New(capVec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tid := workload.TaskID{Job: g, Stage: 0, Index: i}
				tr.Start(tid, resources.New(1, 1, 1, 1, 1, 1), float64(i))
				tr.Observe(tid, resources.New(1, 0, 0, 0, 0, 0))
				tr.ReportAt(float64(i))
				tr.Finish(tid)
			}
		}(g)
	}
	wg.Wait()
	if len(tr.tasks) != 0 {
		t.Errorf("NumTasks = %d after all finished", len(tr.tasks))
	}
}
