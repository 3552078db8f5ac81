package workload

import (
	"math"
	"strings"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
)

// twoStageJob builds a map/reduce-like job: stage 0 with nMap tasks, stage
// 1 with nRed tasks depending on stage 0.
func twoStageJob(id, nMap, nRed int) *Job {
	mk := func(stage, n int, peak resources.Vector) *Stage {
		s := &Stage{Name: "s"}
		for i := 0; i < n; i++ {
			s.Tasks = append(s.Tasks, &Task{
				ID:   TaskID{Job: id, Stage: stage, Index: i},
				Peak: peak,
				Work: Work{CPUSeconds: 10},
			})
		}
		return s
	}
	j := &Job{
		ID:     id,
		Name:   "test",
		Weight: 1,
		Stages: []*Stage{
			mk(0, nMap, resources.New(1, 2, 0, 0, 0, 0)),
			mk(1, nRed, resources.New(0.1, 0.5, 0, 0, 200, 0)),
		},
	}
	j.Stages[1].Deps = []int{0}
	return j
}

func TestTaskIDString(t *testing.T) {
	id := TaskID{Job: 3, Stage: 1, Index: 42}
	if got := id.String(); got != "j3/s1/t42" {
		t.Errorf("String = %q", got)
	}
}

func TestInputAccounting(t *testing.T) {
	task := &Task{Inputs: []InputBlock{
		{Machine: 0, SizeMB: 100},
		{Machine: 1, SizeMB: 50},
		{Machine: -1, SizeMB: 25},
	}}
	if got := task.TotalInputMB(); got != 175 {
		t.Errorf("TotalInputMB = %v", got)
	}
	if got := task.RemoteInputMB(0); got != 50 {
		t.Errorf("RemoteInputMB(0) = %v", got)
	}
	if got := task.RemoteInputMB(2); got != 150 {
		t.Errorf("RemoteInputMB(2) = %v", got)
	}
	if !task.HasLocalAffinity(1) || task.HasLocalAffinity(2) {
		t.Error("HasLocalAffinity wrong")
	}
}

func TestNominalDuration(t *testing.T) {
	task := &Task{
		Peak: resources.New(2, 4, 100, 50, 800, 800), // 800 Mb/s = 100 MB/s
		Work: Work{CPUSeconds: 20, WriteMB: 100},
		Inputs: []InputBlock{
			{Machine: 0, SizeMB: 300},
		},
	}
	// Local at machine 0: cpu 20/2=10s, write 100/50=2s, read 300/100=3s.
	if got := task.NominalDuration(0); got != 10 {
		t.Errorf("local NominalDuration = %v, want 10", got)
	}
	// Remote at machine 1: also netIn constraint 300MB at 100MB/s = 3s;
	// cpu still dominates.
	if got := task.NominalDuration(1); got != 10 {
		t.Errorf("remote NominalDuration = %v, want 10", got)
	}
	// Make network the bottleneck.
	slow := *task
	slow.Peak = slow.Peak.With(resources.NetIn, 80) // 10 MB/s
	if got := slow.NominalDuration(1); got != 30 {
		t.Errorf("slow-net NominalDuration = %v, want 30", got)
	}
	// Zero rate with positive work: huge sentinel.
	bad := &Task{Peak: resources.Vector{}, Work: Work{CPUSeconds: 5}}
	if got := bad.NominalDuration(0); got < 1e29 {
		t.Errorf("zero-rate duration = %v, want sentinel", got)
	}
}

func TestJobValidate(t *testing.T) {
	j := twoStageJob(7, 3, 2)
	if err := j.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}

	cyc := twoStageJob(7, 1, 1)
	cyc.Stages[0].Deps = []int{1}
	if err := cyc.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}

	self := twoStageJob(7, 1, 1)
	self.Stages[0].Deps = []int{0}
	if err := self.Validate(); err == nil {
		t.Error("self-dependency not detected")
	}

	oob := twoStageJob(7, 1, 1)
	oob.Stages[0].Deps = []int{9}
	if err := oob.Validate(); err == nil {
		t.Error("out-of-range dep not detected")
	}

	badID := twoStageJob(7, 1, 1)
	badID.Stages[0].Tasks[0].ID.Index = 5
	if err := badID.Validate(); err == nil {
		t.Error("inconsistent id not detected")
	}

	neg := twoStageJob(7, 1, 1)
	neg.Stages[0].Tasks[0].Peak = neg.Stages[0].Tasks[0].Peak.With(resources.CPU, -1)
	if err := neg.Validate(); err == nil {
		t.Error("negative demand not detected")
	}

	negWork := twoStageJob(7, 1, 1)
	negWork.Stages[0].Tasks[0].Work.CPUSeconds = -3
	if err := negWork.Validate(); err == nil {
		t.Error("negative work not detected")
	}

	empty := &Job{ID: 7, Weight: 1}
	if err := empty.Validate(); err == nil || !strings.Contains(err.Error(), "no tasks") {
		t.Errorf("zero-task job not detected: %v", err)
	}

	emptyStage := twoStageJob(7, 1, 1)
	emptyStage.Stages[1].Tasks = nil
	if err := emptyStage.Validate(); err == nil || !strings.Contains(err.Error(), "no tasks") {
		t.Errorf("empty stage not detected: %v", err)
	}

	// Positive work on a dimension with a zero peak rate can never finish.
	noCPU := twoStageJob(7, 1, 1)
	noCPU.Stages[0].Tasks[0].Peak = noCPU.Stages[0].Tasks[0].Peak.With(resources.CPU, 0)
	if err := noCPU.Validate(); err == nil || !strings.Contains(err.Error(), "zero peak CPU") {
		t.Errorf("cpu work with zero cpu peak not detected: %v", err)
	}

	noWrite := twoStageJob(7, 1, 1)
	noWrite.Stages[0].Tasks[0].Work.WriteMB = 50
	if err := noWrite.Validate(); err == nil || !strings.Contains(err.Error(), "disk-write") {
		t.Errorf("write work with zero disk-write peak not detected: %v", err)
	}

	noRead := twoStageJob(7, 1, 1)
	noRead.Stages[0].Tasks[0].Inputs = []InputBlock{{Machine: -1, SizeMB: 10}}
	if err := noRead.Validate(); err == nil || !strings.Contains(err.Error(), "disk-read") {
		t.Errorf("input with zero disk-read peak not detected: %v", err)
	}

	// Input machines are bounded like node IDs: consumers index by them.
	for _, m := range []int{MaxMachineID - 1, MaxMachineID, 1 << 40} {
		far := twoStageJob(7, 1, 1)
		far.Stages[0].Tasks[0].Inputs = []InputBlock{{Machine: m}}
		err := far.Validate()
		if want := m >= MaxMachineID; want != (err != nil) {
			t.Errorf("input on machine %d: %v, want refused = %v", m, err, want)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	j := twoStageJob(0, 2, 1)
	j.Stages[0].Tasks[0].Inputs = []InputBlock{{Machine: 5, SizeMB: 10}}
	j.Stages[0].Tasks[0].Peak = j.Stages[0].Tasks[0].Peak.With(resources.DiskRead, 10)
	w := &Workload{Jobs: []*Job{j}, NumMachines: 4}
	if err := w.Validate(); err == nil {
		t.Error("block on out-of-range machine not detected")
	}
	w.NumMachines = 6
	if err := w.Validate(); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	if w.NumTasks() != 3 {
		t.Errorf("NumTasks = %d", w.NumTasks())
	}
}

func TestStatusLifecycle(t *testing.T) {
	j := twoStageJob(0, 2, 2)
	s := NewStatus(j)

	if s.Finished() {
		t.Fatal("new status already finished")
	}
	if !s.StageReady(0) || s.StageReady(1) {
		t.Fatal("stage readiness wrong at start")
	}

	run := s.Runnable(nil)
	if len(run) != 2 {
		t.Fatalf("runnable = %d, want 2 (only stage 0)", len(run))
	}

	// Run both maps.
	for _, task := range run {
		s.MarkRunning(task.ID)
	}
	if got := s.Runnable(nil); len(got) != 0 {
		t.Fatalf("runnable after starting all = %d", len(got))
	}
	s.MarkDone(TaskID{0, 0, 0})
	if s.StageReady(1) {
		t.Fatal("barrier should hold until all of stage 0 done")
	}
	s.MarkDone(TaskID{0, 0, 1})
	if !s.StageReady(1) {
		t.Fatal("stage 1 should unlock")
	}
	run = s.Runnable(nil)
	if len(run) != 2 || run[0].ID.Stage != 1 {
		t.Fatalf("runnable after barrier = %v", run)
	}
	if s.DoneTasks() != 2 || s.RemainingTasks() != 2 {
		t.Fatalf("counts: done=%d remaining=%d", s.DoneTasks(), s.RemainingTasks())
	}

	for _, task := range run {
		s.MarkRunning(task.ID)
		s.MarkDone(task.ID)
	}
	if !s.Finished() {
		t.Fatal("not finished after every task is done")
	}
}

func TestStatusPanicsOnBadTransition(t *testing.T) {
	j := twoStageJob(0, 1, 1)
	s := NewStatus(j)
	defer func() {
		if recover() == nil {
			t.Error("MarkDone on pending task should panic")
		}
	}()
	s.MarkDone(TaskID{0, 0, 0})
}

func TestBarrierTail(t *testing.T) {
	j := twoStageJob(0, 10, 2)
	s := NewStatus(j)
	id9 := TaskID{0, 0, 9}

	if s.InBarrierTail(id9, 0.9) {
		t.Error("no tasks done yet: not in tail")
	}
	for i := 0; i < 9; i++ {
		id := TaskID{0, 0, i}
		s.MarkRunning(id)
		s.MarkDone(id)
	}
	if !s.InBarrierTail(id9, 0.9) {
		t.Error("90% done: last task should be in tail")
	}
	if s.InBarrierTail(id9, 0.95) {
		t.Error("b=0.95 not reached with 9/10 done")
	}
	if s.InBarrierTail(id9, 1.0) {
		t.Error("b=1 disables barrier preference")
	}
}

func TestPendingInStage(t *testing.T) {
	j := twoStageJob(0, 3, 1)
	s := NewStatus(j)
	if got := s.PendingInStage(0); got != 3 {
		t.Fatalf("PendingInStage = %d", got)
	}
	s.MarkRunning(TaskID{0, 0, 0})
	if got := s.PendingInStage(0); got != 2 {
		t.Fatalf("PendingInStage after run = %d", got)
	}
	s.MarkDone(TaskID{0, 0, 0})
	if got := s.PendingInStage(0); got != 2 {
		t.Fatalf("PendingInStage after done = %d", got)
	}
}

func TestForEachRemaining(t *testing.T) {
	j := twoStageJob(0, 2, 2)
	s := NewStatus(j)
	s.MarkRunning(TaskID{0, 0, 0})
	s.MarkDone(TaskID{0, 0, 0})

	var n int
	var work float64
	s.ForEachRemaining(func(t *Task) {
		n++
		work += t.Work.CPUSeconds
	})
	if n != 3 {
		t.Errorf("remaining visited = %d, want 3", n)
	}
	if math.Abs(work-30) > 1e-9 {
		t.Errorf("remaining work = %v, want 30", work)
	}
}

func TestMarkFailedReturnsToPending(t *testing.T) {
	j := twoStageJob(0, 3, 1)
	s := NewStatus(j)
	id := TaskID{0, 0, 1}
	s.MarkRunning(id)
	// Advance the cursor past the failed task's index first.
	got := s.AppendPending(0, 3, nil)
	if len(got) != 2 {
		t.Fatalf("pending while one runs = %d", len(got))
	}
	s.MarkFailed(id)
	if s.State(id) != Pending {
		t.Fatalf("state after fail = %v", s.State(id))
	}
	// The task must be visible to AppendPending again (cursor rewound).
	got = s.AppendPending(0, 3, nil)
	if len(got) != 3 {
		t.Fatalf("pending after fail = %d, want 3", len(got))
	}
	// Re-run to completion.
	s.MarkRunning(id)
	s.MarkDone(id)
	if s.DoneTasks() != 1 {
		t.Errorf("done = %d", s.DoneTasks())
	}
}

func TestMarkFailedPanicsFromPending(t *testing.T) {
	j := twoStageJob(0, 1, 1)
	s := NewStatus(j)
	defer func() {
		if recover() == nil {
			t.Error("MarkFailed on pending task should panic")
		}
	}()
	s.MarkFailed(TaskID{0, 0, 0})
}

func TestTaskStateStrings(t *testing.T) {
	if Pending.String() != "pending" || Running.String() != "running" || Done.String() != "done" {
		t.Error("state names wrong")
	}
	if !strings.Contains(TaskState(9).String(), "9") {
		t.Error("out-of-range state name")
	}
}

func TestStageCountersAndAccessors(t *testing.T) {
	j := twoStageJob(0, 4, 2)
	s := NewStatus(j)
	if !s.HasRunnable() {
		t.Error("fresh job should have runnable tasks")
	}
	if got := j.Task(0, 2); got.ID != (TaskID{0, 0, 2}) {
		t.Errorf("Task accessor = %v", got.ID)
	}
	s.MarkRunning(TaskID{0, 0, 0})
	s.MarkDone(TaskID{0, 0, 0})
	if s.DoneInStage(0) != 1 || s.RemainingInStage(0) != 3 {
		t.Errorf("stage counters: done=%d remaining=%d", s.DoneInStage(0), s.RemainingInStage(0))
	}
	// Exhaust stage 0; stage 1 unlocks; HasRunnable still true.
	for i := 1; i < 4; i++ {
		id := TaskID{0, 0, i}
		s.MarkRunning(id)
		s.MarkDone(id)
	}
	if !s.HasRunnable() {
		t.Error("stage 1 should be runnable after the barrier")
	}
	// Run stage 1 but don't finish: nothing pending → not runnable.
	for i := 0; i < 2; i++ {
		s.MarkRunning(TaskID{0, 1, i})
	}
	if s.HasRunnable() {
		t.Error("no pending tasks → not runnable")
	}
}

func TestPeakDuration(t *testing.T) {
	task := &Task{
		Peak:   resources.New(2, 4, 100, 50, 80, 0), // netIn 10 MB/s < diskR
		Work:   Work{CPUSeconds: 30, WriteMB: 200},
		Inputs: []InputBlock{{Machine: 3, SizeMB: 500}},
	}
	// cpu 15s, write 4s, read 5s (always local for PeakDuration) → 15.
	if got := task.PeakDuration(); math.Abs(got-15) > 1e-9 {
		t.Errorf("PeakDuration = %v, want 15", got)
	}
	// FlowCapMBps = min(diskR 100, netIn/8 = 10) = 10.
	if got := task.FlowCapMBps(); got != 10 {
		t.Errorf("FlowCapMBps = %v, want 10", got)
	}
	// Without a network peak the disk rate caps the flow.
	task.Peak = task.Peak.With(resources.NetIn, 0)
	if got := task.FlowCapMBps(); got != 100 {
		t.Errorf("FlowCapMBps without net = %v, want 100", got)
	}
	// Zero-rate sentinel.
	zero := &Task{Work: Work{CPUSeconds: 1}}
	if zero.PeakDuration() < 1e29 {
		t.Errorf("zero-rate PeakDuration = %v, want sentinel", zero.PeakDuration())
	}
}

// TestStatusDiamondCascade drives a Status through a barrier cascade four
// levels deep: a source, a diamond (two branches joining), and a sink that
// also depends on the source across levels. Running every runnable task
// each wave must take exactly one wave per level, and each wave must run
// exactly the stages of its level.
func TestStatusDiamondCascade(t *testing.T) {
	deps := [][]int{{}, {0}, {0}, {1, 2}, {3, 0}}
	level := []int{0, 1, 1, 2, 3}
	const depth = 4
	j := &Job{ID: 7, Name: "diamond", Weight: 1}
	for si, d := range deps {
		st := &Stage{Name: "s", Deps: d}
		for i := 0; i < si+1; i++ {
			st.Tasks = append(st.Tasks, &Task{
				ID:   TaskID{Job: 7, Stage: si, Index: i},
				Peak: resources.New(1, 1, 0, 0, 0, 0),
				Work: Work{CPUSeconds: 1},
			})
		}
		j.Stages = append(j.Stages, st)
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	s := NewStatus(j)
	waves := 0
	for !s.Finished() {
		run := s.Runnable(nil)
		if len(run) == 0 {
			t.Fatalf("wave %d: no runnable tasks but job unfinished (%d/%d done)", waves, s.DoneTasks(), j.NumTasks())
		}
		want := 0
		for si := range j.Stages {
			if level[si] == waves {
				want += len(j.Stages[si].Tasks)
			}
		}
		if len(run) != want {
			t.Fatalf("wave %d: %d runnable tasks, want %d", waves, len(run), want)
		}
		for _, task := range run {
			if level[task.ID.Stage] != waves {
				t.Fatalf("wave %d: runnable %v belongs to level %d", waves, task.ID, level[task.ID.Stage])
			}
			s.MarkRunning(task.ID)
			s.MarkDone(task.ID)
		}
		waves++
		if waves > depth {
			t.Fatalf("more than %d waves", depth)
		}
	}
	if waves != depth {
		t.Errorf("waves = %d, want the depth %d", waves, depth)
	}
}
