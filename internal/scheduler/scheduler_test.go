package scheduler

import (
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// --- test fixtures ---------------------------------------------------

// mkView builds a View over n identical machines.
func mkView(n int, capacity resources.Vector, jobs ...*JobState) *View {
	v := &View{}
	for i := 0; i < n; i++ {
		v.Machines = append(v.Machines, &MachineState{ID: i, Capacity: capacity})
		v.Total = v.Total.Add(capacity)
	}
	v.Jobs = jobs
	return v
}

// mkJob builds a single-stage job of n tasks with identical peaks/work.
func mkJob(id, n int, peak resources.Vector, cpuWork float64) *JobState {
	j := &workload.Job{ID: id, Weight: 1}
	st := &workload.Stage{Name: "s"}
	for i := 0; i < n; i++ {
		st.Tasks = append(st.Tasks, &workload.Task{
			ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
			Peak: peak,
			Work: workload.Work{CPUSeconds: cpuWork},
		})
	}
	j.Stages = []*workload.Stage{st}
	return &JobState{Job: j, Status: workload.NewStatus(j)}
}

// apply marks assigned tasks running and updates ledgers, mimicking the
// simulator's bookkeeping.
func apply(v *View, asgs []Assignment) {
	jobByID := map[int]*JobState{}
	for _, j := range v.Jobs {
		jobByID[j.Job.ID] = j
	}
	for _, a := range asgs {
		j := jobByID[a.Task.ID.Job]
		j.Status.MarkRunning(a.Task.ID)
		j.Alloc = j.Alloc.Add(a.Local)
		v.Machines[a.Machine].Allocated = v.Machines[a.Machine].Allocated.Add(a.Local)
		for _, rc := range a.Remote {
			v.Machines[rc.Machine].Allocated = v.Machines[rc.Machine].Allocated.Add(rc.Charge)
		}
	}
}

var machine = resources.New(16, 32, 200, 200, 1000, 1000)

// --- helpers / demand adjustment -------------------------------------

func TestEffectiveDemand(t *testing.T) {
	task := &workload.Task{
		Peak: resources.New(2, 4, 100, 50, 400, 300),
		Inputs: []workload.InputBlock{
			{Machine: 0, SizeMB: 100},
			{Machine: 1, SizeMB: 100},
		},
	}
	// Placed at machine 0: half local, half remote → needs local diskR
	// and netIn; netOut never charged locally.
	d := EffectiveDemand(task.Peak, task, 0)
	if d.Get(resources.DiskRead) != 100 || d.Get(resources.NetIn) != 400 || d.Get(resources.NetOut) != 0 {
		t.Errorf("mixed placement demand = %v", d)
	}
	// Placed at machine 2: all remote → no local diskR.
	d = EffectiveDemand(task.Peak, task, 2)
	if d.Get(resources.DiskRead) != 0 || d.Get(resources.NetIn) != 400 {
		t.Errorf("all-remote demand = %v", d)
	}
	// No inputs: no diskR, no netIn.
	noin := &workload.Task{Peak: task.Peak}
	d = EffectiveDemand(noin.Peak, noin, 0)
	if d.Get(resources.DiskRead) != 0 || d.Get(resources.NetIn) != 0 {
		t.Errorf("no-input demand = %v", d)
	}
}

func TestRemoteCharges(t *testing.T) {
	task := &workload.Task{
		Peak: resources.New(1, 1, 100, 0, 800, 0),
		Inputs: []workload.InputBlock{
			{Machine: 1, SizeMB: 300},
			{Machine: 2, SizeMB: 100},
			{Machine: 0, SizeMB: 600}, // local when placed at 0
		},
	}
	charges := RemoteCharges(task, 0)
	if len(charges) != 2 {
		t.Fatalf("charges = %v", charges)
	}
	byMachine := map[int]resources.Vector{}
	for _, rc := range charges {
		byMachine[rc.Machine] = rc.Charge
	}
	// Machine 1 serves 300/400 of the remote read.
	if got := byMachine[1].Get(resources.DiskRead); got != 75 {
		t.Errorf("m1 diskR charge = %v, want 75", got)
	}
	if got := byMachine[1].Get(resources.NetOut); got != 600 {
		t.Errorf("m1 netOut charge = %v, want 600", got)
	}
	if got := byMachine[2].Get(resources.NetOut); got != 200 {
		t.Errorf("m2 netOut charge = %v, want 200", got)
	}
	// All local: nil.
	if RemoteCharges(task, 0) == nil {
		t.Error("expected charges for remote inputs")
	}
	local := &workload.Task{Peak: task.Peak, Inputs: []workload.InputBlock{{Machine: 3, SizeMB: 10}}}
	if RemoteCharges(local, 3) != nil {
		t.Error("all-local should have nil charges")
	}
}

// --- scorers ----------------------------------------------------------

func TestScorersPreferences(t *testing.T) {
	cap := resources.New(10, 10, 10, 10, 10, 10)
	availNet := resources.New(5, 5, 0, 0, 0, 9)
	netTask := resources.New(1, 1, 0, 0, 0, 8)
	cpuTask := resources.New(4, 1, 0, 0, 0, 0)
	score := func(sc Scorer, demand, avail resources.Vector) float64 {
		return sc.ScoreNorm(demand.Normalize(cap), avail.Normalize(cap))
	}

	cos := CosineScorer{}
	if score(cos, netTask, availNet) <= score(cos, cpuTask, availNet) {
		t.Error("cosine should prefer the task aligned with abundant network")
	}

	// FFD scorers are machine-independent: bigger task wins regardless.
	big := resources.New(8, 8, 8, 8, 8, 8)
	small := resources.New(1, 1, 1, 1, 1, 1)
	for _, sc := range []Scorer{FFDProdScorer{}, FFDSumScorer{}} {
		if score(sc, big, availNet) <= score(sc, small, availNet) {
			t.Errorf("%s should prefer the bigger task", sc.Name())
		}
	}

	// L2-norm-diff prefers the task that best fills what is available.
	l2 := L2NormDiffScorer{}
	exact := availNet
	if score(l2, exact, availNet) < score(l2, small, availNet) {
		t.Error("l2-norm-diff should prefer the perfectly filling task")
	}

	// All five scorers are registered with unique names.
	names := map[string]bool{}
	for _, sc := range Scorers() {
		names[sc.Name()] = true
	}
	if len(names) != 5 {
		t.Errorf("scorers = %v", names)
	}
}

// --- Tetris -----------------------------------------------------------

func TestTetrisPacksUntilFull(t *testing.T) {
	// 1 machine, 1 job with tasks of 4 cores / 8 GB: exactly 4 fit.
	j := mkJob(0, 10, resources.New(4, 8, 0, 0, 0, 0), 40)
	v := mkView(1, machine, j)
	tet := NewTetris(DefaultTetrisConfig())
	asgs := tet.Schedule(v)
	if len(asgs) != 4 {
		t.Fatalf("assigned %d tasks, want 4", len(asgs))
	}
	apply(v, asgs)
	if more := tet.Schedule(v); len(more) != 0 {
		t.Errorf("machine full, got %d more assignments", len(more))
	}
}

func TestTetrisNeverOverAllocates(t *testing.T) {
	// IO-heavy tasks reading a block on machine 1: remote placements need
	// 600 Mb/s netIn locally plus diskR+netOut at machine 1; local
	// placements need 100 MB/s of machine 1's 200 MB/s disk.
	j := mkJob(0, 10, resources.New(0.5, 1, 100, 0, 600, 0), 10)
	for _, task := range j.Job.Stages[0].Tasks {
		task.Inputs = []workload.InputBlock{{Machine: 1, SizeMB: 1000}}
	}
	v := mkView(2, machine, j)
	tet := NewTetris(DefaultTetrisConfig())
	asgs := tet.Schedule(v)
	apply(v, asgs)
	for _, m := range v.Machines {
		if !m.Allocated.FitsIn(m.Capacity) {
			t.Errorf("machine %d over-allocated: %v", m.ID, m.Allocated)
		}
	}
	// Machine 1 serves local readers (≤2 at 100 MB/s each) and remote
	// readers' charges; machine 0 fits at most one 600 Mb/s reader.
	perMachine := map[int]int{}
	for _, a := range asgs {
		perMachine[a.Machine]++
	}
	if perMachine[0] > 1 {
		t.Errorf("machine 0 got %d net-heavy tasks, want ≤ 1", perMachine[0])
	}
	if perMachine[1] > 2 {
		t.Errorf("machine 1 got %d disk-heavy tasks, want ≤ 2", perMachine[1])
	}
	if len(asgs) == 0 {
		t.Error("nothing scheduled")
	}
}

func TestTetrisPrefersAlignedTask(t *testing.T) {
	// Machine with memory mostly used, CPU free: the CPU-heavy task
	// aligns better than the memory-heavy one.
	cpuJob := mkJob(0, 1, resources.New(8, 2, 0, 0, 0, 0), 10)
	memJob := mkJob(1, 1, resources.New(1, 20, 0, 0, 0, 0), 10)
	v := mkView(1, machine, cpuJob, memJob)
	v.Machines[0].Allocated = resources.New(0, 24, 0, 0, 0, 0)
	// Equalize remaining-work so only alignment differentiates.
	cfg := DefaultTetrisConfig()
	cfg.EpsilonMultiplier = 0
	cfg.Fairness = 0
	tet := NewTetris(cfg)
	asgs := tet.Schedule(v)
	if len(asgs) != 1 {
		t.Fatalf("assignments = %d (mem task shouldn't fit: 20 > 8 free)", len(asgs))
	}
	if asgs[0].Task.ID.Job != 0 {
		t.Errorf("picked job %d, want CPU-aligned job 0", asgs[0].Task.ID.Job)
	}
}

func TestTetrisSRTFPrefersSmallJob(t *testing.T) {
	big := mkJob(0, 50, resources.New(2, 4, 0, 0, 0, 0), 100)
	small := mkJob(1, 2, resources.New(2, 4, 0, 0, 0, 0), 100)
	v := mkView(1, resources.New(2, 4, 0, 0, 0, 0).Scale(1), small, big)
	// Machine fits exactly one task; identical alignment → SRTF decides.
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	tet := NewTetris(cfg)
	asgs := tet.Schedule(v)
	if len(asgs) != 1 {
		t.Fatalf("assignments = %d", len(asgs))
	}
	if asgs[0].Task.ID.Job != 1 {
		t.Errorf("picked job %d, want small job 1 (SRTF)", asgs[0].Task.ID.Job)
	}
}

func TestTetrisSRTFOnlyMode(t *testing.T) {
	big := mkJob(0, 50, resources.New(2, 4, 0, 0, 0, 0), 100)
	small := mkJob(1, 2, resources.New(1, 1, 0, 0, 0, 0), 100)
	v := mkView(1, machine, small, big)
	cfg := DefaultTetrisConfig()
	cfg.SRTFOnly = true
	cfg.Fairness = 0
	tet := NewTetris(cfg)
	asgs := tet.Schedule(v)
	if len(asgs) == 0 {
		t.Fatal("no assignments")
	}
	// First pick must come from the small job.
	if asgs[0].Task.ID.Job != 1 {
		t.Errorf("SRTF-only first pick = job %d, want 1", asgs[0].Task.ID.Job)
	}
}

func TestTetrisFairnessKnobRestricts(t *testing.T) {
	// Job 0 far over its fair share, job 1 at zero. With f→1 only the
	// most deprived job may receive resources.
	rich := mkJob(0, 10, resources.New(1, 2, 0, 0, 0, 0), 10)
	rich.Alloc = resources.New(8, 16, 0, 0, 0, 0)
	poor := mkJob(1, 10, resources.New(1, 2, 0, 0, 0, 0), 10)
	v := mkView(1, machine, rich, poor)
	v.Machines[0].Allocated = resources.New(8, 16, 0, 0, 0, 0)

	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0.99
	cfg.Barrier = 1 // disable tail bypass
	tet := NewTetris(cfg)
	asgs := tet.Schedule(v)
	if len(asgs) == 0 {
		t.Fatal("no assignments")
	}
	for _, a := range asgs {
		if a.Task.ID.Job != 1 {
			t.Errorf("f→1 assigned task of rich job %d", a.Task.ID.Job)
		}
	}
}

func TestTetrisFairnessZeroAllowsAnyJob(t *testing.T) {
	// Rich job has only 3 runnable tasks (12 cores); the rest of the
	// machine must go to the poor job even though rich is over-served.
	rich := mkJob(0, 3, resources.New(4, 2, 0, 0, 0, 0), 10)
	rich.Alloc = resources.New(8, 4, 0, 0, 0, 0)
	poor := mkJob(1, 10, resources.New(0.5, 0.5, 0, 0, 0, 0), 10)
	v := mkView(1, machine, rich, poor)
	cfg := DefaultTetrisConfig()
	cfg.Fairness = 0
	cfg.EpsilonMultiplier = 0
	tet := NewTetris(cfg)
	asgs := tet.Schedule(v)
	jobs := map[int]bool{}
	for _, a := range asgs {
		jobs[a.Task.ID.Job] = true
	}
	if !jobs[0] || !jobs[1] {
		t.Errorf("f=0 should consider all jobs, got %v", jobs)
	}
}

func TestTetrisBarrierPreference(t *testing.T) {
	// Job 0: stage 0 at 9/10 done → its last task is in the tail and
	// must be preferred over job 1's fresh tasks.
	j0 := mkJob(0, 10, resources.New(1, 2, 0, 0, 0, 0), 10)
	for i := 0; i < 9; i++ {
		id := workload.TaskID{Job: 0, Stage: 0, Index: i}
		j0.Status.MarkRunning(id)
		j0.Status.MarkDone(id)
	}
	j1 := mkJob(1, 10, resources.New(1, 2, 0, 0, 0, 0), 10)
	v := mkView(1, machine, j0, j1)
	cfg := DefaultTetrisConfig()
	cfg.Barrier = 0.9
	tet := NewTetris(cfg)
	asgs := tet.Schedule(v)
	if len(asgs) == 0 {
		t.Fatal("no assignments")
	}
	if asgs[0].Task.ID.Job != 0 || asgs[0].Task.ID.Index != 9 {
		t.Errorf("first pick = %v, want job 0's tail task", asgs[0].Task.ID)
	}
}

func TestTetrisHotspotAvoidance(t *testing.T) {
	j := mkJob(0, 4, resources.New(1, 2, 10, 10, 0, 0), 10)
	v := mkView(2, machine, j)
	// Machine 0 is busy with ingestion: 95% disk write reported.
	v.Machines[0].Reported = resources.Vector{}.With(resources.DiskWrite, 190)
	cfg := DefaultTetrisConfig()
	cfg.HotspotThreshold = 0.8
	tet := NewTetris(cfg)
	asgs := tet.Schedule(v)
	if len(asgs) == 0 {
		t.Fatal("no assignments")
	}
	for _, a := range asgs {
		if a.Machine == 0 {
			t.Errorf("task placed on hot machine 0")
		}
	}
}

func TestTetrisRespectsReportedUsage(t *testing.T) {
	// Even without the hotspot threshold, reported usage shrinks the
	// packing headroom (capacity − max(allocated, reported)).
	j := mkJob(0, 10, resources.New(4, 2, 0, 0, 0, 0), 10)
	v := mkView(1, machine, j)
	v.Machines[0].Reported = resources.Vector{}.With(resources.CPU, 14)
	tet := NewTetris(DefaultTetrisConfig())
	asgs := tet.Schedule(v)
	// Only 2 cores free → no 4-core task fits.
	if len(asgs) != 0 {
		t.Errorf("placed %d tasks onto a nearly-full machine", len(asgs))
	}
}

func TestTetrisRemotePenaltyPrefersLocal(t *testing.T) {
	// Two identical tasks; one has input local to machine 0, the other on
	// machine 1. The local one must be picked first. The demands are
	// sized so the normalized read component is the same locally (50/200)
	// and remotely (250/1000): the remote penalty breaks the tie.
	j := mkJob(0, 2, resources.New(2, 2, 50, 0, 250, 0), 10)
	j.Job.Stages[0].Tasks[0].Inputs = []workload.InputBlock{{Machine: 1, SizeMB: 100}}
	j.Job.Stages[0].Tasks[1].Inputs = []workload.InputBlock{{Machine: 0, SizeMB: 100}}
	v := mkView(2, machine, j)
	cfg := DefaultTetrisConfig()
	cfg.EpsilonMultiplier = 0
	tet := NewTetris(cfg)
	asgs := tet.Schedule(v)
	if len(asgs) == 0 {
		t.Fatal("no assignments")
	}
	if asgs[0].Task.ID.Index != 1 || asgs[0].Machine != 0 {
		t.Errorf("first pick = task %v on machine %d, want local task 1 on 0", asgs[0].Task.ID, asgs[0].Machine)
	}
}

// --- SlotFair ----------------------------------------------------------

func TestSlotFairSharesSlots(t *testing.T) {
	a := mkJob(0, 20, resources.New(1, 2, 0, 0, 0, 0), 10)
	b := mkJob(1, 20, resources.New(1, 2, 0, 0, 0, 0), 10)
	v := mkView(1, machine, a, b)
	sf := NewSlotFair()
	asgs := sf.Schedule(v)
	// 32 GB / 2 GB slots = 16 slots; every task takes 1 slot.
	if len(asgs) != 16 {
		t.Fatalf("assigned %d, want 16", len(asgs))
	}
	count := map[int]int{}
	for _, x := range asgs {
		count[x.Task.ID.Job]++
	}
	if count[0] != 8 || count[1] != 8 {
		t.Errorf("slot split = %v, want 8/8", count)
	}
}

func TestSlotFairIgnoresCPUAndIO(t *testing.T) {
	// Tasks demand 8 cores each: a slot scheduler will happily put 16 of
	// them (one per slot) onto a 16-core machine → CPU over-allocation.
	j := mkJob(0, 20, resources.New(8, 2, 0, 0, 500, 0), 10)
	v := mkView(1, machine, j)
	sf := NewSlotFair()
	asgs := sf.Schedule(v)
	if len(asgs) != 16 {
		t.Fatalf("assigned %d, want 16 (memory slots only)", len(asgs))
	}
	var cpu float64
	for _, a := range asgs {
		cpu += a.Task.Peak.Get(resources.CPU)
	}
	if cpu <= 16 {
		t.Error("test should create CPU over-subscription")
	}
	// The scheduler's ledger only charges memory.
	if asgs[0].Local.Get(resources.CPU) != 0 {
		t.Error("slot scheduler must not charge CPU")
	}
}

func TestSlotFairMultiSlotTasks(t *testing.T) {
	j := mkJob(0, 10, resources.New(1, 7, 0, 0, 0, 0), 10) // 7 GB → 4 slots
	v := mkView(1, machine, j)
	sf := NewSlotFair()
	asgs := sf.Schedule(v)
	if len(asgs) != 4 {
		t.Fatalf("assigned %d, want 4 (16 slots / 4 per task)", len(asgs))
	}
	if got := asgs[0].Local.Get(resources.Memory); got != 8 {
		t.Errorf("charged %v GB, want 8 (4 slots × 2 GB) — slot rounding is the fragmentation", got)
	}
}

func TestSlotFairLocality(t *testing.T) {
	j := mkJob(0, 1, resources.New(1, 2, 0, 0, 0, 0), 10)
	j.Job.Stages[0].Tasks[0].Inputs = []workload.InputBlock{{Machine: 2, SizeMB: 100}}
	v := mkView(3, machine, j)
	sf := NewSlotFair()
	asgs := sf.Schedule(v)
	if len(asgs) != 1 || asgs[0].Machine != 2 {
		t.Errorf("task placed on %v, want local machine 2", asgs)
	}
}

// --- DRF ---------------------------------------------------------------

func TestDRFEqualizesDominantShares(t *testing.T) {
	// Job 0 memory-heavy, job 1 CPU-heavy: DRF should equalize dominant
	// shares like the paper's Figure 1 walkthrough.
	memJob := mkJob(0, 100, resources.New(1, 4, 0, 0, 0, 0), 10)
	cpuJob := mkJob(1, 100, resources.New(4, 1, 0, 0, 0, 0), 10)
	v := mkView(4, machine, memJob, cpuJob)
	drf := NewDRF()
	asgs := drf.Schedule(v)
	apply(v, asgs)
	shareMem := memJob.Alloc.Get(resources.Memory) / v.Total.Get(resources.Memory)
	shareCPU := cpuJob.Alloc.Get(resources.CPU) / v.Total.Get(resources.CPU)
	// Progressive filling: the job that ends up with the smaller dominant
	// share must be blocked — no machine can fit another of its tasks.
	// (Shares can legitimately diverge due to machine-level
	// fragmentation, which is one of the paper's observations.)
	blockedJob := cpuJob
	if shareMem < shareCPU {
		blockedJob = memJob
	}
	task := blockedJob.Job.Stages[0].Tasks[0]
	demand := drf.project(task.Peak)
	for _, m := range v.Machines {
		if demand.FitsIn(drf.project(m.FreeAllocated())) {
			t.Fatalf("job %d has the smaller share (%v vs %v) but still fits on machine %d — DRF stopped early",
				blockedJob.Job.ID, shareMem, shareCPU, m.ID)
		}
	}
	// Both jobs made substantial progress.
	if shareMem < 0.3 || shareCPU < 0.3 {
		t.Errorf("progressive filling left the cluster idle: mem %v cpu %v", shareMem, shareCPU)
	}
}

func TestDRFChecksOnlyCPUMem(t *testing.T) {
	// Network-hungry tasks: DRF places as many as CPU+mem allow,
	// over-allocating the NIC.
	j := mkJob(0, 30, resources.New(0.5, 1, 0, 0, 900, 0), 10)
	v := mkView(1, machine, j)
	drf := NewDRF()
	asgs := drf.Schedule(v)
	if len(asgs) < 30 {
		t.Fatalf("assigned %d, want all 30 (DRF ignores network)", len(asgs))
	}
	var net float64
	for _, a := range asgs {
		net += a.Task.Peak.Get(resources.NetIn)
	}
	if net <= 1000 {
		t.Error("test should over-subscribe the NIC")
	}
}

func TestDRFWithNetworkStopsAtNIC(t *testing.T) {
	j := mkJob(0, 30, resources.New(0.5, 1, 0, 0, 500, 0), 10)
	v := mkView(1, machine, j)
	drf := NewDRFWithNetwork()
	asgs := drf.Schedule(v)
	if len(asgs) != 2 {
		t.Fatalf("assigned %d, want 2 (2×500 = NIC)", len(asgs))
	}
}

func TestDRFRespectsMemory(t *testing.T) {
	j := mkJob(0, 10, resources.New(1, 12, 0, 0, 0, 0), 10)
	v := mkView(1, machine, j)
	asgs := NewDRF().Schedule(v)
	if len(asgs) != 2 {
		t.Fatalf("assigned %d, want 2 (2×12 ≤ 32 < 3×12)", len(asgs))
	}
}

func TestDRFLocality(t *testing.T) {
	j := mkJob(0, 1, resources.New(1, 1, 0, 0, 0, 0), 10)
	j.Job.Stages[0].Tasks[0].Inputs = []workload.InputBlock{{Machine: 1, SizeMB: 64}}
	v := mkView(3, machine, j)
	asgs := NewDRF().Schedule(v)
	if len(asgs) != 1 || asgs[0].Machine != 1 {
		t.Errorf("placement = %v, want machine 1", asgs)
	}
}

// --- cross-cutting -----------------------------------------------------

func TestSchedulersHandleEmptyView(t *testing.T) {
	v := mkView(2, machine)
	for _, s := range []Scheduler{NewTetris(DefaultTetrisConfig()), NewSlotFair(), NewDRF()} {
		if got := s.Schedule(v); len(got) != 0 {
			t.Errorf("%s scheduled %d tasks with no jobs", s.Name(), len(got))
		}
	}
}

func TestSchedulersAssignEachTaskOnce(t *testing.T) {
	jobs := []*JobState{
		mkJob(0, 30, resources.New(2, 3, 10, 10, 0, 0), 10),
		mkJob(1, 30, resources.New(1, 6, 5, 5, 0, 0), 10),
	}
	for _, s := range []Scheduler{NewTetris(DefaultTetrisConfig()), NewSlotFair(), NewDRF()} {
		v := mkView(4, machine,
			mkJob(0, 30, resources.New(2, 3, 10, 10, 0, 0), 10),
			mkJob(1, 30, resources.New(1, 6, 5, 5, 0, 0), 10))
		asgs := s.Schedule(v)
		seen := map[workload.TaskID]bool{}
		for _, a := range asgs {
			if seen[a.Task.ID] {
				t.Errorf("%s assigned %v twice", s.Name(), a.Task.ID)
			}
			seen[a.Task.ID] = true
		}
	}
	_ = jobs
}

func TestSchedulerNames(t *testing.T) {
	if NewTetris(DefaultTetrisConfig()).Name() != "tetris" ||
		NewSlotFair().Name() != "slot-fair" ||
		NewDRF().Name() != "drf" {
		t.Error("scheduler names wrong")
	}
}

func TestL2NormRatioScorer(t *testing.T) {
	cap := resources.New(10, 10, 10, 10, 10, 10)
	avail := resources.New(8, 8, 0, 0, 0, 0)
	small := resources.New(1, 1, 0, 0, 0, 0)
	big := resources.New(7, 7, 0, 0, 0, 0)
	sc := L2NormRatioScorer{}
	if sc.ScoreNorm(small.Normalize(cap), avail.Normalize(cap)) <= sc.ScoreNorm(big.Normalize(cap), avail.Normalize(cap)) {
		t.Error("l2-norm-ratio should prefer the task that bites least into scarce resources")
	}
}

func TestViewDemandOracle(t *testing.T) {
	j := mkJob(0, 1, resources.New(2, 2, 0, 0, 0, 0), 10)
	v := mkView(1, machine, j)
	task := j.Job.Stages[0].Tasks[0]
	// Without an oracle: true peaks.
	peak, dur := v.Demand(j, task)
	if peak != task.Peak || dur != task.PeakDuration() {
		t.Errorf("Demand without oracle = %v/%v", peak, dur)
	}
	if v.DemandPeak(j, task) != task.Peak {
		t.Error("DemandPeak without oracle")
	}
	// With an oracle.
	want := resources.New(3, 3, 0, 0, 0, 0)
	v.EstimateDemand = func(*JobState, *workload.Task) (resources.Vector, float64) { return want, 42 }
	peak, dur = v.Demand(j, task)
	if peak != want || dur != 42 {
		t.Errorf("Demand with oracle = %v/%v", peak, dur)
	}
	if v.DemandPeak(j, task) != want {
		t.Error("DemandPeak with oracle")
	}
}

func TestTetrisConfigAccessorAndDefaults(t *testing.T) {
	cfg := DefaultTetrisConfig()
	cfg.Scorer = nil // NewTetris must default it
	cfg.Barrier = 0  // and disable b=0 → 1
	tet := NewTetris(cfg)
	got := tet.cfg
	if got.Scorer == nil || got.Barrier != 1 {
		t.Errorf("config normalization: %+v", got)
	}
}

func TestSlotsOfZeroMemory(t *testing.T) {
	s := NewSlotFair()
	if s.slotsOf(0) != 1 {
		t.Error("zero-memory task should still occupy one slot")
	}
	if s.slotsOf(2.0) != 1 || s.slotsOf(2.1) != 2 {
		t.Error("slot rounding wrong")
	}
}
