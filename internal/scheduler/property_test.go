package scheduler

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// TestRandomizedSchedulingInvariants drives every scheduler over many
// random cluster/job configurations and checks the universal invariants:
// each task assigned at most once, assignments reference valid machines,
// Tetris never over-allocates its ledger, and memory charges cover task
// peaks for every policy.
func TestRandomizedSchedulingInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nMach, capVec, jobs, cfg := randomWorld(r, 1)
		v := mkView(nMach, capVec)
		for _, j := range jobs {
			v.Jobs = append(v.Jobs, &JobState{Job: j, Status: workload.NewStatus(j)})
		}
		for _, sch := range []Scheduler{NewTetris(cfg), NewSlotFair(), NewDRF()} {
			asgs := sch.Schedule(v)
			seen := map[workload.TaskID]bool{}
			perMachine := make([]resources.Vector, nMach)
			for _, a := range asgs {
				if a.Machine < 0 || a.Machine >= nMach {
					t.Fatalf("trial %d %s: machine %d out of range", trial, sch.Name(), a.Machine)
				}
				if seen[a.Task.ID] {
					t.Fatalf("trial %d %s: task %v assigned twice", trial, sch.Name(), a.Task.ID)
				}
				seen[a.Task.ID] = true
				if !a.Local.NonNegative() {
					t.Fatalf("trial %d %s: negative local charge %v", trial, sch.Name(), a.Local)
				}
				perMachine[a.Machine] = perMachine[a.Machine].Add(a.Local)
				for _, rc := range a.Remote {
					perMachine[rc.Machine] = perMachine[rc.Machine].Add(rc.Charge)
				}
				// Every policy must charge at least the task's memory
				// (that is what keeps physical memory safe).
				if a.Local.Get(resources.Memory) < a.Task.Peak.Get(resources.Memory)-1e-9 {
					t.Fatalf("trial %d %s: memory charge %v below task peak %v",
						trial, sch.Name(), a.Local.Get(resources.Memory), a.Task.Peak.Get(resources.Memory))
				}
			}
			// Tetris's full multi-resource ledger never exceeds capacity.
			if sch.Name() == "tetris" {
				for m := 0; m < nMach; m++ {
					if !perMachine[m].FitsIn(capVec) {
						t.Fatalf("trial %d tetris: machine %d over-allocated: %v > %v",
							trial, m, perMachine[m], capVec)
					}
				}
			}
			// Memory specifically never exceeds capacity for anyone.
			for m := 0; m < nMach; m++ {
				if perMachine[m].Get(resources.Memory) > capVec.Get(resources.Memory)+1e-9 {
					t.Fatalf("trial %d %s: machine %d memory over-committed", trial, sch.Name(), m)
				}
			}
		}
	}
}

// randomWorld draws one cluster, its jobs and a Tetris configuration for
// TestRandomizedSchedulingInvariants: 1–6 equal machines and 1–5
// one-stage jobs of 1–30 tasks, half of which read one input block.
// Every machine's memory capacity and every task's memory peak are
// multiplied by memScale after the draws, so worlds drawn from equal
// seeds differ only in the unit memory is counted in.
func randomWorld(r *rand.Rand, memScale float64) (int, resources.Vector, []*workload.Job, TetrisConfig) {
	nMach := 1 + r.Intn(6)
	capVec := resources.New(
		float64(4+r.Intn(29)), float64(8+r.Intn(57)),
		float64(50+r.Intn(351)), float64(50+r.Intn(351)),
		float64(100+r.Intn(9901)), float64(100+r.Intn(9901)))
	capVec[resources.Memory] *= memScale
	var jobs []*workload.Job
	nJobs := 1 + r.Intn(5)
	for jid := 0; jid < nJobs; jid++ {
		j := &workload.Job{ID: jid, Weight: 1}
		st := &workload.Stage{Name: "s"}
		nTasks := 1 + r.Intn(30)
		for i := 0; i < nTasks; i++ {
			peak := resources.New(
				0.1+r.Float64()*8, 0.1+r.Float64()*8,
				r.Float64()*100, r.Float64()*100,
				r.Float64()*500, r.Float64()*200)
			peak[resources.Memory] *= memScale
			task := &workload.Task{
				ID:   workload.TaskID{Job: jid, Stage: 0, Index: i},
				Peak: peak,
				Work: workload.Work{CPUSeconds: 1 + r.Float64()*100},
			}
			if r.Float64() < 0.5 {
				task.Inputs = []workload.InputBlock{{Machine: r.Intn(nMach), SizeMB: 10 + r.Float64()*1000}}
			}
			st.Tasks = append(st.Tasks, task)
		}
		j.Stages = []*workload.Stage{st}
		jobs = append(jobs, j)
	}
	cfg := DefaultTetrisConfig()
	cfg.Fairness = []float64{0, 0.25, 0.5, 0.9}[r.Intn(4)]
	cfg.Barrier = []float64{0.8, 0.9, 1}[r.Intn(3)]
	return nMach, capVec, jobs, cfg
}

// TestUnitScalingInvariance holds Tetris to §3.2's rule that units never
// decide: with memory counted in units k times smaller (every machine's
// memory capacity and every task's memory peak times k), every round
// places the same tasks on the same machines in the same order. k is a
// power of two, so the scaled arithmetic is exact. DRF is not held to it
// yet: it ranks machines by the plain sum of their free resources, which
// adds cores to memory, and places differently on 219 of these 400 seeds
// at either k; it joins once that rank is unit-free. Slot-fair is unit-bound by
// design: a slot is 2 GB of memory.
func TestUnitScalingInvariance(t *testing.T) {
	for _, k := range []float64{1024, 1 << 30} {
		for seed := int64(0); seed < 400; seed++ {
			var worlds [2]*eqWorld
			for i, scale := range []float64{1, k} {
				nMach, capVec, jobs, cfg := randomWorld(rand.New(rand.NewSource(seed)), scale)
				caps := make([]resources.Vector, nMach)
				for m := range caps {
					caps[m] = capVec
				}
				worlds[i] = newEqWorld(NewTetris(cfg), jobs, caps, make([]int, len(jobs)), seed)
			}
			for round := 0; round < 4; round++ {
				a := worlds[0].step(round, false, false)
				b := worlds[1].step(round, false, false)
				if len(a) != len(b) {
					t.Fatalf("k=%g seed=%d round=%d: %d vs %d placements", k, seed, round, len(a), len(b))
				}
				for i := range a {
					if a[i].Task.ID != b[i].Task.ID || a[i].Machine != b[i].Machine {
						t.Fatalf("k=%g seed=%d round=%d placement %d: %v on %d vs %v on %d",
							k, seed, round, i, a[i].Task.ID, a[i].Machine, b[i].Task.ID, b[i].Machine)
					}
				}
			}
		}
	}
}

// churnJobs generates a deterministic job set for one churn trial (fresh
// per scheduler, since scheduling mutates Status).
func churnJobs(seed int64, nMach int) []*JobState {
	r := rand.New(rand.NewSource(seed))
	var jobs []*JobState
	nJobs := 1 + r.Intn(3)
	for jid := 0; jid < nJobs; jid++ {
		j := &workload.Job{ID: jid, Weight: 1}
		st := &workload.Stage{Name: "s"}
		nTasks := 5 + r.Intn(20)
		for i := 0; i < nTasks; i++ {
			task := &workload.Task{
				ID: workload.TaskID{Job: jid, Stage: 0, Index: i},
				Peak: resources.New(0.5+r.Float64()*4, 1+r.Float64()*8,
					5+r.Float64()*40, 5+r.Float64()*40,
					20+r.Float64()*200, 20+r.Float64()*200),
				Work: workload.Work{CPUSeconds: 1 + r.Float64()*50},
			}
			if r.Float64() < 0.3 {
				task.Inputs = []workload.InputBlock{{Machine: r.Intn(nMach), SizeMB: 10 + r.Float64()*500}}
			}
			st.Tasks = append(st.Tasks, task)
		}
		j.Stages = []*workload.Stage{st}
		jobs = append(jobs, &JobState{Job: j, Status: workload.NewStatus(j)})
	}
	return jobs
}

// TestMachineChurnInvariants drives every scheduler through rounds of
// random machine crashes and recoveries, mirroring the executors' crash
// handling (a dead machine's tasks return to pending and its ledger is
// zeroed). After every round: no new placement — local or remote charge —
// lands on a Down machine, live machines never over-commit memory, and
// Tetris's full multi-resource ledger stays within capacity.
func TestMachineChurnInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	capVec := resources.New(16, 32, 200, 200, 1000, 1000)
	type placed struct {
		id      workload.TaskID
		machine int
		local   resources.Vector
		remote  []RemoteCharge
		job     *JobState
	}
	for trial := 0; trial < 25; trial++ {
		nMach := 2 + r.Intn(5)
		for _, sch := range []Scheduler{NewTetris(DefaultTetrisConfig()), NewSlotFair(), NewDRF()} {
			jobs := churnJobs(int64(trial), nMach)
			v := mkView(nMach, capVec, jobs...)
			var running []placed
			for round := 0; round < 6; round++ {
				// Churn: flip each machine with probability 0.3.
				for _, m := range v.Machines {
					if r.Float64() < 0.3 {
						m.Down = !m.Down
					}
				}
				// Crash handling, as the sim and RM do it: a Down machine's
				// tasks go back to pending and its ledger is reclaimed.
				kept := running[:0]
				for _, p := range running {
					if v.Machines[p.machine].Down {
						p.job.Status.MarkFailed(p.id)
						p.job.Alloc = p.job.Alloc.Sub(p.local).Max(resources.Vector{})
						for _, rc := range p.remote {
							if !v.Machines[rc.Machine].Down {
								v.Machines[rc.Machine].Allocated =
									v.Machines[rc.Machine].Allocated.Sub(rc.Charge).Max(resources.Vector{})
							}
						}
					} else {
						kept = append(kept, p)
					}
				}
				running = kept
				for _, m := range v.Machines {
					if m.Down {
						m.Allocated = resources.Vector{}
					}
				}

				for _, a := range sch.Schedule(v) {
					if v.Machines[a.Machine].Down {
						t.Fatalf("trial %d round %d %s: task %v placed on dead machine %d",
							trial, round, sch.Name(), a.Task.ID, a.Machine)
					}
					for _, rc := range a.Remote {
						if v.Machines[rc.Machine].Down {
							t.Fatalf("trial %d round %d %s: remote charge for %v on dead machine %d",
								trial, round, sch.Name(), a.Task.ID, rc.Machine)
						}
					}
					js := jobs[a.Task.ID.Job]
					js.Status.MarkRunning(a.Task.ID)
					js.Alloc = js.Alloc.Add(a.Local)
					v.Machines[a.Machine].Allocated = v.Machines[a.Machine].Allocated.Add(a.Local)
					for _, rc := range a.Remote {
						v.Machines[rc.Machine].Allocated = v.Machines[rc.Machine].Allocated.Add(rc.Charge)
					}
					running = append(running, placed{a.Task.ID, a.Machine, a.Local, slices.Clone(a.Remote), js}) // Remote is valid until the next round
				}

				for _, m := range v.Machines {
					if m.Down {
						continue
					}
					if m.Allocated.Get(resources.Memory) > capVec.Get(resources.Memory)+1e-9 {
						t.Fatalf("trial %d round %d %s: machine %d memory over-committed: %v",
							trial, round, sch.Name(), m.ID, m.Allocated)
					}
					if sch.Name() == "tetris" && !m.Allocated.FitsIn(capVec) {
						t.Fatalf("trial %d round %d tetris: machine %d over-allocated: %v > %v",
							trial, round, m.ID, m.Allocated, capVec)
					}
				}

				// Complete some running tasks to open space for the next round.
				kept = running[:0]
				for _, p := range running {
					if r.Float64() < 0.4 {
						p.job.Status.MarkDone(p.id)
						p.job.Alloc = p.job.Alloc.Sub(p.local).Max(resources.Vector{})
						v.Machines[p.machine].Allocated =
							v.Machines[p.machine].Allocated.Sub(p.local).Max(resources.Vector{})
						for _, rc := range p.remote {
							v.Machines[rc.Machine].Allocated =
								v.Machines[rc.Machine].Allocated.Sub(rc.Charge).Max(resources.Vector{})
						}
					} else {
						kept = append(kept, p)
					}
				}
				running = kept
			}
		}
	}
}
