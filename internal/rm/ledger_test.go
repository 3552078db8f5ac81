package rm

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// script is a policy that places exactly what the test queued.
type script struct{ queue []scheduler.Assignment }

func (p *script) Name() string { return "script" }

func (p *script) Schedule(*scheduler.View) []scheduler.Assignment {
	out := p.queue
	p.queue = nil
	return out
}

// TestReleaseCauses drives each way a launch leaves the shard ledger —
// completion, node death, abandonment at MaxTaskAttempts, loss at resync
// and gang preemption — once while the source of the launch's remote
// charge stays up and once after it died and rejoined (so the charge is
// stale, and the source holds a newer one it must keep). Every machine's
// Allocated must equal, bit for bit, the charges replayed by hand in the
// ledger's order; VerifyLedger must hold; and a journal replay must
// reproduce the state digest.
//
// Mutations it kills: the epoch check dropped (every cause, source
// rejoined: B loses the newer charge), the remote release skipped (every
// cause, source up), the local release skipped (completion, abandonment,
// loss, preemption: A keeps lx; a death zeroes A anyway), and applyDead
// not zeroing Allocated, the zero reviveNode relies on (every cause,
// source rejoined: B keeps rx).
func TestReleaseCauses(t *testing.T) {
	const a, b, c = 0, 1, 2 // X runs on a, reads from b; job 1's other task runs on c
	capV := resources.New(16.3, 32.7, 200.1, 200.3, 1000.7, 999.9)
	lx := resources.New(1.1, 2.3, 0.7, 0, 0.3, 0)   // X's local charge
	rx := resources.New(0, 0, 0.1, 0, 0, 0.7)       // X's remote charge on b
	lt := resources.New(2.1, 4.3, 0, 0, 0, 0)       // job 1's other task, on c
	lu := resources.New(1.3, 2.9, 0.2, 0, 0.1, 0.3) // job 2's task, on b after X launched
	var zero resources.Vector
	x := workload.TaskID{Job: 1, Stage: 0, Index: 0}

	cases := []struct {
		name        string
		maxAttempts int
		release     func(t *testing.T, g *Sharded)
	}{
		{"completion", 0, func(t *testing.T, g *Sharded) {
			g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: a, Completed: []wire.TaskCompletion{{Task: x, Duration: 1}}})
		}},
		{"node death", 0, func(t *testing.T, g *Sharded) { killNode(g, a) }},
		{"abandonment", 1, func(t *testing.T, g *Sharded) { killNode(g, c) }},
		{"lost at resync", 0, func(t *testing.T, g *Sharded) {
			if r, _ := g.Call(&wire.Message{Type: wire.TypeRegisterNM, RegisterNM: &wire.RegisterNM{NodeID: a, Capacity: capV}}); r.Type == wire.TypeError {
				t.Fatal(r.Error)
			}
		}},
		{"gang preemption", 0, func(t *testing.T, g *Sharded) {
			s := g.Shard(0)
			s.mu.Lock()
			defer s.mu.Unlock()
			s.applyGangDecision(&gang.Decision{Preempted: []workload.TaskID{x}}, s.now())
		}},
	}
	for _, tc := range cases {
		for _, sourceDied := range []bool{false, true} {
			name := tc.name + "/source up"
			if sourceDied {
				name = tc.name + "/source rejoined"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := ShardedConfig{
					Shards:          1,
					NewScheduler:    func() scheduler.Scheduler { return &script{} },
					NodeTimeout:     time.Hour,
					MaxTaskAttempts: tc.maxAttempts,
					JournalDir:      dir,
				}
				g, err := NewShardedInProcess(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				core := g.Shard(0)
				place := func(node int, asgs ...scheduler.Assignment) {
					t.Helper()
					core.mu.Lock()
					core.sched.(*script).queue = asgs
					core.mu.Unlock()
					r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: node})
					if r.Type == wire.TypeError || len(r.NMReply.Launch) == 0 {
						t.Fatalf("node %d placed nothing: %+v", node, r)
					}
				}
				for id := a; id <= c; id++ {
					g.RegisterMachine(id, capV)
				}
				job1, job2 := simpleJob(1, 2), simpleJob(2, 1)
				if err := g.SubmitJob(job1); err != nil {
					t.Fatal(err)
				}
				place(a,
					scheduler.Assignment{Task: job1.Stages[0].Tasks[0], Machine: a, Local: lx,
						Remote: []scheduler.RemoteCharge{{Machine: b, Charge: rx}}},
					scheduler.Assignment{Task: job1.Stages[0].Tasks[1], Machine: c, Local: lt})
				g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: c}) // delivers job 1's other task
				wantB := zero.Add(rx)
				if sourceDied {
					killNode(g, b)
					g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: b}) // revives b
					wantB = zero
				}
				if err := g.SubmitJob(job2); err != nil {
					t.Fatal(err)
				}
				place(b, scheduler.Assignment{Task: job2.Stages[0].Tasks[0], Machine: b, Local: lu})
				wantB = wantB.Add(lu)

				tc.release(t, g)

				wantA, wantC := zero.Add(lx).Sub(lx).Max(zero), zero.Add(lt)
				if tc.name == "node death" {
					wantA = zero
				}
				if tc.name == "abandonment" {
					wantC = zero
				}
				if !sourceDied {
					wantB = wantB.Sub(rx).Max(zero)
				}
				core.mu.Lock()
				stillLaunched := core.jobs[1].launch(x) != nil
				got := []resources.Vector{core.nodes[a].Allocated, core.nodes[b].Allocated, core.nodes[c].Allocated}
				core.mu.Unlock()
				if stillLaunched {
					t.Fatal("X is still launched")
				}
				for id, want := range []resources.Vector{wantA, wantB, wantC} {
					if !got[id].SameBits(want) {
						t.Errorf("machine %d allocated %v, want %v", id, got[id], want)
					}
				}
				if err := g.VerifyLedger(); err != nil {
					t.Error(err)
				}

				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
				live := core.StateDigest()
				g2, err := NewShardedInProcess(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer g2.Close()
				if got := g2.Shard(0).RecoveredDigest(); !bytes.Equal(got, live) {
					t.Errorf("replay diverges:\n live: %s\n replayed: %s", live, got)
				}
			})
		}
	}
}

// recorder places what Tetris places and keeps a deep copy of each
// placing round's assignments.
type recorder struct {
	scheduler.Scheduler
	rounds [][]scheduler.Assignment
}

func (p *recorder) Schedule(v *scheduler.View) []scheduler.Assignment {
	asgs := p.Scheduler.Schedule(v)
	if len(asgs) > 0 {
		round := slices.Clone(asgs)
		for i := range round {
			round[i].Remote = slices.Clone(round[i].Remote)
		}
		p.rounds = append(p.rounds, round)
	}
	return asgs
}

// TestQueuedLaunchesOutliveTheirRound: a round's launches wait in their
// node's queue until the node's next heartbeat, and their charges stay on
// the ledger for the attempt's life, while the core reuses its output
// slice and refills per-machine charge buffers. Once a later round has
// run, the launches queued for a node and every launch's ledger charges
// must still be what the earlier round decided.
func TestQueuedLaunchesOutliveTheirRound(t *testing.T) {
	rec := &recorder{Scheduler: tetrisScheduler()}
	g := newVirtualSharded(t, ShardedConfig{Shards: 1, NewScheduler: func() scheduler.Scheduler { return rec }}, new(virtualClock))
	for id := 0; id < 3; id++ {
		g.RegisterMachine(id, resources.New(16, 32, 200, 200, 1000, 1000))
	}
	// Each task reads one block on machine 1 and one on machine 2: placed
	// on either, it reads partly locally, partly remotely.
	job := func(id int) *workload.Job {
		j := simpleJob(id, 6)
		for _, task := range j.Stages[0].Tasks {
			task.Peak = resources.New(2, 4, 20, 10, 50, 0)
			task.Inputs = []workload.InputBlock{{Machine: 1, SizeMB: 100}, {Machine: 2, SizeMB: 100}}
		}
		return j
	}
	for id := 1; id <= 2; id++ {
		if err := g.SubmitJob(job(id)); err != nil {
			t.Fatal(err)
		}
		if r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0}); r.Type == wire.TypeError {
			t.Fatal(r.Error)
		}
	}
	if len(rec.rounds) != 2 {
		t.Fatalf("%d rounds placed, want 2", len(rec.rounds))
	}
	core := g.Shard(0)
	core.mu.Lock()
	defer core.mu.Unlock()
	queued := map[int][]wire.TaskLaunch{}
	partial := 0
	for _, round := range rec.rounds {
		for _, a := range round {
			lr := core.jobs[a.Task.ID.Job].launch(a.Task.ID)
			if lr == nil {
				t.Fatalf("task %v: no launch in the ledger", a.Task.ID)
			}
			if lr.machine != a.Machine || !lr.local.SameBits(a.Local) || len(lr.remote) != len(a.Remote) {
				t.Fatalf("task %v: ledger holds machine %d, local %v, %d charges; the round decided %d, %v, %d",
					a.Task.ID, lr.machine, lr.local, len(lr.remote), a.Machine, a.Local, len(a.Remote))
			}
			for k, rc := range a.Remote {
				if lr.remote[k].machine != rc.Machine || !lr.remote[k].charge.SameBits(rc.Charge) {
					t.Fatalf("task %v charge %d: ledger holds %d/%v, the round decided %d/%v",
						a.Task.ID, k, lr.remote[k].machine, lr.remote[k].charge, rc.Machine, rc.Charge)
				}
			}
			if a.Machine != 0 { // node 0's launches went out with its beats
				queued[a.Machine] = append(queued[a.Machine], wire.TaskLaunch{Task: a.Task.ID, Demand: a.Task.Peak, Duration: a.Task.PeakDuration()})
			}
			if a.Remote != nil && a.Task.HasLocalAffinity(a.Machine) {
				partial++
			}
		}
	}
	if partial == 0 || len(queued[1])+len(queued[2]) == 0 {
		t.Fatalf("vacuous run: %d placements read input both locally and remotely, %d launches queued", partial, len(queued[1])+len(queued[2]))
	}
	for id := 1; id <= 2; id++ {
		if got := core.nodes[id].launches; !reflect.DeepEqual(got, queued[id]) {
			t.Errorf("node %d has queued %+v, the rounds decided %+v", id, got, queued[id])
		}
	}
}

// TestLedgerIgnoresTasksOutsideTheJob: the launch ledger is indexed by
// stage and task index, so a completion or a registration's running
// entry naming a stage or index outside its job, or a task of a job that
// finished and dropped its ledger, is ignored (an orphan to kill, for a
// registration) as any task without a launch, never indexed out of
// range.
func TestLedgerIgnoresTasksOutsideTheJob(t *testing.T) {
	g, err := NewShardedInProcess(ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	g.RegisterMachine(0, capV)
	for _, j := range []*workload.Job{simpleJob(0, 3), simpleJob(1, 1)} {
		if err := g.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	if r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0}); r.Type == wire.TypeError || len(r.NMReply.Launch) != 4 {
		t.Fatalf("first beat: %+v, want 4 launches", r)
	}
	done := wire.TaskCompletion{Task: workload.TaskID{Job: 1}, Duration: 1}
	if r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: []wire.TaskCompletion{done}}); r.Type == wire.TypeError {
		t.Fatal(r.Error)
	}
	outside := []workload.TaskID{
		{Job: 0, Stage: -1}, {Job: 0, Index: -1}, {Job: 0, Index: 3}, {Job: 0, Stage: 1},
		{Job: 1, Index: 0}, // completed: job 1 finished and dropped its ledger
	}
	var cs []wire.TaskCompletion
	for _, tid := range outside {
		cs = append(cs, wire.TaskCompletion{Task: tid, Duration: 1})
	}
	if r := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Completed: cs}); r.Type == wire.TypeError {
		t.Fatal(r.Error)
	}
	core := g.Shard(0)
	core.mu.Lock()
	doneTasks, launches := core.jobs[0].state.Status.DoneTasks(), len(launchedIDs(core.jobs[0], -1))
	core.mu.Unlock()
	if doneTasks != 0 || launches != 3 {
		t.Fatalf("job 0: %d done, %d launched after completions outside it; want 0 and 3", doneTasks, launches)
	}
	running := append([]workload.TaskID{{Job: 0, Index: 0}, {Job: 0, Index: 1}, {Job: 0, Index: 2}}, outside...)
	reply, _ := g.Call(&wire.Message{Type: wire.TypeRegisterNM, RegisterNM: &wire.RegisterNM{NodeID: 0, Capacity: capV, Running: running}})
	if reply.Type != wire.TypeNMReply {
		t.Fatalf("re-registration: %+v", reply)
	}
	want := slices.Clone(outside)
	slices.SortFunc(want, func(a, b workload.TaskID) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	if !reflect.DeepEqual(reply.NMReply.Kill, want) {
		t.Errorf("re-registration kills %v, want the orphans %v", reply.NMReply.Kill, want)
	}
	if err := g.VerifyLedger(); err != nil {
		t.Error(err)
	}
}
