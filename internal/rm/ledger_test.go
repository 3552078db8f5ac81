package rm

import (
	"bytes"
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
				_, stillLaunched := core.jobs[1].launched[x]
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
