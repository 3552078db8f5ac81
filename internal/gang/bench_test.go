package gang

import (
	"testing"

	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/workload"
)

// benchWorld is a 64-machine cluster under 32 preemptible priority-0
// filler jobs of eight (4 cores, 8 GB) tasks each: four of every job run,
// three to a machine on machines 0–31 and one to a machine on 32–63, and
// four wait. With gang set, a priority-5 gang of 40 (8 cores, 16 GB)
// members waits beside them: only machines 32–63 fit a member, so 32 of
// 40 place and the rest of the quorum is short.
func benchWorld(gang bool) (*scheduler.View, []Running) {
	v := mkView(64, machine)
	var running []Running
	small := resources.New(4, 8, 0, 0, 0, 0)
	for id := 1; id <= 32; id++ {
		j := mkJob(id, 8, small, 50)
		j.Job.Preemptible = true
		for i := 0; i < 4; i++ {
			k := len(running)
			m := 32 + k - 96
			if k < 96 {
				m = k / 3
			}
			tid := workload.TaskID{Job: id, Stage: 0, Index: i}
			j.Status.MarkRunning(tid)
			j.Alloc = j.Alloc.Add(small)
			v.Machines[m].Allocated = v.Machines[m].Allocated.Add(small)
			running = append(running, Running{Task: tid, Job: j.Job, Demand: small})
		}
		v.Jobs = append(v.Jobs, j)
	}
	if gang {
		v.Jobs = append(v.Jobs, mkGang(100, 40, 0, 5, resources.New(8, 16, 0, 0, 0, 0), 100))
	}
	for _, m := range v.Machines {
		m.Reported = m.Allocated
	}
	return v, running
}

// idleWorld is benchWorld with no gang job and a starved whole-machine
// task (one that cannot fit yet) holding machine 0 in res.
func idleWorld(res *reserve.Table) (*scheduler.View, []Running) {
	v, running := benchWorld(false)
	starved := mkJob(50, 1, resources.New(16, 32, 0, 0, 0, 0), 100)
	v.Jobs = append(v.Jobs, starved)
	res.Put(0, reserve.Reservation{Kind: reserve.Starved, Holder: 50, Task: starved.Job.Stages[0].Tasks[0]})
	return v, running
}

// BenchmarkGangDecide times one coordinator round over a Tetris core on
// benchWorld. The View never changes, so every round decides the same:
//
//   - bare: the Tetris round alone on the idle world, without the
//     coordinator — what idle costs beyond it is the coordinator's;
//   - idle: no gang job, and a starvation reservation in the shared
//     table (idleWorld);
//   - hoarding: the gang holds its 32 partial placements at a fixed time;
//   - preempting: the clock moves one PreemptSec a round, so every round
//     also evicts a wave of eight filler tasks.
func BenchmarkGangDecide(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		tet := newTetris()
		v, _ := idleWorld(tet.Reservations())
		tet.Schedule(v)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tet.Schedule(v)
		}
	})
	b.Run("idle", func(b *testing.B) {
		c := newCoord(Config{})
		v, running := idleWorld(c.res)
		benchDecide(b, c, v, running, 0, 0, 0)
	})
	b.Run("hoarding", func(b *testing.B) {
		v, running := benchWorld(true)
		benchDecide(b, newCoord(Config{HoldSec: 1e12, PreemptSec: 1e12}), v, running, 0, 32, 0)
	})
	b.Run("preempting", func(b *testing.B) {
		v, running := benchWorld(true)
		benchDecide(b, newCoord(Config{HoldSec: 1e12, PreemptSec: 1}), v, running, 1, 32, maxPreemptPerRound)
	})
}

// benchDecide runs two untimed rounds, checks that the second hoards
// held machines and preempts preempted tasks, then times b.N rounds,
// moving the View's clock by step before each round.
func benchDecide(b *testing.B, c *Coordinator, v *scheduler.View, running []Running, step float64, held, preempted int) {
	run := listed(running)
	c.Decide(v, run)
	v.Time += step
	if dec := c.Decide(v, run); len(hoard(c, 100)) != held || len(dec.Preempted) != preempted {
		b.Fatalf("round holds %d machines and preempts %d tasks, want %d and %d",
			len(hoard(c, 100)), len(dec.Preempted), held, preempted)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Time += step
		c.Decide(v, run)
	}
}
