package scheduler

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the Schedule hot path, over small/medium/large
// synthetic views. The Tetris rows have one sub-benchmark per side of the
// differential suite, so the core and its test-side oracle can be
// compared directly; DRF and slot-fair have one loop each, timed in the
// rows named fast:
//
//	go test ./internal/scheduler -bench 'Schedule' -benchmem
//
// scripts/benchgate compares two such runs and fails on regression.

type benchSize struct {
	name         string
	nMach, nJobs int
}

var benchSizes = []benchSize{
	{"small", 10, 4},
	{"medium", 40, 16},
	{"large", 160, 64},
}

// benchView builds a mid-flight cluster snapshot: a randomized world
// warmed up for a few rounds under a fixed scheduler so machines carry
// realistic partial allocations and jobs have tasks in varied states.
func benchView(sz benchSize, warm int) *View {
	rng := rand.New(rand.NewSource(int64(sz.nMach)*1000 + int64(sz.nJobs)))
	caps := genCaps(rng, sz.nMach)
	jobs := genJobs(rng, sz.nJobs, sz.nMach)
	arrive := make([]int, sz.nJobs)
	w := newEqWorld(newReferenceTetris(DefaultTetrisConfig()), jobs, caps, arrive, 1)
	for r := 0; r < warm; r++ {
		w.step(r, false, false)
	}
	v := &View{Time: float64(warm), Machines: w.machines, Total: w.total}
	for _, j := range w.jobs {
		if !j.Status.Finished() {
			v.Jobs = append(v.Jobs, j)
		}
	}
	return v
}

// benchSchedule times Schedule over v on a fresh scheduler.
func benchSchedule(b *testing.B, v *View, mk func() Scheduler) {
	t := mk()
	t.Schedule(v) // warm caches and scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Schedule(v)
	}
}

func BenchmarkTetrisSchedule(b *testing.B) {
	for _, sz := range benchSizes {
		v := benchView(sz, 3)
		labels, mks := tetrisCoreMakers(DefaultTetrisConfig())
		for i, mk := range mks {
			b.Run(fmt.Sprintf("%s/%s", sz.name, labels[i]), func(b *testing.B) {
				benchSchedule(b, v, mk)
			})
		}
	}
}

// backlogView builds the regime benchView's three warm-up rounds never
// reach — a saturated cluster under a deep backlog: 100 machines, 40 jobs
// with stages of 50–300 tasks, scheduled with no completions until a
// round places nothing. A Schedule call on it re-proves, machine by
// machine, that no head task fits anywhere: the cost the RM pays on every
// heartbeat round of a backlogged cluster (`rm-backlog`). With inputs,
// about half the tasks read blocks, so every machine's locality scan
// also feeds the core tasks that do not fit (`sim-fb`).
func backlogView(inputs bool) *View {
	_, v := backlogWorld(inputs)
	return v
}

// backlogWorld is backlogView's world, with the View of its last round.
func backlogWorld(inputs bool) (*eqWorld, *View) {
	const nMach, nJobs = 100, 40
	rng := rand.New(rand.NewSource(nMach*1000 + nJobs))
	caps := genCaps(rng, nMach)
	jobs := genDeepJobs(rng, nJobs, nMach, 50, 300, inputs)
	w := newEqWorld(newReferenceTetris(DefaultTetrisConfig()), jobs, caps, make([]int, nJobs), 1)
	for r := 0; ; r++ {
		v := w.view(r)
		asgs := w.sched.Schedule(v)
		if len(asgs) == 0 {
			return w, v
		}
		w.book(asgs)
	}
}

// benchBacklog measures one round over backlogView on the core, on its
// oracle, and on the core with a decision ring that samples every round,
// as tetris-cluster runs it.
func benchBacklog(b *testing.B, inputs bool) {
	v := backlogView(inputs)
	labels, mks := tetrisCoreMakers(DefaultTetrisConfig())
	for i, mk := range mks {
		b.Run(labels[i], func(b *testing.B) {
			benchSchedule(b, v, mk)
		})
	}
	b.Run("traced", func(b *testing.B) {
		benchSchedule(b, v, func() Scheduler {
			cfg := DefaultTetrisConfig()
			cfg.Trace = NewDecisionRing(256, 1)
			return NewTetris(cfg)
		})
	})
}

func BenchmarkTetrisScheduleBacklog(b *testing.B) { benchBacklog(b, false) }

// BenchmarkTetrisScheduleLocal is the backlog round with input blocks:
// most of its cost is locality-scan options that cannot fit.
func BenchmarkTetrisScheduleLocal(b *testing.B) { benchBacklog(b, true) }

// BenchmarkTetrisScheduleDepart is the backlog round with input blocks
// in which one job of the 40 departs: what a round pays to sweep a job
// out of the long-lived state (evictDeparted) on top of the round
// itself. The job comes back in an untimed round before each timed one.
func BenchmarkTetrisScheduleDepart(b *testing.B) {
	full := backlogView(true)
	less := *full
	less.Jobs = full.Jobs[1:]
	labels, mks := tetrisCoreMakers(DefaultTetrisConfig())
	for i, mk := range mks {
		b.Run(labels[i], func(b *testing.B) {
			t := mk()
			t.Schedule(full)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				t.Schedule(full)
				b.StartTimer()
				t.Schedule(&less)
			}
		})
	}
}

// BenchmarkTetrisScheduleChurn is the backlog round that places, the
// regime of rm-backlog, where each heartbeat frees a node: before each
// timed round the tasks of one machine, in machine order, complete and
// go back to the backlog (Requeue), so the round places what fits on the
// freed machine while the backlog stays as deep as any b.N needs. The
// Backlog, Local and Depart rows place nothing; this one times the taken
// marks, the retired cache entries and the round's output.
func BenchmarkTetrisScheduleChurn(b *testing.B) {
	labels, mks := tetrisCoreMakers(DefaultTetrisConfig())
	for i, mk := range mks {
		b.Run(labels[i], func(b *testing.B) {
			w, v := backlogWorld(false)
			w.sched = mk()
			asgs := w.sched.Schedule(v) // warm caches and scratch
			placed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w.book(asgs)
				w.requeueOn(i % len(w.machines))
				b.StartTimer()
				asgs = w.sched.Schedule(v)
				placed += len(asgs)
			}
			b.ReportMetric(float64(placed)/float64(b.N), "placed/op")
		})
	}
}

// requeueOn releases the tasks running on machine mid and returns them
// to the backlog, as if each had completed and been submitted again.
func (w *eqWorld) requeueOn(mid int) {
	alive := w.placed[:0]
	for _, p := range w.placed {
		if p.mach == mid {
			w.release(p)
			p.j.Status.Requeue(p.task.ID)
		} else {
			alive = append(alive, p)
		}
	}
	w.placed = alive
}

func BenchmarkDRFSchedule(b *testing.B) {
	benchBaseline(b, func() Scheduler { return NewDRF() })
}

func BenchmarkSlotFairSchedule(b *testing.B) {
	benchBaseline(b, func() Scheduler { return NewSlotFair() })
}

// benchBaseline times a baseline's Schedule over each benchView size. The
// rows keep the name fast they had beside the oracles, so a bench gate
// still pairs them with older runs.
func benchBaseline(b *testing.B, mk func() Scheduler) {
	for _, sz := range benchSizes {
		v := benchView(sz, 3)
		b.Run(sz.name+"/fast", func(b *testing.B) {
			benchSchedule(b, v, mk)
		})
	}
}
