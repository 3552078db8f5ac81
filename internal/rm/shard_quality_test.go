package rm

// Cross-shard quality harness: replay the SAME seeded workload through
// a bare shard core, the 1-shard front door (the oracle, which must
// match the bare core decision-for-decision: the top layer adds no
// decision), and 2-/4-shard configurations, on a virtual clock, and
// measure what partitioning costs. Tetris-style packing is robust to placement partitioning
// (Shafiee & Ghaderi), but the loss is a property to measure, not
// assume — this harness computes packing efficiency and completion
// times per configuration and pins bounds; EXPERIMENTS.md records the
// measured numbers.
//
// Determinism notes: scheduling consults wall time only through the
// starvation logic, so the harness scheduler factory sets StarvationSec
// enormous; completions carry virtual durations, so estimator state
// (disabled here anyway) cannot smuggle wall time in; the router sees
// identical ledger states on identical call sequences.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// qualityRM is the handler surface shared by bareCore and *Sharded that
// the replay drives.
type qualityRM interface {
	RegisterMachine(id int, capacity resources.Vector)
	SubmitJob(j *workload.Job) error
	HandleNMHeartbeat(hb *wire.NMHeartbeat) *wire.Message
}

// bareCore drives one shard core with nothing in front of it: no
// validation, admission or routing between the replay and the state
// machine.
type bareCore struct{ *Server }

func (c bareCore) SubmitJob(j *workload.Job) error { return replyErr(c.submit(j, "", false)) }

func (c bareCore) HandleNMHeartbeat(hb *wire.NMHeartbeat) *wire.Message {
	out := make([]wire.NMBeatReply, 1)
	c.handleBeats([]wire.NMHeartbeat{*hb}, []int{0}, out)
	if out[0].Error != "" {
		return errMsg(out[0].Error)
	}
	return &wire.Message{Type: wire.TypeNMReply, NMReply: &out[0].Reply}
}

// qualityScheduler is the shard-core factory used for every
// configuration under test: the default Tetris core with starvation
// reservations disabled-by-horizon so wall time cannot perturb replays.
func qualityScheduler() scheduler.Scheduler {
	cfg := scheduler.DefaultTetrisConfig()
	cfg.StarvationSec = 1e9
	return scheduler.NewTetris(cfg)
}

// qualityWorkload is a seeded job mix with varied task shapes (CPU-,
// memory- and disk-leaning) and staggered arrivals.
type qualityWorkload struct {
	nodes    int
	capacity resources.Vector
	jobs     []*workload.Job
	arrival  []int // submit round per job
}

func makeQualityWorkload(seed int64, nodes, jobs int) qualityWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := qualityWorkload{
		nodes:    nodes,
		capacity: resources.New(16, 32, 200, 200, 1000, 1000),
	}
	for id := 0; id < jobs; id++ {
		j := &workload.Job{ID: id, Weight: 1}
		st := &workload.Stage{Name: "s"}
		// Each job leans toward one resource so alignment has shapes to
		// complement: cpu-heavy, memory-heavy, or disk-heavy.
		kind := rng.Intn(3)
		n := 6 + rng.Intn(10)
		for i := 0; i < n; i++ {
			cpu := 1 + float64(rng.Intn(3))
			mem := 2 + float64(rng.Intn(4))
			var dr, dw float64
			switch kind {
			case 0:
				cpu += 3 + float64(rng.Intn(4))
			case 1:
				mem += 6 + float64(rng.Intn(8))
			case 2:
				dr = 20 + float64(rng.Intn(40))
				dw = 10 + float64(rng.Intn(20))
			}
			dur := 3 + rng.Intn(10)
			st.Tasks = append(st.Tasks, &workload.Task{
				ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
				Peak: resources.New(cpu, mem, dr, dw, 0, 0),
				Work: workload.Work{CPUSeconds: cpu * float64(dur)},
			})
		}
		j.Stages = []*workload.Stage{st}
		w.jobs = append(w.jobs, j)
		w.arrival = append(w.arrival, rng.Intn(jobs/2))
	}
	return w
}

// qualityResult is one configuration's replay outcome.
type qualityResult struct {
	finish   map[int]int // job → round its last task completed
	makespan int
	meanJCT  float64
	// packEff is the volume-weighted utilization over the makespan:
	// Σ_tasks peak.Sum()·duration ÷ (fleet capacity.Sum()·makespan).
	// Partitioning can only lower it (idle holes a global packer would
	// have filled).
	packEff float64
}

// replayQuality drives one RM through the workload on a virtual clock:
// one round = one virtual second; a launch made in round r completes in
// round r+duration. Deterministic given the RM's scheduling policy.
func replayQuality(t *testing.T, rm qualityRM, w qualityWorkload) qualityResult {
	t.Helper()
	for id := 0; id < w.nodes; id++ {
		rm.RegisterMachine(id, w.capacity)
	}
	due := make(map[int]map[int][]wire.TaskCompletion) // round → node → completions
	remaining := make(map[int]int)                     // job → tasks left
	var volume float64                                 // Σ peak.Sum()·duration actually run
	res := qualityResult{finish: make(map[int]int)}

	submitted, completedTasks, totalTasks := 0, 0, 0
	for _, j := range w.jobs {
		totalTasks += j.NumTasks()
		remaining[j.ID] = j.NumTasks()
	}
	for round := 0; completedTasks < totalTasks || submitted < len(w.jobs); round++ {
		if round > 100000 {
			t.Fatal("virtual replay did not converge")
		}
		for id, j := range w.jobs {
			if w.arrival[id] == round {
				if err := rm.SubmitJob(j); err != nil {
					t.Fatalf("submit job %d: %v", id, err)
				}
				submitted++
			}
		}
		for node := 0; node < w.nodes; node++ {
			var done []wire.TaskCompletion
			if m := due[round]; m != nil {
				done = m[node]
			}
			reply := rm.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: node, Completed: done})
			if reply.Type == wire.TypeError {
				t.Fatalf("round %d node %d: %s", round, node, reply.Error)
			}
			for _, c := range done {
				completedTasks++
				remaining[c.Task.Job]--
				if remaining[c.Task.Job] == 0 {
					res.finish[c.Task.Job] = round
					if round > res.makespan {
						res.makespan = round
					}
				}
			}
			for _, l := range reply.NMReply.Launch {
				d := int(l.Duration + 0.5)
				if d < 1 {
					d = 1
				}
				r := round + d
				if due[r] == nil {
					due[r] = make(map[int][]wire.TaskCompletion)
				}
				due[r][node] = append(due[r][node], wire.TaskCompletion{
					Task: l.Task, Usage: l.Demand, Duration: float64(d)})
				volume += l.Demand.Sum() * float64(d)
			}
		}
	}
	var jct float64
	for id := range w.jobs {
		jct += float64(res.finish[id] - w.arrival[id])
	}
	res.meanJCT = jct / float64(len(w.jobs))
	res.packEff = volume / (w.capacity.Sum() * float64(w.nodes) * float64(res.makespan))
	return res
}

func newQualitySharded(t *testing.T, shards int) *Sharded {
	t.Helper()
	g, err := NewShardedInProcess(ShardedConfig{
		Shards:       shards,
		NewScheduler: qualityScheduler,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// TestShardQualityOracle: the 1-shard front door must be decision-
// equivalent to a bare shard core — identical per-job finish rounds on
// the same replay. This is the proof that the top layer adds no
// decision, and the oracle the loss measurements lean on.
func TestShardQualityOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := makeQualityWorkload(seed, 8, 24)

		core := &Server{cfg: &ShardedConfig{}, sched: qualityScheduler(), clock: new(virtualClock)}
		if err := core.open(); err != nil {
			t.Fatal(err)
		}
		base := replayQuality(t, bareCore{core}, w)

		one := replayQuality(t, newQualitySharded(t, 1), w)
		if base.makespan != one.makespan || len(base.finish) != len(one.finish) {
			t.Fatalf("seed %d: 1-shard makespan %d != bare core %d", seed, one.makespan, base.makespan)
		}
		for id, r := range base.finish {
			if one.finish[id] != r {
				t.Fatalf("seed %d: job %d finished round %d behind the front door vs %d on the bare core",
					seed, id, one.finish[id], r)
			}
		}
	}
}

// TestShardQualityLoss replays identical seeded workloads through 1-,
// 2- and 4-shard RMs and bounds the quality loss of partitioned
// packing. The bounds carry slack over the measured numbers recorded in
// EXPERIMENTS.md — they exist to catch routing/packing regressions, not
// to flatter the router.
func TestShardQualityLoss(t *testing.T) {
	type loss struct{ makespan, jct, packEff float64 }
	worst := loss{1, 1, 1}
	for _, seed := range []int64{1, 7, 42} {
		w := makeQualityWorkload(seed, 8, 24)
		oracle := replayQuality(t, newQualitySharded(t, 1), w)
		if oracle.packEff <= 0 || oracle.packEff > 1 {
			t.Fatalf("seed %d: oracle packing efficiency %v outside (0,1]", seed, oracle.packEff)
		}
		for _, shards := range []int{2, 4} {
			got := replayQuality(t, newQualitySharded(t, shards), w)
			mk := float64(got.makespan) / float64(oracle.makespan)
			jr := got.meanJCT / oracle.meanJCT
			pe := got.packEff / oracle.packEff
			t.Logf("seed %d shards %d: makespan %d (%.2fx), meanJCT %.1f (%.2fx), packEff %.3f (%.2fx of oracle %.3f)",
				seed, shards, got.makespan, mk, got.meanJCT, jr, got.packEff, pe, oracle.packEff)
			if mk > worst.makespan {
				worst.makespan = mk
			}
			if jr > worst.jct {
				worst.jct = jr
			}
			if pe < worst.packEff {
				worst.packEff = pe
			}
			// Loss bounds (see EXPERIMENTS.md "Sharded scheduling
			// quality"): measured worst cases on these seeds are 1.55x
			// makespan / 1.39x mean JCT / 0.64x packing efficiency, on a
			// deliberately hostile setup (only 2 nodes per shard at N=4,
			// bursty arrivals). The bounds add headroom for scheduler
			// evolution while still catching a broken router, which
			// measures 2-4x worse here.
			if mk > 1.8 {
				t.Errorf("seed %d shards %d: makespan loss %.2fx exceeds 1.8x bound", seed, shards, mk)
			}
			if jr > 1.6 {
				t.Errorf("seed %d shards %d: mean-JCT loss %.2fx exceeds 1.6x bound", seed, shards, jr)
			}
			if pe < 0.55 {
				t.Errorf("seed %d shards %d: packing efficiency %.2fx of oracle, below 0.55x bound", seed, shards, pe)
			}
		}
	}
	fmt.Printf("shard-quality worst-case loss: makespan %.2fx, meanJCT %.2fx, packEff %.2fx\n",
		worst.makespan, worst.jct, worst.packEff)
}
