package rm

// The node-side session of internal/nm, run with no socket and no wall
// clock: nm.Link.Step drives nm.Synthetic executors against
// NewShardedInProcess through Sharded.Call, one virtual second per round.
// replayQuality's hand-written node loop is the reference it is held to.

import (
	"io"
	"log"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// tap lets a closure stand between the session and the RM.
type tap func(*wire.Message) (*wire.Message, error)

func (f tap) Call(m *wire.Message) (*wire.Message, error) { return f(m) }

// sessionQuality runs the workload the way replayQuality does — every
// node registered before round 0, then per round the arrivals and one
// heartbeat per node in id order — and returns each job's finish round.
// maskUsage zeroes Used/Allocated on the way to the RM, which is what
// replayQuality's nodes report. The session sends delta reports, as every
// node does; the run fails if none went out.
func sessionQuality(t *testing.T, g *Sharded, w qualityWorkload, maskUsage bool) map[int]int {
	t.Helper()
	link := &nm.Link{Name: "quality", Metrics: nm.NewMetrics(nil), Log: log.New(io.Discard, "", 0)}
	for id := 0; id < w.nodes; id++ {
		link.Agents = append(link.Agents, &nm.Agent{ID: id, Capacity: w.capacity, Exec: &nm.Synthetic{Compression: 1}})
	}
	remaining := make(map[int]int)
	totalTasks := 0
	for _, j := range w.jobs {
		remaining[j.ID] = j.NumTasks()
		totalTasks += j.NumTasks()
	}
	finish := make(map[int]int)
	seen := make(map[workload.TaskID]int)
	round, completed := 0, 0
	rm := tap(func(m *wire.Message) (*wire.Message, error) {
		if b := m.HeartbeatBatch; b != nil {
			for i := range b.Beats {
				hb := &b.Beats[i]
				if maskUsage {
					hb.Used = resources.Vector{}
				}
				for _, c := range hb.Completed {
					seen[c.Task]++
					completed++
					if remaining[c.Task.Job]--; remaining[c.Task.Job] == 0 {
						finish[c.Task.Job] = round
					}
				}
			}
		}
		reply, err := g.Call(m)
		if err == nil {
			if r := beatReply(reply); r.Type == wire.TypeError {
				t.Fatalf("round %d: RM answered %s with %q", round, m.Type, r.Error)
			}
		}
		return reply, err
	})
	epoch := time.Unix(0, 0)
	sweep := func() {
		now := epoch.Add(time.Duration(round) * time.Second)
		for range link.Agents {
			if err := link.Step(rm, now); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	sweep() // registrations
	for submitted := 0; completed < totalTasks || submitted < len(w.jobs); round++ {
		if round > 100000 {
			t.Fatal("virtual session did not converge")
		}
		for id, j := range w.jobs {
			if w.arrival[id] == round {
				if err := g.SubmitJob(j); err != nil {
					t.Fatalf("submit job %d: %v", id, err)
				}
				submitted++
			}
		}
		sweep()
	}
	for _, j := range w.jobs {
		for _, st := range j.Stages {
			for _, task := range st.Tasks {
				if seen[task.ID] != 1 {
					t.Errorf("task %v completed %d times, want exactly once", task.ID, seen[task.ID])
				}
			}
		}
	}
	if got := int(link.Metrics.Completed.Value()); got != totalTasks {
		t.Errorf("session counted %d completions, want %d", got, totalTasks)
	}
	if link.Metrics.DeltaBeats.Value() == 0 {
		t.Error("no heartbeat of the session went out as a delta report")
	}
	if err := g.VerifyLedger(); err != nil {
		t.Errorf("ledger after the session: %v", err)
	}
	return finish
}

func meanJCT(w qualityWorkload, finish map[int]int) float64 {
	var sum float64
	for id := range w.jobs {
		sum += float64(finish[id] - w.arrival[id])
	}
	return sum / float64(len(w.jobs))
}

// TestSessionInProcessMatchesReplay: the production session, stepped
// in-process on a virtual clock, makes the RM take the decisions the
// quality harness's node loop does — per-job finish rounds are equal —
// once usage reports are masked to the zeros that loop sends. With its
// real reports the session still agrees at one shard; at four shards the
// reports can move jobs (partitioned packing is sensitive to them), which
// is logged, not asserted.
func TestSessionInProcessMatchesReplay(t *testing.T) {
	differing := func(a, b map[int]int) int {
		n := 0
		for id, r := range a {
			if b[id] != r {
				n++
			}
		}
		return n
	}
	for _, seed := range []int64{1, 7, 42} {
		w := makeQualityWorkload(seed, 8, 24)
		for _, shards := range []int{1, 4} {
			want := replayQuality(t, newQualitySharded(t, shards), w).finish
			masked := sessionQuality(t, newQualitySharded(t, shards), w, true)
			if len(masked) != len(want) || differing(want, masked) != 0 {
				t.Errorf("seed %d shards %d: %d of %d jobs finish in a different round under the session with usage masked",
					seed, shards, differing(want, masked), len(want))
			}
			reported := sessionQuality(t, newQualitySharded(t, shards), w, false)
			n := differing(want, reported)
			if shards == 1 && n != 0 {
				t.Errorf("seed %d: %d of %d jobs finish in a different round at one shard with real usage reports",
					seed, n, len(want))
			}
			t.Logf("seed %d shards %d: real usage reports move %d of %d jobs' finish rounds (mean JCT %.2f -> %.2f rounds)",
				seed, shards, n, len(want), meanJCT(w, want), meanJCT(w, reported))
		}
	}
}
