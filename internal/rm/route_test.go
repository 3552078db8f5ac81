package rm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// submitWindow is how many four-task jobs one fleet takes in the
// submit-cost test and benchmark: no beats run, so none finishes.
const submitWindow = 2000

// submitFleet is a 4-shard in-process RM with nodes registered, in three
// capacity shapes, and no beats; the caller closes it.
func submitFleet(tb testing.TB, nodes int) *Sharded {
	tb.Helper()
	g, err := NewShardedInProcess(ShardedConfig{Shards: 4, NewScheduler: tetrisScheduler})
	if err != nil {
		tb.Fatal(err)
	}
	for id := 0; id < nodes; id++ {
		g.RegisterMachine(id, resources.New(16+float64(id%3)*8, 32, 200, 200, 1000, 1000))
	}
	return g
}

// TestSubmitCostFlat: routing a submission reads every shard's cached
// summary — a submit leaves only its shard's job half to re-sum — and
// allocates nothing, at 64 nodes as at 20 000. Summaries rebuilt from
// scratch per job cost a capacity vector per live machine (≈ 962 KB per
// submit at 20 000 nodes). Every 50th submit the routing of the next job
// is measured with every shard's job half stale, the most a submission
// can find to rebuild when no beat runs.
func TestSubmitCostFlat(t *testing.T) {
	for _, nodes := range []int{64, 20000} {
		g := submitFleet(t, nodes)
		g.routeViews(simpleJob(-1, 4)) // the fleet's first summary
		for id := 0; id < submitWindow; id++ {
			j := simpleJob(id, 4)
			if id%50 == 0 {
				allocs := testing.AllocsPerRun(10, func() {
					for _, s := range g.shards {
						s.route.jobsFresh = false
					}
					g.routeViews(j)
				})
				if allocs != 0 {
					t.Fatalf("%d nodes, job %d: routing allocated %v times, want 0", nodes, id, allocs)
				}
			}
			if err := g.SubmitJob(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.VerifyLedger(); err != nil {
			t.Fatal(err)
		}
		g.Close()
	}
}

// BenchmarkSubmitRoute is the front door's cost of one submission —
// validation, routing and the shard's apply — on a 4-shard fleet with no
// beats, in windows of submitWindow four-task jobs (each window on a
// fresh fleet, registered off the clock). ns/op and allocs/op should not
// grow with the fleet.
func BenchmarkSubmitRoute(b *testing.B) {
	jobs := make([]*workload.Job, submitWindow)
	for id := range jobs {
		jobs[id] = simpleJob(id, 4)
	}
	for _, nodes := range []int{64, 2000, 20000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			var g *Sharded
			for i := 0; i < b.N; i++ {
				if i%submitWindow == 0 {
					b.StopTimer()
					if g != nil {
						g.Close()
					}
					g = submitFleet(b, nodes)
					b.StartTimer()
				}
				if err := g.SubmitJob(jobs[i%submitWindow]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			g.Close()
		})
	}
}

// BenchmarkRouteStale is routing's cost when every shard's ledger changed
// since the last submission — a launch, release, death or moved full
// report on each — so each machine half is rebuilt: a walk of the
// shard's view, which grows with the fleet, and one shapes slice per
// shard. BenchmarkSubmitRoute is the other end, no shard changed.
func BenchmarkRouteStale(b *testing.B) {
	j := simpleJob(0, 4)
	for _, nodes := range []int{64, 2000, 20000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			g := submitFleet(b, nodes)
			defer g.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range g.shards {
					s.mu.Lock()
					s.nodesChanged()
					s.mu.Unlock()
				}
				g.routeViews(j)
			}
		})
	}
}

// TestAddShape: addShape lists distinct capacities in order of first
// appearance on both sides of fewShapes — the scan and the set.
func TestAddShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, distinct := range []int{1, fewShapes, fewShapes + 1, 40} {
		var got, want []resources.Vector
		seen := make(map[resources.Vector]struct{})
		for i := 0; i < 400; i++ {
			c := resources.New(float64(rng.Intn(distinct)), 32, 200, 200, 1000, 1000)
			got = addShape(got, seen, c)
			if !slices.Contains(want, c) {
				want = append(want, c)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d distinct shapes: got %v, want %v", distinct, got, want)
		}
	}
}

// TestRoutingCacheSteps drives a 2-shard RM through a seeded random mix
// of registrations (some changing a capacity), full and delta beats,
// launches, completions, deaths, revivals, submissions and finished
// jobs, and runs VerifyLedger — which holds each shard's cached routing
// summary bit for bit against an ID-order rebuild — after every step: a
// writer that changes what a summary sums without marking it stale
// fails here.
func TestRoutingCacheSteps(t *testing.T) {
	shapes := []resources.Vector{
		resources.New(16.1, 32.7, 200.3, 199.9, 1000.7, 999.1),
		resources.New(8.3, 16.9, 100.1, 100.7, 500.3, 500.9),
		resources.New(24.7, 48.1, 300.9, 300.3, 1500.1, 1500.7),
	}
	const nodes = 10
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		g := newVirtualSharded(t, ShardedConfig{Shards: 2, NewScheduler: tetrisScheduler,
			NodeTimeout: time.Hour, MaxTaskAttempts: 2}, new(virtualClock))
		running := make(map[int][]workload.TaskID) // what each node runs
		launched := func(id int, reply *wire.Message) {
			if reply.Type == wire.TypeNMReply {
				for _, l := range reply.NMReply.Launch {
					running[id] = append(running[id], l.Task)
				}
			}
		}
		// complete reports a random share of what node id runs.
		complete := func(id int) []wire.TaskCompletion {
			var done []wire.TaskCompletion
			keep := running[id][:0]
			for _, tid := range running[id] {
				if rng.Intn(2) == 0 {
					done = append(done, wire.TaskCompletion{Task: tid,
						Usage: resources.New(0.7+0.1*rng.Float64(), 1.3, 0.1, 0, 0, 0), Duration: 1.7})
				} else {
					keep = append(keep, tid)
				}
			}
			running[id] = keep
			return done
		}
		nextJob := 0
		for step := 0; step < 600; step++ {
			id := rng.Intn(nodes)
			var what string
			switch rng.Intn(8) {
			case 0:
				what = "register"
				reply, _ := g.Call(&wire.Message{Type: wire.TypeRegisterNM, RegisterNM: &wire.RegisterNM{
					NodeID: id, Capacity: shapes[rng.Intn(len(shapes))], Running: running[id]}})
				if reply.Type == wire.TypeNMReply {
					for _, k := range reply.NMReply.Kill {
						running[id] = removeTask(running[id], k)
					}
				}
			case 1, 2:
				what = "full beat"
				used := resources.New(rng.Float64()*3.3, rng.Float64()*7.1, 0.3, 0.1, 1.9, 0.7)
				reply, _ := g.Call(&wire.Message{Type: wire.TypeNMHeartbeat, NMHeartbeat: &wire.NMHeartbeat{
					NodeID: id, Used: used, Completed: complete(id)}})
				launched(id, reply)
			case 3:
				what = "delta beat"
				reply, _ := g.Call(&wire.Message{Type: wire.TypeNMHeartbeat, NMHeartbeat: &wire.NMHeartbeat{
					NodeID: id, Delta: true, Completed: complete(id)}})
				launched(id, reply)
			case 4:
				what = "death"
				killNode(g, id)
				running[id] = nil // its tasks were reclaimed; the node lost them
			case 5, 6:
				what = "submit"
				j := &workload.Job{ID: nextJob, Weight: 1}
				st := &workload.Stage{Name: "s"}
				for i := 0; i < 1+rng.Intn(6); i++ {
					cpu := 0.9 + 0.3*float64(rng.Intn(7))
					st.Tasks = append(st.Tasks, &workload.Task{
						ID:   workload.TaskID{Job: nextJob, Stage: 0, Index: i},
						Peak: resources.New(cpu, 1.1+0.7*float64(rng.Intn(5)), 0.3, 0, 0, 0),
						Work: workload.Work{CPUSeconds: 3.1 * cpu},
					})
				}
				j.Stages = []*workload.Stage{st}
				nextJob++
				if err := g.SubmitJob(j); err != nil {
					t.Fatal(err)
				}
			default:
				what = "finish"
				for k := 0; k < 3; k++ { // complete everything node id runs
					reply, _ := g.Call(&wire.Message{Type: wire.TypeNMHeartbeat, NMHeartbeat: &wire.NMHeartbeat{
						NodeID: id, Delta: true, Completed: completeAllOf(running, id)}})
					launched(id, reply)
				}
			}
			if err := g.VerifyLedger(); err != nil {
				t.Fatalf("seed %d step %d (%s node %d): %v", seed, step, what, id, err)
			}
		}
		if finished := finishedJobs(g); finished == 0 || nextJob == finished {
			t.Errorf("seed %d: %d of %d jobs finished; the steps should leave some finished and some not", seed, finished, nextJob)
		}
	}
}

// TestRoutingConcurrentWithBeats: submissions read the cached summaries
// — the shape slice after the shard lock is released — while beats on
// every shard launch, complete and re-report, so the race detector sees
// the cache shared between a submitter and the shard cores.
func TestRoutingConcurrentWithBeats(t *testing.T) {
	g := newShardedServer(t, 2, ShardedConfig{})
	const nodes, jobs = 6, 200
	for id := 0; id < nodes; id++ {
		g.RegisterMachine(id, resources.New(16+float64(id%2)*8, 32, 200, 200, 1000, 1000))
	}
	done := make(chan error, 1)
	go func() {
		for id := 0; id < jobs; id++ {
			if err := g.SubmitJob(simpleJob(id, 2)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	running := make(map[int][]workload.TaskID)
	submitted := false
	for sweep := 0; sweep < 10000 && !(submitted && finishedJobs(g) == jobs); sweep++ {
		if !submitted {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				submitted = true
			default:
			}
		}
		for id := 0; id < nodes; id++ {
			reply := g.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: id,
				Used: resources.New(float64(sweep%3), 1, 0, 0, 0, 0), Completed: completeAllOf(running, id)})
			for _, l := range reply.NMReply.Launch {
				running[id] = append(running[id], l.Task)
			}
		}
	}
	if !submitted || finishedJobs(g) != jobs {
		t.Fatalf("%d of %d jobs finished", finishedJobs(g), jobs)
	}
	if err := g.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

// finishedJobs counts the finished jobs across shards.
func finishedJobs(g *Sharded) int {
	n := 0
	for i := 0; i < g.NumShards(); i++ {
		s := g.Shard(i)
		s.mu.Lock()
		n += len(s.jobs) - len(s.active)
		s.mu.Unlock()
	}
	return n
}

func removeTask(ts []workload.TaskID, tid workload.TaskID) []workload.TaskID {
	for i, x := range ts {
		if x == tid {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

// completeAllOf reports everything node id runs as done.
func completeAllOf(running map[int][]workload.TaskID, id int) []wire.TaskCompletion {
	var done []wire.TaskCompletion
	for _, tid := range running[id] {
		done = append(done, wire.TaskCompletion{Task: tid, Usage: resources.New(1, 1, 0, 0, 0, 0), Duration: 1})
	}
	running[id] = nil
	return done
}

// TestBatchBarrierFailsClosed: a batch whose journal barrier fails on a
// shard is not acked as admitted — the reply is an error naming the
// shard — and resubmitting the same IDs is idempotent: they stay pinned
// where they were applied, and the batch still fails while that journal
// is broken.
func TestBatchBarrierFailsClosed(t *testing.T) {
	g := newShardedServer(t, 2, ShardedConfig{JournalDir: t.TempDir()})
	registerFleet(t, g, 4)
	if err := g.Shard(1).jnl.Close(); err != nil {
		t.Fatal(err)
	}
	var jobs []*workload.Job
	for id := 0; id < 4; id++ {
		jobs = append(jobs, simpleJob(id, 2))
	}
	results, err := g.SubmitBatch("", jobs)
	pins := make(map[int]int)
	onShard1 := false
	for _, j := range jobs {
		pins[j.ID], _ = g.JobShard(j.ID)
		onShard1 = onShard1 || pins[j.ID] == 1
	}
	if !onShard1 {
		t.Fatalf("no job routed to shard 1 (%v): the test does not reach the broken journal", pins)
	}
	if err == nil {
		t.Fatalf("batch touching shard 1, whose journal is closed, was admitted: %+v", results)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error %q does not name shard 1", err)
	}
	jobsOn := func(i int) int { return len(g.Shard(i).JobIDs()) }
	before := []int{jobsOn(0), jobsOn(1)}
	if _, err := g.SubmitBatch("", jobs); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("resubmission: %v, want the shard 1 barrier failure again", err)
	}
	for _, j := range jobs {
		if s, _ := g.JobShard(j.ID); s != pins[j.ID] {
			t.Errorf("job %d re-pinned from shard %d to %d", j.ID, pins[j.ID], s)
		}
	}
	if after := []int{jobsOn(0), jobsOn(1)}; after[0] != before[0] || after[1] != before[1] {
		t.Errorf("resubmission changed the job tables: %v jobs per shard, then %v", before, after)
	}
}
