package rm

// One RM clock (DESIGN §12.1): the front door owns RM time and the
// failure sweeper. On a virtual clock every timer-driven decision — a
// detector death, a starvation reservation, a gang hoard release — is a
// function of the inputs alone, so twins fed the same frames stay
// byte-identical.

import (
	"bytes"
	"io"
	"log"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/gang"
	"github.com/tetris-sched/tetris/internal/nm"
	"github.com/tetris-sched/tetris/internal/reserve"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/telemetry"
	"github.com/tetris-sched/tetris/internal/testutil"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// virtualClock is RM time that moves only when a test advances it.
type virtualClock struct {
	mu sync.Mutex
	t  float64
}

func (c *virtualClock) now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) startAt(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t)
}

func (c *virtualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d.Seconds()
}

// newVirtualSharded starts an in-process RM whose time is clock.
func newVirtualSharded(t testing.TB, cfg ShardedConfig, clock *virtualClock) *Sharded {
	t.Helper()
	cfg.clock = clock
	g, err := NewShardedInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// sweepers counts the live goroutines Sharded.start created — scheduled
// yet or not. An in-process RM has no accept loop, so they are sweepers.
func sweepers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by github.com/tetris-sched/tetris/internal/rm.(*Sharded).start ")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestOneSweeper: with failure detection on the wall clock an RM runs one
// sweeper goroutine whatever its shard count, and Close stops it; with
// detection off, or on a virtual clock, it runs none.
func TestOneSweeper(t *testing.T) {
	base := sweepers()
	for _, shards := range []int{1, 4} {
		g, err := NewShardedInProcess(ShardedConfig{Shards: shards, NewScheduler: tetrisScheduler, NodeTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if got := sweepers() - base; got != 1 {
			t.Errorf("%d shards: %d sweeper goroutines, want 1", shards, got)
		}
		g.Close()
		testutil.WaitFor(t, 5*time.Second, "sweeper stopped by Close", func() bool { return sweepers() == base })
	}
	for name, cfg := range map[string]ShardedConfig{
		"detection off": {Shards: 4, NewScheduler: tetrisScheduler},
		"virtual clock": {Shards: 4, NewScheduler: tetrisScheduler, NodeTimeout: time.Hour, clock: new(virtualClock)},
	} {
		g, err := NewShardedInProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sweepers() - base; got != 0 {
			t.Errorf("%s: %d sweeper goroutines, want none", name, got)
		}
		g.Close()
	}
}

// TestTwinsOnOneClock: two 2-shard RMs share one virtual clock, each a
// gang coordinator around Tetris with starvation reservations on. Both
// read the same frames — nm.Link.Step's registrations and heartbeat
// batches, and submissions and AM polls, through Sharded.Call — with the
// clock advanced a second between steps. After every step they have
// answered alike and every shard's state digest is byte-identical, while
// the run makes the detector declare a silent node dead, reserves a
// machine for a starved task, and releases a gang's hoard.
func TestTwinsOnOneClock(t *testing.T) {
	clock := new(virtualClock)
	type twin struct {
		g    *Sharded
		reg  *telemetry.Registry
		tets []*scheduler.Tetris
	}
	newTwin := func() *twin {
		tw := &twin{reg: telemetry.NewRegistry()}
		tw.g = newVirtualSharded(t, ShardedConfig{
			Shards: 2,
			NewScheduler: func() scheduler.Scheduler {
				cfg := scheduler.DefaultTetrisConfig()
				cfg.StarvationSec = 10
				tet := scheduler.NewTetris(cfg)
				tw.tets = append(tw.tets, tet)
				return tet
			},
			NodeTimeout: 5 * time.Second,
			Gang:        gang.Config{HoldSec: 20, PreemptSec: 1e9},
			Metrics:     tw.reg,
		}, clock)
		return tw
	}
	twins := []*twin{newTwin(), newTwin()}

	step := 0
	// call hands each twin its own decoding of one encoded frame, so the
	// twins share no message, and demands the same answer from both.
	call := func(m *wire.Message) (*wire.Message, error) {
		var frame bytes.Buffer
		if err := wire.NewServerFramer().Write(&frame, m); err != nil {
			return nil, err
		}
		replies := make([]*wire.Message, len(twins))
		for i, tw := range twins {
			in, err := wire.NewServerFramer().Read(bytes.NewReader(frame.Bytes()))
			if err != nil {
				return nil, err
			}
			replies[i], _ = tw.g.Call(in)
		}
		if !reflect.DeepEqual(replies[0], replies[1]) {
			t.Fatalf("step %d: the twins answer %s differently:\n %+v\n %+v", step, m.Type, replies[0], replies[1])
		}
		return replies[0], nil
	}
	counter := func(tw *twin, name string) (n uint64) {
		for i := 0; i < 2; i++ {
			n += tw.reg.Counter(telemetry.Label(name, "shard", strconv.Itoa(i)), "").Value()
		}
		return n
	}
	mostStarved := 0
	check := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			if !bytes.Equal(twins[0].g.Shard(i).StateDigest(), twins[1].g.Shard(i).StateDigest()) {
				t.Fatalf("step %d: shard %d state digests differ", step, i)
			}
		}
		starved := make([]int, len(twins))
		for k, tw := range twins {
			for _, tet := range tw.tets {
				tet.Reservations().Each(func(_ int, r reserve.Reservation) {
					if r.Kind == reserve.Starved {
						starved[k]++
					}
				})
			}
		}
		if starved[0] != starved[1] {
			t.Fatalf("step %d: %d vs %d starvation reservations", step, starved[0], starved[1])
		}
		mostStarved = max(mostStarved, starved[0])
	}

	link := &nm.Link{Name: "twins", Batch: 4, Metrics: nm.NewMetrics(nil), Log: log.New(io.Discard, "", 0)}
	for id := 0; id < 4; id++ {
		link.Agents = append(link.Agents, &nm.Agent{ID: id, Capacity: resources.New(16, 32, 200, 200, 1000, 1000), Exec: &nm.Synthetic{Compression: 1}})
	}
	silent, gangStep := -1, 1<<30
	link.Silent = func(a *nm.Agent, _ time.Time) bool { return a.ID == silent }
	epoch := time.Unix(0, 0)
	beats := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			step++
			clock.advance(time.Second)
			if err := link.Step(tap(call), epoch.Add(time.Duration(step)*time.Second)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			// Once submitted, the gang's AM polls every step, so a release
			// notice is delivered, and compared, the step it happens.
			if step > gangStep {
				if r, _ := call(&wire.Message{Type: wire.TypeAMHeartbeat, AMHeartbeat: &wire.AMHeartbeat{JobID: 4}}); r.Type != wire.TypeAMReply {
					t.Fatalf("step %d: AM poll: %s", step, r.Error)
				}
			}
			check()
		}
	}
	submit := func(j *workload.Job) {
		t.Helper()
		if r, _ := call(&wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: j}}); r.Type != wire.TypeAMReply {
			t.Fatalf("submit job %d: %s %s", j.ID, r.Type, r.Error)
		}
	}
	longJob := func(id, tasks int, cores float64) *workload.Job {
		j := &workload.Job{ID: id, Weight: 1, Stages: []*workload.Stage{{Name: "s"}}}
		for i := 0; i < tasks; i++ {
			j.Stages[0].Tasks = append(j.Stages[0].Tasks, &workload.Task{
				ID:   workload.TaskID{Job: id, Stage: 0, Index: i},
				Peak: resources.New(cores, 2*cores, 0, 0, 0, 0),
				Work: workload.Work{CPUSeconds: 1e5 * cores},
			})
		}
		return j
	}

	beats(1) // registrations
	// Long 10-core fillers leave 6 cores free on every machine.
	submit(longJob(1, 2, 10))
	submit(longJob(2, 2, 10))
	beats(2)
	for i := 0; i < 2; i++ {
		s := twins[0].g.Shard(i)
		s.mu.Lock()
		for _, n := range s.nodes {
			if n != nil && n.Allocated.Get(resources.CPU) != 10 {
				t.Errorf("machine %d holds %v cores, want one 10-core filler", n.ID, n.Allocated.Get(resources.CPU))
			}
		}
		s.mu.Unlock()
	}
	// A 16-core task fits nowhere: past StarvationSec a machine is
	// reserved for it.
	submit(longJob(3, 1, 16))
	beats(12)
	// Three 6-core members against room for two per shard: the gang hoards
	// what it can and, past HoldSec, releases it.
	submit(gangChaosJob(4, 3, 6, 12))
	gangStep = step
	beats(22)
	// Node 3 stops beating; node 1's beats run shard 1's detector.
	silent = 3
	beats(7)

	for k, tw := range twins {
		crashes := 0
		for _, r := range tw.g.ClusterStatus().Faults {
			if r.Kind == faults.MachineCrash && r.Machine == 3 {
				crashes++
			}
		}
		releases := counter(tw, "tetris_rm_gang_releases_total")
		t.Logf("twin %d: %d detector deaths, %d gang hoard releases, at most %d starvation reservations at once, %d steps",
			k, crashes, releases, mostStarved, step)
		if crashes == 0 || releases == 0 || mostStarved == 0 {
			t.Errorf("twin %d: a timer never fired: %d deaths, %d releases, %d starvation reservations", k, crashes, releases, mostStarved)
		}
		if err := tw.g.VerifyLedger(); err != nil {
			t.Errorf("twin %d: %v", k, err)
		}
	}
	if a, b := counter(twins[0], "tetris_rm_gang_releases_total"), counter(twins[1], "tetris_rm_gang_releases_total"); a != b {
		t.Errorf("gang releases %d vs %d", a, b)
	}
}
