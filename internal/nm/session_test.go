package nm

// Tests of the session itself against a scripted RM: Step level through an
// in-memory Caller on a virtual clock, Run level over a loopback socket.

import (
	"context"
	"errors"
	"io"
	"log"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/testutil"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

var errCut = errors.New("connection cut")

// scriptedRM answers every frame the way a healthy RM would — it has
// nothing to launch unless launch says so — and records what it was sent.
// fault, when set, answers the next frame instead and clears itself.
type scriptedRM struct {
	launch map[int][]wire.TaskLaunch // node → launches for its next acked beat
	fault  func(m *wire.Message) (*wire.Message, error)

	frames     []string                  // frame types, in order
	registered []wire.RegisterNM         // registrations, in order
	completed  map[int][]workload.TaskID // node → completions acked, in order
	full       map[int]int               // node → full (non-delta) beats acked
	used       map[int]resources.Vector  // node → usage of its last full beat, which a delta leaves standing
	lastBeat   map[int]wire.NMHeartbeat  // node → last beat acked
}

func newScriptedRM() *scriptedRM {
	return &scriptedRM{
		launch:    make(map[int][]wire.TaskLaunch),
		completed: make(map[int][]workload.TaskID),
		full:      make(map[int]int),
		used:      make(map[int]resources.Vector),
		lastBeat:  make(map[int]wire.NMHeartbeat),
	}
}

func (s *scriptedRM) Call(m *wire.Message) (*wire.Message, error) {
	s.frames = append(s.frames, m.Type)
	if f := s.fault; f != nil {
		s.fault = nil
		return f(m)
	}
	switch m.Type {
	case wire.TypeRegisterNM:
		r := *m.RegisterNM
		r.Completed = append([]wire.TaskCompletion(nil), r.Completed...)
		s.registered = append(s.registered, r)
		s.ack(r.NodeID, r.Completed)
		return &wire.Message{Type: wire.TypeNMReply, NMReply: &wire.NMReply{}}, nil
	case wire.TypeHeartbeatBatch:
		br := &wire.HeartbeatBatchReply{}
		for i := range m.HeartbeatBatch.Beats {
			hb := &m.HeartbeatBatch.Beats[i]
			br.Replies = append(br.Replies, wire.NMBeatReply{NodeID: hb.NodeID, Reply: *s.beat(hb)})
		}
		return &wire.Message{Type: wire.TypeHeartbeatBatchReply, HeartbeatBatchReply: br}, nil
	}
	return nil, errors.New("scripted RM: unexpected frame " + m.Type)
}

func (s *scriptedRM) ack(node int, done []wire.TaskCompletion) {
	for _, c := range done {
		s.completed[node] = append(s.completed[node], c.Task)
	}
}

func (s *scriptedRM) beat(hb *wire.NMHeartbeat) *wire.NMReply {
	s.ack(hb.NodeID, hb.Completed)
	if !hb.Delta {
		s.full[hb.NodeID]++
		s.used[hb.NodeID] = hb.Used
	}
	s.lastBeat[hb.NodeID] = *hb
	r := &wire.NMReply{Launch: s.launch[hb.NodeID]}
	delete(s.launch, hb.NodeID)
	return r
}

func cut(*wire.Message) (*wire.Message, error) { return nil, errCut }

func rmError(text string) func(*wire.Message) (*wire.Message, error) {
	return func(*wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.TypeError, Error: text}, nil
	}
}

// rejectBeats answers a heartbeat frame refusing every beat in it.
func rejectBeats(text string) func(*wire.Message) (*wire.Message, error) {
	return func(m *wire.Message) (*wire.Message, error) {
		br := &wire.HeartbeatBatchReply{}
		for _, hb := range m.HeartbeatBatch.Beats {
			br.Replies = append(br.Replies, wire.NMBeatReply{NodeID: hb.NodeID, Error: text})
		}
		return &wire.Message{Type: wire.TypeHeartbeatBatchReply, HeartbeatBatchReply: br}, nil
	}
}

var (
	testCap    = resources.New(16, 32, 200, 200, 1000, 1000)
	testDemand = resources.New(2, 4, 0, 0, 0, 0)
	t0         = time.Unix(1_000_000, 0)
)

func at(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }

func tid(job, index int) workload.TaskID { return workload.TaskID{Job: job, Index: index} }

func launchOf(id workload.TaskID, durSec float64) wire.TaskLaunch {
	return wire.TaskLaunch{Task: id, Demand: testDemand, Duration: durSec}
}

// testLink builds a link of n synthetic agents at compression 1, so a
// launch's Duration is its virtual seconds.
func testLink(n, batch int) *Link {
	l := &Link{Name: "test", Batch: batch, Metrics: NewMetrics(nil), Log: log.New(io.Discard, "", 0)}
	for i := 0; i < n; i++ {
		l.Agents = append(l.Agents, &Agent{ID: i, Capacity: testCap, Exec: &Synthetic{Compression: 1}})
	}
	return l
}

// sweep steps the link until every agent had one slot.
func sweep(t *testing.T, l *Link, c Caller, now time.Time) {
	t.Helper()
	for i := 0; i < len(l.Agents); i += l.batch() {
		if err := l.Step(c, now); err != nil {
			t.Fatalf("step at %v: %v", now.Sub(t0), err)
		}
	}
}

func owed(a *Agent) []workload.TaskID {
	var ids []workload.TaskID
	for _, c := range a.undelivered {
		ids = append(ids, c.Task)
	}
	return ids
}

// TestFailedFrameRetainsCompletions: whatever way a frame fails, every
// completion it carried is back with its agent in order, ahead of what
// finishes later, and reaches the RM exactly once afterwards.
func TestFailedFrameRetainsCompletions(t *testing.T) {
	shortReply := func(m *wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.TypeHeartbeatBatchReply, HeartbeatBatchReply: &wire.HeartbeatBatchReply{
			Replies: []wire.NMBeatReply{{NodeID: m.HeartbeatBatch.Beats[0].NodeID}},
		}}, nil
	}
	wrongNode := func(m *wire.Message) (*wire.Message, error) {
		br := &wire.HeartbeatBatchReply{}
		for _, hb := range m.HeartbeatBatch.Beats {
			br.Replies = append(br.Replies, wire.NMBeatReply{NodeID: hb.NodeID})
		}
		br.Replies[1].NodeID = 99
		return &wire.Message{Type: wire.TypeHeartbeatBatchReply, HeartbeatBatchReply: br}, nil
	}
	cases := []struct {
		name       string
		batch      int
		unregister bool // the failing frame is a registration, as after a redial
		fault      func(*wire.Message) (*wire.Message, error)
		wantErr    string
		// rejected: the RM refused the beat, not the transport; the agent
		// re-registers by itself and no redial is simulated before recovery.
		rejected bool
	}{
		{name: "transport failure mid-beat", batch: 1, fault: cut, wantErr: "connection cut"},
		{name: "transport failure mid-register", batch: 1, unregister: true, fault: cut, wantErr: "connection cut"},
		{name: "transport failure mid-batch", batch: 2, fault: cut, wantErr: "connection cut"},
		{name: "registration fails behind a gathered beat", batch: 2, unregister: true, fault: cut, wantErr: "connection cut"},
		{name: "batch reply of the wrong length", batch: 2, fault: shortReply, wantErr: "batch reply mismatch"},
		{name: "batch reply that is not a batch reply", batch: 2, fault: rmError("boom"), wantErr: "batch reply mismatch"},
		{name: "one beat answered by a frame error", batch: 1, fault: rmError("boom"), wantErr: "batch reply mismatch"},
		{name: "batch reply entry for the wrong node", batch: 2, fault: wrongNode, wantErr: "is for node 99"},
		{name: "heartbeat rejected", batch: 1, fault: rejectBeats("node 0 must re-register"), rejected: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rm := newScriptedRM()
			l := testLink(tc.batch, tc.batch)
			sweep(t, l, rm, at(0)) // register
			for _, a := range l.Agents {
				rm.launch[a.ID] = []wire.TaskLaunch{
					launchOf(tid(a.ID, 1), 1), launchOf(tid(a.ID, 0), 1), launchOf(tid(a.ID, 2), 3)}
			}
			sweep(t, l, rm, at(0)) // launches arrive
			if tc.unregister {
				// What Run does between sessions; with two agents only the
				// second re-registers, so the first's beat is already
				// gathered when the registration fails.
				l.Agents[len(l.Agents)-1].registered = false
			}
			rm.fault = tc.fault
			err := l.Step(rm, at(2))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Step: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Step error = %v, want one containing %q", err, tc.wantErr)
			}
			for _, a := range l.Agents {
				want := []workload.TaskID{tid(a.ID, 0), tid(a.ID, 1)}
				if got := owed(a); !reflect.DeepEqual(got, want) {
					t.Fatalf("node %d owes %v after the failure, want %v", a.ID, got, want)
				}
				if len(rm.completed[a.ID]) != 0 {
					t.Fatalf("node %d: scripted RM acked %v from a failed frame", a.ID, rm.completed[a.ID])
				}
			}
			if tc.rejected {
				if l.Agents[0].registered {
					t.Fatal("a rejected agent stayed registered")
				}
			} else {
				for _, a := range l.Agents {
					a.registered = false // the redial
				}
			}
			sweep(t, l, rm, at(4)) // re-register: carries the debt and what finished since
			sweep(t, l, rm, at(5))
			for _, a := range l.Agents {
				want := []workload.TaskID{tid(a.ID, 0), tid(a.ID, 1), tid(a.ID, 2)}
				if got := rm.completed[a.ID]; !reflect.DeepEqual(got, want) {
					t.Errorf("node %d delivered %v, want %v exactly once and in order", a.ID, got, want)
				}
				last := rm.registered[len(rm.registered)-len(l.Agents)+a.ID]
				if len(last.Completed) != 3 || len(last.Running) != 0 {
					t.Errorf("node %d re-registered with %d completions and %d running, want 3 and 0",
						a.ID, len(last.Completed), len(last.Running))
				}
			}
		})
	}
}

// TestResentLaunch: a launch the RM sends twice starts one attempt and
// counts once.
func TestResentLaunch(t *testing.T) {
	rm := newScriptedRM()
	l := testLink(1, 1)
	sweep(t, l, rm, at(0))
	for i := 0; i < 2; i++ {
		rm.launch[0] = []wire.TaskLaunch{launchOf(tid(7, 0), 2)}
		sweep(t, l, rm, at(float64(i)))
	}
	if got := l.Metrics.Launched.Value(); got != 1 {
		t.Errorf("launched counter = %d after a re-sent launch, want 1", got)
	}
	if got := l.Metrics.Running.Value(); got != 1 {
		t.Errorf("running gauge = %v, want 1", got)
	}
	sweep(t, l, rm, at(1.5))
	if got := rm.used[0]; got != testDemand {
		t.Errorf("usage %v after a re-sent launch, want one task's %v", got, testDemand)
	}
	sweep(t, l, rm, at(2)) // due by the first launch's clock, not the second's
	if got := rm.completed[0]; !reflect.DeepEqual(got, []workload.TaskID{tid(7, 0)}) {
		t.Errorf("completions %v, want the one attempt once", got)
	}
}

// TestKillAndPreempt: a stopped attempt frees its usage and never reports
// a completion; stopping what is not running counts nothing.
func TestKillAndPreempt(t *testing.T) {
	rm := newScriptedRM()
	l := testLink(1, 1)
	sweep(t, l, rm, at(0))
	rm.launch[0] = []wire.TaskLaunch{launchOf(tid(1, 0), 5), launchOf(tid(1, 1), 5), launchOf(tid(1, 2), 5)}
	sweep(t, l, rm, at(0))
	rm.fault = func(*wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.TypeHeartbeatBatchReply, HeartbeatBatchReply: &wire.HeartbeatBatchReply{
			Replies: []wire.NMBeatReply{{NodeID: 0, Reply: wire.NMReply{
				Kill:    []workload.TaskID{tid(1, 0), tid(9, 9)},
				Preempt: []wire.TaskPreempt{{Task: tid(1, 1)}, {Task: tid(9, 8)}},
			}}},
		}}, nil
	}
	sweep(t, l, rm, at(1))
	sweep(t, l, rm, at(2))
	if got := rm.used[0]; got != testDemand {
		t.Errorf("usage %v after one kill and one preemption of three tasks, want %v", got, testDemand)
	}
	sweep(t, l, rm, at(6))
	if got := rm.completed[0]; !reflect.DeepEqual(got, []workload.TaskID{tid(1, 2)}) {
		t.Errorf("completions %v, want only the surviving task", got)
	}
	m := l.Metrics
	if m.Killed.Value() != 1 || m.Preempted.Value() != 1 || m.Completed.Value() != 1 || m.Running.Value() != 0 {
		t.Errorf("killed %d preempted %d completed %d running %v, want 1 1 1 0",
			m.Killed.Value(), m.Preempted.Value(), m.Completed.Value(), m.Running.Value())
	}
}

// TestDeltaResumesFullAfterReregistration: steady beats compress to
// deltas; the first beat after any re-registration — rejected beat or new
// session — is a full report again.
func TestDeltaResumesFullAfterReregistration(t *testing.T) {
	rm := newScriptedRM()
	l := testLink(1, 1)
	for i := 0; i < 4; i++ { // register, full, delta, delta
		sweep(t, l, rm, at(float64(i)))
	}
	if rm.full[0] != 1 || l.Metrics.DeltaBeats.Value() != 2 {
		t.Fatalf("steady state: %d full beats, %d deltas, want 1 and 2", rm.full[0], l.Metrics.DeltaBeats.Value())
	}
	rm.fault = rejectBeats("unregistered node 0")
	for i := 4; i < 8; i++ { // rejected, register, full, delta
		sweep(t, l, rm, at(float64(i)))
	}
	if rm.full[0] != 2 {
		t.Errorf("%d full beats after an in-place re-registration, want 2", rm.full[0])
	}
	l.Agents[0].registered = false // what Run does before a new session
	for i := 8; i < 11; i++ {      // register, full, delta
		sweep(t, l, rm, at(float64(i)))
	}
	if rm.full[0] != 3 || !rm.lastBeat[0].Delta {
		t.Errorf("%d full beats after a second registration (last beat delta: %v), want 3 and a delta",
			rm.full[0], rm.lastBeat[0].Delta)
	}
	if got := len(rm.registered); got != 3 {
		t.Errorf("%d registrations, want 3", got)
	}
}

// TestBatchEntryErrorReregistersThatNodeOnly: a per-entry rejection inside
// a batch reply costs that node a registration; its neighbours' replies
// are applied and the connection lives on.
func TestBatchEntryErrorReregistersThatNodeOnly(t *testing.T) {
	rm := newScriptedRM()
	l := testLink(3, 3)
	sweep(t, l, rm, at(0))
	rm.fault = func(m *wire.Message) (*wire.Message, error) {
		br := &wire.HeartbeatBatchReply{}
		for _, hb := range m.HeartbeatBatch.Beats {
			e := wire.NMBeatReply{NodeID: hb.NodeID}
			if hb.NodeID == 1 {
				e.Error = "unregistered node 1"
			} else {
				e.Reply.Launch = []wire.TaskLaunch{launchOf(tid(hb.NodeID, 0), 1)}
			}
			br.Replies = append(br.Replies, e)
		}
		return &wire.Message{Type: wire.TypeHeartbeatBatchReply, HeartbeatBatchReply: br}, nil
	}
	sweep(t, l, rm, at(1))
	if got := l.Metrics.Launched.Value(); got != 2 {
		t.Errorf("%d launches applied from the batch's healthy entries, want 2", got)
	}
	rm.frames = nil
	sweep(t, l, rm, at(2))
	if want := []string{wire.TypeRegisterNM, wire.TypeHeartbeatBatch}; !reflect.DeepEqual(rm.frames, want) {
		t.Errorf("frames after the rejection %v, want %v", rm.frames, want)
	}
	if got := rm.registered[len(rm.registered)-1].NodeID; got != 1 {
		t.Errorf("node %d re-registered, want node 1", got)
	}
	if got := l.Metrics.Registered.Value(); got != 4 {
		t.Errorf("%d registrations, want 4 (three nodes once, node 1 again)", got)
	}
}

// TestSilentAgentSendsNoFrame: an agent the Silent hook mutes takes its
// slot without a frame, alone or inside a batch.
func TestSilentAgentSendsNoFrame(t *testing.T) {
	for _, batch := range []int{1, 2} {
		rm := newScriptedRM()
		l := testLink(2, batch)
		sweep(t, l, rm, at(0))
		l.Silent = func(a *Agent, _ time.Time) bool { return a.ID == 1 }
		rm.frames = nil
		delete(rm.lastBeat, 1)
		sweep(t, l, rm, at(1))
		if len(rm.frames) != 1 {
			t.Errorf("batch %d: frames %v with one of two agents silent, want one", batch, rm.frames)
		}
		if _, spoke := rm.lastBeat[1]; spoke {
			t.Errorf("batch %d: the silent agent's beat reached the RM", batch)
		}
		if got := l.Metrics.Heartbeats.Value(); got != 1 {
			t.Errorf("batch %d: %d heartbeats counted, want 1", batch, got)
		}
	}
}

// listenRM serves the scripted handler on a loopback socket, one
// goroutine per connection, until the test ends.
func listenRM(t *testing.T, handle func(*wire.Message) *wire.Message) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				framer := wire.NewServerFramer()
				for {
					m, err := framer.Read(conn)
					if err != nil {
						return
					}
					if err := framer.Write(conn, handle(m)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRefusedRegistrationEndsRun: a registration the RM refuses ends Run
// with the typed error instead of a redial, for a real node and for a
// fleet link whose other agents registered fine.
func TestRefusedRegistrationEndsRun(t *testing.T) {
	addr := listenRM(t, func(m *wire.Message) *wire.Message {
		if m.Type == wire.TypeRegisterNM && m.RegisterNM.NodeID == 3 {
			return &wire.Message{Type: wire.TypeError, Error: "invalid node id 3"}
		}
		return &wire.Message{Type: wire.TypeNMReply, NMReply: &wire.NMReply{}}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	check := func(who string, err error) {
		t.Helper()
		var refused *RefusedError
		if !errors.As(err, &refused) {
			t.Fatalf("%s: Run returned %v, want a *RefusedError", who, err)
		}
		if refused.NodeID != 3 || !strings.Contains(refused.Reason, "invalid node id") {
			t.Errorf("%s: refused = %+v", who, refused)
		}
	}
	node := New(Config{NodeID: 3, Capacity: testCap, RMAddr: addr, Heartbeat: 5 * time.Millisecond})
	check("node", node.Run(ctx))
	if got := node.link.Metrics.Reconnects.Value(); got != 0 {
		t.Errorf("node: %d reconnects after a refusal, want 0", got)
	}

	fleet := testLink(5, 2)
	fleet.Addr, fleet.Heartbeat = addr, 5*time.Millisecond
	check("fleet link", fleet.Run(ctx, faults.NewBackoff(time.Millisecond, time.Millisecond, 1), math.MaxInt))
	if got := fleet.Metrics.Registered.Value(); got != 3 {
		t.Errorf("fleet link: %d agents registered before the refusal, want 3", got)
	}
}

// TestIdleNodeReportsZero: a real NM reports exactly zero usage before it
// runs anything, and again once every task it ran has finished, although
// adding and subtracting their demands leaves a rounding residue.
func TestIdleNodeReportsZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := New(Config{NodeID: 0, Capacity: testCap, Compression: 1})
	n.ctx = ctx
	l, rm := n.link, newScriptedRM()
	sweep(t, l, rm, time.Now()) // registers
	sweep(t, l, rm, time.Now())
	if rm.full[0] == 0 {
		t.Fatal("a fresh node sent no full beat")
	}
	if got := rm.used[0]; got != (resources.Vector{}) {
		t.Fatalf("a fresh node reports %v, want zero", got)
	}

	// 0.1 + 0.2 - 0.1 - 0.2 is not zero in floating point, whichever
	// task finishes first.
	d1 := resources.New(0.1, 0.1, 0, 0, 0, 0)
	d2 := resources.New(0.2, 0.2, 0, 0, 0, 0)
	if d1.Add(d2).Sub(d1).Sub(d2) == (resources.Vector{}) {
		t.Fatal("the demands cancel exactly; the test would not see a residue")
	}
	rm.launch[0] = []wire.TaskLaunch{
		{Task: tid(1, 0), Demand: d1, Duration: 0.05},
		{Task: tid(1, 1), Demand: d2, Duration: 0.05},
	}
	sweep(t, l, rm, time.Now()) // acks the launches
	testutil.WaitFor(t, 5*time.Second, "both tasks' completions", func() bool {
		sweep(t, l, rm, time.Now())
		return len(rm.completed[0]) == 2
	})
	sweep(t, l, rm, time.Now())
	if got := rm.used[0]; got != (resources.Vector{}) {
		t.Fatalf("a node whose tasks all finished reports %v, want exactly zero", got)
	}
}

// TestFinishedTaskLeavesReport: a real NM's beat reports the sum of its
// running tasks' demands; a task that finishes or is stopped takes its
// demand off, and an idle node reports exactly zero, however the
// additions and subtractions rounded.
func TestFinishedTaskLeavesReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := New(Config{NodeID: 0, Capacity: testCap, Compression: 1})
	n.ctx = ctx
	l, rm := n.link, newScriptedRM()
	d1 := resources.New(0.1, 0.2, 0, 0, 0, 0)
	d2 := resources.New(0.2, 0.4, 0, 0, 0, 0)
	d3 := resources.New(0.3, 0.1, 0, 0, 0, 0)
	launch := func(id workload.TaskID, d resources.Vector, sec float64) wire.TaskLaunch {
		return wire.TaskLaunch{Task: id, Demand: d, Duration: sec}
	}
	short := tid(1, 2)
	rm.launch[0] = []wire.TaskLaunch{launch(tid(1, 0), d1, 3600), launch(tid(1, 1), d2, 3600), launch(short, d3, 0.05)}
	sweep(t, l, rm, time.Now()) // registers
	sweep(t, l, rm, time.Now()) // acks the launches
	used := func(step string, want resources.Vector) {
		t.Helper()
		sweep(t, l, rm, time.Now())
		if got := rm.used[0]; got != want {
			t.Fatalf("%s: beat reports %v, want %v", step, got, want)
		}
	}
	want := d1.Add(d2).Add(d3)
	used("three running", want)

	testutil.WaitFor(t, 5*time.Second, "the short task's completion", func() bool {
		sweep(t, l, rm, time.Now())
		return len(rm.completed[0]) == 1 && rm.completed[0][0] == short
	})
	want = want.Sub(d3).Max(resources.Vector{})
	if got := rm.used[0]; got != want {
		t.Fatalf("the beat carrying the completion reports %v, want %v", got, want)
	}

	rm.fault = func(m *wire.Message) (*wire.Message, error) {
		r, _ := rm.Call(m)
		r.HeartbeatBatchReply.Replies[0].Reply.Kill = []workload.TaskID{tid(1, 1)}
		return r, nil
	}
	sweep(t, l, rm, time.Now())
	used("one killed", want.Sub(d2).Max(resources.Vector{}))

	rm.fault = func(m *wire.Message) (*wire.Message, error) {
		r, _ := rm.Call(m)
		r.HeartbeatBatchReply.Replies[0].Reply.Preempt = []wire.TaskPreempt{{Task: tid(1, 0)}}
		return r, nil
	}
	sweep(t, l, rm, time.Now())
	used("idle", resources.Vector{})
}
