package rm

// Differential proof of the delta-heartbeat protocol: an identical,
// deterministic workload is driven through two live RMs — one fed full
// availability reports every beat, one fed wire.DeltaTracker-compressed
// beats — and every reply and the complete allocation ledgers (machine
// Allocated/Reported, job Alloc, launch records, remote charges, task
// status) must stay bit-identical throughout. Delta reports are a pure
// wire-size optimization; any behavioural difference is a bug.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/trace"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// emuNode replays a node manager's heartbeat state machine in-process:
// launches run for a deterministic number of beats, then complete with
// their declared usage. One emuNode instance drives one RM; the full-
// and delta-mode instances receive identical reply sequences (asserted
// below), so they evolve in lockstep.
type emuNode struct {
	id      int
	cap     resources.Vector
	delta   bool
	trip    *codecTrip // non-nil: frames round-trip through the binary codec
	tracker wire.DeltaTracker
	running map[workload.TaskID]wire.TaskLaunch
	beatsIn map[workload.TaskID]int // beats left until completion
}

func newEmuNode(id int, capacity resources.Vector, delta bool) *emuNode {
	return &emuNode{
		id: id, cap: capacity, delta: delta,
		running: make(map[workload.TaskID]wire.TaskLaunch),
		beatsIn: make(map[workload.TaskID]int),
	}
}

// codecTrip round-trips messages through the actual binary wire codec
// (encode with a binary Framer, decode with another), yielding exactly
// the struct an RM behind a real socket would see. Equivalence of the
// resulting ledgers is the proof that the codec is a pure encoding: any
// value it mangles shows up as a digest divergence.
type codecTrip struct {
	enc, dec *wire.Framer
	buf      bytes.Buffer
}

func newCodecTrip() *codecTrip {
	return &codecTrip{enc: wire.NewFramer(wire.CodecBinary), dec: wire.NewFramer(wire.CodecJSON)}
}

// roundTrip encodes and decodes m. The result aliases the decoding
// Framer's scratch and is valid only until the next roundTrip.
func (c *codecTrip) roundTrip(t *testing.T, m *wire.Message) *wire.Message {
	t.Helper()
	c.buf.Reset()
	if err := c.enc.Write(&c.buf, m); err != nil {
		t.Fatalf("codec round-trip write: %v", err)
	}
	out, err := c.dec.Read(&c.buf)
	if err != nil {
		t.Fatalf("codec round-trip read: %v", err)
	}
	return out
}

func (n *emuNode) sortedRunning() []workload.TaskID {
	ids := make([]workload.TaskID, 0, len(n.running))
	for tid := range n.running {
		ids = append(ids, tid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// usage returns the node's report: every running task occupies exactly
// its declared demand. Summed in sorted task order — float addition is
// not associative, and the full- and delta-mode emulators must feed
// their RMs bit-identical vectors.
func (n *emuNode) usage() resources.Vector {
	var u resources.Vector
	for _, tid := range n.sortedRunning() {
		u = u.Add(n.running[tid].Demand)
	}
	return u
}

// prepareBeat computes the node's next heartbeat (completions due this
// beat, usage, delta compression). The caller must deliver it and hand
// the verdict to finishBeat.
func (n *emuNode) prepareBeat() *wire.NMHeartbeat {
	var done []wire.TaskCompletion
	for _, tid := range n.sortedRunning() {
		n.beatsIn[tid]--
		if n.beatsIn[tid] <= 0 {
			l := n.running[tid]
			done = append(done, wire.TaskCompletion{Task: tid, Usage: l.Demand, Duration: l.Duration})
			delete(n.running, tid)
			delete(n.beatsIn, tid)
		}
	}
	u := n.usage()
	hb := &wire.NMHeartbeat{NodeID: n.id, Used: u, Completed: done}
	if n.delta {
		n.tracker.Mark(hb)
	}
	return hb
}

// finishBeat acknowledges and applies one heartbeat's reply.
func (n *emuNode) finishBeat(t *testing.T, reply *wire.Message) {
	t.Helper()
	if reply.Type == wire.TypeError {
		t.Fatalf("node %d heartbeat rejected: %s", n.id, reply.Error)
	}
	if n.delta {
		n.tracker.Ack(reply.NMReply)
	}
	n.apply(reply.NMReply)
}

// beat performs one heartbeat exchange against s and applies the reply,
// passing request and reply through the binary codec when configured.
func (n *emuNode) beat(t *testing.T, s *Sharded) *wire.Message {
	t.Helper()
	hb := n.prepareBeat()
	var reply *wire.Message
	if n.trip == nil {
		reply = s.HandleNMHeartbeat(hb)
	} else {
		reply, _ = s.Call(n.trip.roundTrip(t, beatFrame(*hb)))
		reply = beatReply(n.trip.roundTrip(t, reply))
	}
	n.finishBeat(t, reply)
	return reply
}

// register (re-)registers the node carrying its current truth, as a
// reconnecting NM would, and resets the delta baseline like a real
// session boundary does.
func (n *emuNode) register(t *testing.T, s *Sharded) *wire.Message {
	t.Helper()
	reg := &wire.RegisterNM{NodeID: n.id, Capacity: n.cap, Running: n.sortedRunning()}
	if n.trip != nil {
		reg = n.trip.roundTrip(t, &wire.Message{Type: wire.TypeRegisterNM, RegisterNM: reg}).RegisterNM
	}
	reply := s.nodeShard(n.id).handleRegisterNM(reg)
	if n.trip != nil {
		reply = n.trip.roundTrip(t, reply)
	}
	if reply.Type == wire.TypeError {
		t.Fatalf("node %d registration rejected: %s", n.id, reply.Error)
	}
	n.tracker.Reset()
	n.apply(reply.NMReply)
	return reply
}

func (n *emuNode) apply(r *wire.NMReply) {
	if r == nil {
		return
	}
	for _, tid := range r.Kill {
		delete(n.running, tid)
		delete(n.beatsIn, tid)
	}
	for _, l := range r.Launch {
		n.running[l.Task] = l
		// Deterministic emulated runtime: 1–3 beats, varied by task
		// identity so stages drain unevenly.
		n.beatsIn[l.Task] = 1 + (l.Task.Index+l.Task.Stage)%3
	}
}

// ledgerDigest canonically encodes the RM state the delta protocol
// could corrupt: machine ledgers (including the soft Reported view the
// scheduler packs against), job ledgers, launch records with remote
// charges and epochs, and task status. Float64s are encoded as exact
// bits — the equivalence claimed is bit-identity, not closeness.
// Journal/event times are deliberately excluded: the two servers run at
// different wall clocks by construction.
func ledgerDigest(s *Server) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b bytes.Buffer
	vec := func(v resources.Vector) {
		for k := 0; k < int(resources.NumKinds); k++ {
			fmt.Fprintf(&b, "%016x,", math.Float64bits(v.Get(resources.Kind(k))))
		}
	}
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		fmt.Fprintf(&b, "m%d down=%v epoch=%d ", n.ID, n.Down, n.epoch)
		vec(n.Capacity)
		vec(n.Allocated)
		vec(n.Reported)
		fmt.Fprintf(&b, "needFull=%v\n", n.needFull)
	}
	for _, jobID := range s.jobIDs() {
		ji := s.jobs[jobID]
		fmt.Fprintf(&b, "j%d finished=%v failed=%v ", jobID, ji.finished, ji.failed)
		vec(ji.state.Alloc)
		fmt.Fprintf(&b, "done=%d\n", ji.state.Status.DoneTasks())
		for _, tid := range launchedIDs(ji, -1) {
			rec := ji.launch(tid)
			fmt.Fprintf(&b, "  %v@%d ", tid, rec.machine)
			vec(rec.local)
			for _, rc := range rec.remote {
				fmt.Fprintf(&b, " r%d/e%d ", rc.machine, rc.epoch)
				vec(rc.charge)
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func replyJSON(t *testing.T, m *wire.Message) string {
	t.Helper()
	j, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

func TestDeltaHeartbeatLedgerEquivalence(t *testing.T) {
	newSrv := func() *Sharded {
		s, err := NewSharded("127.0.0.1:0", ShardedConfig{
			Shards:       1,
			NewScheduler: tetrisScheduler,
			NewEstimator: estimator.New,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	// Four RMs fed the same deterministic workload:
	//   full    — full JSON-struct beats every round (the oracle),
	//   compressed — DeltaTracker-compressed beats,
	//   binary  — delta beats round-tripped through the binary codec,
	//   batched — delta beats through the binary codec, coalesced into
	//             one HeartbeatBatch frame per round.
	// Bit-identical ledger digests across all four prove that delta
	// compression, the binary encoding, and heartbeat batching are each
	// pure wire optimizations.
	full, compressed, binarySrv, batchedSrv := newSrv(), newSrv(), newSrv(), newSrv()

	const nodes = 6
	caps := make([]resources.Vector, nodes)
	fullNodes := make([]*emuNode, nodes)
	deltaNodes := make([]*emuNode, nodes)
	binaryNodes := make([]*emuNode, nodes)
	batchedNodes := make([]*emuNode, nodes)
	batchTrip := newCodecTrip()
	registerAll := func(i int) {
		ra := fullNodes[i].register(t, full)
		rb := deltaNodes[i].register(t, compressed)
		rc := binaryNodes[i].register(t, binarySrv)
		rd := batchedNodes[i].register(t, batchedSrv)
		a := replyJSON(t, ra)
		for mode, r := range map[string]*wire.Message{"delta": rb, "binary": rc, "batched": rd} {
			if b := replyJSON(t, r); a != b {
				t.Fatalf("register reply divergence at node %d (%s):\n full: %s\nother: %s", i, mode, a, b)
			}
		}
	}
	for i := 0; i < nodes; i++ {
		// Heterogeneous capacities so packing decisions are non-trivial.
		caps[i] = resources.New(16+float64(i%3)*8, 32+float64(i%2)*32, 200, 200, 1000, 1000)
		fullNodes[i] = newEmuNode(i, caps[i], false)
		deltaNodes[i] = newEmuNode(i, caps[i], true)
		binaryNodes[i] = newEmuNode(i, caps[i], true)
		binaryNodes[i].trip = newCodecTrip()
		batchedNodes[i] = newEmuNode(i, caps[i], true)
		batchedNodes[i].trip = batchTrip
		registerAll(i)
	}

	// A seeded workload with diverse multi-resource demands; shrunk so
	// the run completes within a few hundred beats.
	wl := trace.GenerateSuite(trace.Config{Seed: 7, NumJobs: 8, NumMachines: nodes})
	for _, j := range wl.Jobs {
		for _, st := range j.Stages {
			if len(st.Tasks) > 12 {
				st.Tasks = st.Tasks[:12]
			}
		}
	}

	submit := func(s *Sharded, j *workload.Job) {
		if err := s.SubmitJob(j); err != nil {
			t.Fatalf("submit job %d: %v", j.ID, err)
		}
	}

	servers := map[string]*Sharded{
		"full": full, "delta": compressed, "binary": binarySrv, "batched": batchedSrv,
	}
	deltaSent := 0
	const rounds = 120
	for r := 0; r < rounds; r++ {
		// Staggered arrivals: one job every 4 rounds.
		if r%4 == 0 && r/4 < len(wl.Jobs) {
			for _, s := range servers {
				submit(s, wl.Jobs[r/4])
			}
		}
		// Mid-run link blip: node 2 re-registers with its running set,
		// exercising resync reconciliation plus the delta baseline
		// reset and the RM's FullReport request path.
		if r == 37 || r == 73 {
			registerAll(2)
		}
		// The batched fleet gathers the whole round's beats before any is
		// processed, like one shared connection's batch window would.
		beats := make([]wire.NMHeartbeat, 0, nodes)
		for i := 0; i < nodes; i++ {
			beats = append(beats, *batchedNodes[i].prepareBeat())
		}
		batchMsg := batchTrip.roundTrip(t, &wire.Message{Type: wire.TypeHeartbeatBatch,
			HeartbeatBatch: &wire.HeartbeatBatch{Beats: beats}})
		batchReply := batchTrip.roundTrip(t, batchedSrv.HandleHeartbeatBatch(batchMsg.HeartbeatBatch))
		entries := batchReply.HeartbeatBatchReply.Replies
		if len(entries) != nodes {
			t.Fatalf("round %d: batch reply has %d entries, want %d", r, len(entries), nodes)
		}

		for i := 0; i < nodes; i++ {
			ra := fullNodes[i].beat(t, full)
			rb := deltaNodes[i].beat(t, compressed)
			rc := binaryNodes[i].beat(t, binarySrv)
			// Reconstruct the per-node message the batch entry stands for:
			// entry error ⇒ the typed error, else the node's NMReply.
			e := entries[i]
			if e.NodeID != fullNodes[i].id {
				t.Fatalf("round %d: batch entry %d is for node %d", r, i, e.NodeID)
			}
			rd := &wire.Message{Type: wire.TypeNMReply, NMReply: &e.Reply}
			if e.Error != "" {
				rd = &wire.Message{Type: wire.TypeError, Error: e.Error}
			}
			batchedNodes[i].finishBeat(t, rd)
			a := replyJSON(t, ra)
			for mode, rr := range map[string]*wire.Message{"delta": rb, "binary": rc, "batched": rd} {
				if b := replyJSON(t, rr); a != b {
					t.Fatalf("round %d node %d reply divergence (%s):\n full: %s\nother: %s", r, i, mode, a, b)
				}
			}
		}
		da := ledgerDigest(full.Shard(0))
		for mode, s := range servers {
			if mode == "full" {
				continue
			}
			if db := ledgerDigest(s.Shard(0)); !bytes.Equal(da, db) {
				la, lb := bytes.Split(da, []byte("\n")), bytes.Split(db, []byte("\n"))
				for i := 0; i < len(la) && i < len(lb); i++ {
					if !bytes.Equal(la[i], lb[i]) {
						t.Fatalf("round %d ledger divergence (%s) at line %d:\n full: %s\nother: %s", r, mode, i, la[i], lb[i])
					}
				}
				t.Fatalf("round %d ledger divergence (%s): %d vs %d lines", r, mode, len(la), len(lb))
			}
		}
		for mode, s := range servers {
			if err := s.VerifyLedger(); err != nil {
				t.Fatalf("round %d %s-mode ledger drift: %v", r, mode, err)
			}
		}
	}
	deltaSent = int(compressed.Shard(0).metrics.deltaBeats.Value())
	if deltaSent == 0 {
		t.Fatal("delta mode never actually compressed a heartbeat — the test proved nothing")
	}
	if binaryDeltas := int(binarySrv.Shard(0).metrics.deltaBeats.Value()); binaryDeltas != deltaSent {
		t.Fatalf("binary codec changed delta compression: %d beats vs %d", binaryDeltas, deltaSent)
	}
	if batchedDeltas := int(batchedSrv.Shard(0).metrics.deltaBeats.Value()); batchedDeltas != deltaSent {
		t.Fatalf("batching changed delta compression: %d beats vs %d", batchedDeltas, deltaSent)
	}
	if fullSent := int(full.Shard(0).metrics.deltaBeats.Value()); fullSent != 0 {
		t.Fatalf("full mode recorded %d delta beats", fullSent)
	}
	t.Logf("equivalent over %d rounds × %d nodes × 4 codec/batch modes; %d/%d beats compressed",
		rounds, nodes, deltaSent, rounds*nodes)
}

// TestDeltaFullReportAfterReset proves the RM refuses to let a delta
// beat pin a stale baseline across its view resets: a freshly
// registered node and a dead-then-rejoining node both get FullReport
// until they send a full beat.
func TestDeltaFullReportAfterReset(t *testing.T) {
	s := newServer(t)
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	s.RegisterMachine(0, capV)

	// A delta beat straight after registration: the RM has no baseline,
	// must ask for a full report, and must not invent a Reported value.
	reply := s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Delta: true})
	if reply.Type == wire.TypeError {
		t.Fatalf("delta beat rejected: %s", reply.Error)
	}
	if !reply.NMReply.FullReport {
		t.Fatal("no FullReport after registration reset the RM's view")
	}

	// The full beat re-baselines and clears the request.
	u := resources.New(4, 8, 0, 0, 0, 0)
	reply = s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Used: u})
	if reply.NMReply.FullReport {
		t.Fatal("FullReport still set after a full beat")
	}
	core := s.Shard(0)
	core.mu.Lock()
	got := core.nodes[0].Reported
	core.mu.Unlock()
	if got != u {
		t.Fatalf("Reported = %v, want %v", got, u)
	}

	// Steady-state delta beats keep the view and draw no FullReport.
	reply = s.HandleNMHeartbeat(&wire.NMHeartbeat{NodeID: 0, Delta: true})
	if reply.NMReply.FullReport {
		t.Fatal("FullReport on a steady-state delta beat")
	}
	core.mu.Lock()
	got = core.nodes[0].Reported
	core.mu.Unlock()
	if got != u {
		t.Fatalf("delta beat moved Reported to %v, want %v", got, u)
	}
}
