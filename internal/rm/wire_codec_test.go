package rm

// Wire-level tests of the binary codec and heartbeat batching against
// live RMs: mixed-codec sessions (one JSON peer, one binary peer on the
// same server), the codec chosen by message type observed on the raw
// socket, a retired v0 frame and the retired single-beat frame refused at
// the socket, and batch fan-out semantics at one shard and several.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/wire"
)

func dialRM(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestMixedCodecSessions runs a JSON peer and a binary peer against one
// live RM concurrently-registered: both register, heartbeat, and see
// equivalent verdicts. The server reads either codec and answers both in
// the codec of the reply's type.
func TestMixedCodecSessions(t *testing.T) {
	s := newServer(t)
	capV := resources.New(16, 32, 200, 200, 1000, 1000)

	// JSON peer: the oracle Framer, which writes every type as JSON; node 0.
	jsonPeer := dialRM(t, s.Addr())
	jf := wire.NewFramer(wire.CodecJSON)
	if err := jf.Write(jsonPeer, &wire.Message{Type: wire.TypeRegisterNM,
		RegisterNM: &wire.RegisterNM{NodeID: 0, Capacity: capV}}); err != nil {
		t.Fatal(err)
	}
	if m, err := jf.Read(jsonPeer); err != nil || m.NMReply == nil {
		t.Fatalf("JSON register reply: m=%+v err=%v", m, err)
	}

	// Binary peer: the protocol's Framer, node 1.
	binPeer := dialRM(t, s.Addr())
	f := wire.NewFramer(wire.CodecBinary)
	if err := f.Write(binPeer, &wire.Message{Type: wire.TypeRegisterNM,
		RegisterNM: &wire.RegisterNM{NodeID: 1, Capacity: capV}}); err != nil {
		t.Fatal(err)
	}
	if m, err := f.Read(binPeer); err != nil || m.NMReply == nil {
		t.Fatalf("binary register reply: m=%+v err=%v", m, err)
	}

	// Interleaved one-beat frames on both sessions.
	for round := 0; round < 5; round++ {
		if err := jf.Write(jsonPeer, beatFrame(wire.NMHeartbeat{NodeID: 0, Used: capV.Scale(0.1)})); err != nil {
			t.Fatal(err)
		}
		if m, err := jf.Read(jsonPeer); err != nil || beatReply(m).NMReply == nil {
			t.Fatalf("JSON beat %d: m=%+v err=%v", round, m, err)
		}
		if err := f.Write(binPeer, beatFrame(wire.NMHeartbeat{NodeID: 1, Used: capV.Scale(0.2)})); err != nil {
			t.Fatal(err)
		}
		if m, err := f.Read(binPeer); err != nil || beatReply(m).NMReply == nil {
			t.Fatalf("binary beat %d: m=%+v err=%v", round, m, err)
		}
	}

	// An unregistered node's beat draws the same typed error through
	// both codecs.
	if err := jf.Write(jsonPeer, beatFrame(wire.NMHeartbeat{NodeID: 77})); err != nil {
		t.Fatal(err)
	}
	ml, err := jf.Read(jsonPeer)
	if err != nil {
		t.Fatal(err)
	}
	ml = beatReply(ml)
	if err := f.Write(binPeer, beatFrame(wire.NMHeartbeat{NodeID: 77})); err != nil {
		t.Fatal(err)
	}
	mb, err := f.Read(binPeer)
	if err != nil {
		t.Fatal(err)
	}
	mb = beatReply(mb)
	if ml.Type != wire.TypeError || mb.Type != wire.TypeError || ml.Error != mb.Error {
		t.Fatalf("error divergence across codecs: json=%+v binary=%+v", ml, mb)
	}
	if !strings.Contains(mb.Error, "unregistered node 77") {
		t.Fatalf("unexpected error text: %q", mb.Error)
	}
}

// TestJSONRequestDrawsBinaryReply inspects raw reply bytes: the message
// type, not the request's codec, picks the reply's. A JSON-framed and a
// binary-framed one-beat frame both draw a magic + binary reply frame, and
// a status request in either codec draws a magic + JSON status reply, on
// the same connection back to back.
func TestJSONRequestDrawsBinaryReply(t *testing.T) {
	s := newServer(t)
	s.RegisterMachine(4, resources.New(16, 32, 200, 200, 1000, 1000))
	conn := dialRM(t, s.Addr())

	beat := beatFrame(wire.NMHeartbeat{NodeID: 4})
	status := &wire.Message{Type: wire.TypeClusterStatus}

	readRaw := func() []byte {
		t.Helper()
		var hdr [6]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[2:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		return append(hdr[:], body...)
	}

	for _, c := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		for _, ex := range []struct {
			req  *wire.Message
			want wire.Codec
		}{{beat, wire.CodecBinary}, {status, wire.CodecJSON}} {
			if err := wire.NewFramer(c).Write(conn, ex.req); err != nil {
				t.Fatal(err)
			}
			if raw := readRaw(); raw[0] != wire.Magic || raw[1] != byte(ex.want) {
				t.Fatalf("reply to a %s request in codec %d = % x, want magic+codec %d", ex.req.Type, c, raw[:6], ex.want)
			}
		}
	}
}

// TestV0FrameDropsConnection: the RM's serve loop treats the retired
// headerless frame like any protocol error — no reply, connection closed.
func TestV0FrameDropsConnection(t *testing.T) {
	s := newServer(t)
	conn := dialRM(t, s.Addr())
	// The smallest well-formed v0 frame, a 4-byte length and the body "{}",
	// is exactly one header long: the server leaves nothing unread, so its
	// close arrives as a clean EOF rather than a reset.
	if _, err := conn.Write([]byte{0, 0, 0, 2, '{', '}'}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after a v0 frame: read %d bytes, err=%v; want the connection closed with nothing sent", n, err)
	}
}

// TestRetiredBeatFrameRefused: the single-beat frame the protocol no
// longer has reaches no handler. As JSON its type is unknown and draws a
// typed error on a connection that lives on; as binary its type byte 0x03
// does not decode, so the connection drops like on any protocol error.
// Either way the RM keeps serving.
func TestRetiredBeatFrameRefused(t *testing.T) {
	s := newServer(t)
	s.RegisterMachine(4, resources.New(16, 32, 200, 200, 1000, 1000))
	send := func(conn net.Conn, codec byte, payload []byte) {
		t.Helper()
		hdr := []byte{wire.Magic, codec, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(hdr[2:], uint32(len(payload)))
		if _, err := conn.Write(append(hdr, payload...)); err != nil {
			t.Fatal(err)
		}
	}
	f := wire.NewFramer(wire.CodecBinary)

	conn := dialRM(t, s.Addr())
	send(conn, byte(wire.CodecJSON), []byte(`{"type":"nm-heartbeat","nmHeartbeat":{"nodeID":4,"delta":true}}`))
	if m, err := f.Read(conn); err != nil || m.Type != wire.TypeError || !strings.Contains(m.Error, "unknown message type") {
		t.Fatalf("JSON nm-heartbeat frame: m=%+v err=%v, want an unknown-type error", m, err)
	}
	if err := f.Write(conn, beatFrame(wire.NMHeartbeat{NodeID: 4})); err != nil {
		t.Fatal(err)
	}
	if m, err := f.Read(conn); err != nil || beatReply(m).Type != wire.TypeNMReply {
		t.Fatalf("beat after the refused frame: m=%+v err=%v", m, err)
	}

	conn = dialRM(t, s.Addr())
	send(conn, byte(wire.CodecBinary), []byte{0x03, 8 /*node 4*/, 1 /*delta*/, 0, 0, 0})
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after a 0x03 binary frame: read %d bytes, err=%v; want the connection closed with nothing sent", n, err)
	}
	conn = dialRM(t, s.Addr())
	if err := f.Write(conn, beatFrame(wire.NMHeartbeat{NodeID: 4})); err != nil {
		t.Fatal(err)
	}
	if m, err := f.Read(conn); err != nil || beatReply(m).Type != wire.TypeNMReply {
		t.Fatalf("beat on a new connection: m=%+v err=%v", m, err)
	}
}

// TestCodec1FrameRefused: a node of an earlier build beats in a retired
// binary codec, 1 or 2. The RM drops that connection with nothing sent
// and nothing applied, while a session open beside it keeps being
// served, before and after.
func TestCodec1FrameRefused(t *testing.T) {
	s := newServer(t)
	s.RegisterMachine(4, resources.New(16, 32, 200, 200, 1000, 1000))
	f := wire.NewFramer(wire.CodecBinary)
	live := dialRM(t, s.Addr())
	beat := func(step string) {
		t.Helper()
		if err := f.Write(live, beatFrame(wire.NMHeartbeat{NodeID: 4, Used: resources.New(1, 0, 0, 0, 0, 0)})); err != nil {
			t.Fatal(err)
		}
		if m, err := f.Read(live); err != nil || beatReply(m).Type != wire.TypeNMReply {
			t.Fatalf("beat %s: m=%+v err=%v", step, m, err)
		}
	}
	beat("before the old peers")

	// One beat of node 4 using 2 cores: codec 1's layout carries Used and
	// Allocated, each one dimension, codec 2's only Used — byte for byte
	// the current layout — and neither any completions.
	two := binary.LittleEndian.AppendUint64(nil, math.Float64bits(2))
	used := append([]byte{0x07, 1, 8, 0, 1}, two...)
	for codec, body := range map[byte][]byte{
		1: slices.Concat(used, []byte{1}, two, []byte{0}),
		2: slices.Concat(used, []byte{0}),
	} {
		old := dialRM(t, s.Addr())
		hdr := binary.BigEndian.AppendUint32([]byte{wire.Magic, codec}, uint32(len(body)))
		if _, err := old.Write(append(hdr, body...)); err != nil {
			t.Fatal(err)
		}
		old.SetReadDeadline(time.Now().Add(3 * time.Second))
		// Closed unread, the body left behind may turn the close into a reset.
		if n, err := old.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("after a codec-%d beat: read %d bytes, err=%v; want the connection closed with nothing sent", codec, n, err)
		}
	}
	beat("after the old peers")
	core := s.Shard(0)
	core.mu.Lock()
	defer core.mu.Unlock()
	if got, want := core.nodes[4].Reported, resources.New(1, 0, 0, 0, 0, 0); got != want {
		t.Errorf("node 4 reports %v, want the live session's %v", got, want)
	}
}

// TestHeartbeatBatch drives one batch spanning every shard over a real
// socket in binary framing, at one shard and at three: the top layer
// fans groups out to per-shard cores concurrently and reassembles
// per-node verdicts in beat order — including a typed error entry for
// an unregistered node mid-batch — with ack semantics identical to
// one-beat frames.
func TestHeartbeatBatch(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { heartbeatBatch(t, shards) })
	}
}

func heartbeatBatch(t *testing.T, shards int) {
	g, err := NewSharded("127.0.0.1:0", ShardedConfig{
		Shards:       shards,
		NewScheduler: tetrisScheduler,
		NewEstimator: estimator.New,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	const nodes, unknown = 16, 1000
	conn := dialRM(t, g.Addr())
	f := wire.NewFramer(wire.CodecBinary)
	for id := 0; id < nodes; id++ {
		if err := f.Write(conn, &wire.Message{Type: wire.TypeRegisterNM,
			RegisterNM: &wire.RegisterNM{NodeID: id, Capacity: capV}}); err != nil {
			t.Fatal(err)
		}
		if m, err := f.Read(conn); err != nil || m.NMReply == nil {
			t.Fatalf("register %d: m=%+v err=%v", id, m, err)
		}
	}
	if err := g.SubmitJob(simpleJob(1, 8)); err != nil {
		t.Fatal(err)
	}

	// Node 0, then a never-registered node (a per-node error, not a
	// dropped batch), then the rest of the fleet.
	beats := []wire.NMHeartbeat{{NodeID: 0}, {NodeID: unknown}}
	for id := 1; id < nodes; id++ {
		beats = append(beats, wire.NMHeartbeat{NodeID: id})
	}
	if err := f.Write(conn, &wire.Message{Type: wire.TypeHeartbeatBatch,
		HeartbeatBatch: &wire.HeartbeatBatch{Beats: beats}}); err != nil {
		t.Fatal(err)
	}
	m, err := f.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.TypeHeartbeatBatchReply {
		t.Fatalf("reply type = %s (%s)", m.Type, m.Error)
	}
	entries := m.HeartbeatBatchReply.Replies
	if len(entries) != len(beats) {
		t.Fatalf("%d entries, want %d", len(entries), len(beats))
	}
	launches := 0
	acks := make([]*wire.NMReply, nodes)
	for i := range entries {
		e := &entries[i]
		if e.NodeID != beats[i].NodeID {
			t.Fatalf("entry order mangled at %d: %+v", i, e)
		}
		if e.NodeID == unknown {
			if !strings.Contains(e.Error, "unregistered node 1000") {
				t.Fatalf("entry for unknown node: %+v", e)
			}
			continue
		}
		if e.Error != "" {
			t.Fatalf("registered node drew an error: %+v", e)
		}
		launches += len(e.Reply.Launch)
		acks[e.NodeID] = &e.Reply
	}
	// The job's tasks must have been launched across the live beats
	// exactly as individual heartbeats would have.
	if launches == 0 {
		t.Fatal("no launches across a 16-node batch with a queued job")
	}
	if err := g.VerifyLedger(); err != nil {
		t.Fatal(err)
	}

	// A second batch of delta beats — baselines advanced via the batch
	// acks — must be accepted with no FullReport demands.
	var deltas []wire.NMHeartbeat
	trackers := make([]wire.DeltaTracker, nodes)
	for id := 0; id < nodes; id++ {
		// Establish baselines: the first batch carried full (zero) usage
		// reports, acked by the entries above.
		trackers[id].Mark(&wire.NMHeartbeat{NodeID: id})
		trackers[id].Ack(acks[id])
		hb := wire.NMHeartbeat{NodeID: id}
		trackers[id].Mark(&hb)
		if !hb.Delta {
			t.Fatalf("node %d beat not compressed after acked baseline", id)
		}
		deltas = append(deltas, hb)
	}
	if err := f.Write(conn, &wire.Message{Type: wire.TypeHeartbeatBatch,
		HeartbeatBatch: &wire.HeartbeatBatch{Beats: deltas}}); err != nil {
		t.Fatal(err)
	}
	m, err = f.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.HeartbeatBatchReply.Replies {
		if e.Error != "" {
			t.Fatalf("delta beat rejected: %+v", e)
		}
	}
}

// TestBatchBinaryOverheadSmaller sanity-checks the wire-size win the
// scale bench gates on: a 64-node delta-beat batch in binary framing
// is a small fraction of 64 one-beat JSON heartbeat frames.
func TestBatchBinaryOverheadSmaller(t *testing.T) {
	var jsonBytes, binBytes bytes.Buffer
	var beats []wire.NMHeartbeat
	for id := 0; id < 64; id++ {
		hb := wire.NMHeartbeat{NodeID: id, Delta: true}
		beats = append(beats, hb)
		if err := wire.NewFramer(wire.CodecJSON).Write(&jsonBytes, beatFrame(hb)); err != nil {
			t.Fatal(err)
		}
	}
	f := wire.NewFramer(wire.CodecBinary)
	if err := f.Write(&binBytes, &wire.Message{Type: wire.TypeHeartbeatBatch,
		HeartbeatBatch: &wire.HeartbeatBatch{Beats: beats}}); err != nil {
		t.Fatal(err)
	}
	if binBytes.Len()*2 > jsonBytes.Len() {
		t.Fatalf("binary batch %dB vs %dB one-beat JSON frames: less than the 2x the gates assume",
			binBytes.Len(), jsonBytes.Len())
	}
	t.Logf("64 delta beats: %dB one-beat JSON frames → %dB batched binary (%.1fx)",
		jsonBytes.Len(), binBytes.Len(), float64(jsonBytes.Len())/float64(binBytes.Len()))
}
