package wire

import (
	"bytes"
	binenc "encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// codecCorpus covers every message type, hot (binary-encoded) and cold
// (JSON fallback), with edge values: negative IDs, large varints,
// delta beats, empty and multi-element slices, per-node batch errors.
func codecCorpus() []*Message {
	return []*Message{
		{Type: TypeError, Error: "node 7 must re-register"},
		{Type: TypeRegisterNM, RegisterNM: &RegisterNM{
			NodeID:   3,
			Capacity: resources.New(16, 32, 200, 200, 1000, 1000),
			Running:  []workload.TaskID{{Job: 1, Stage: 0, Index: 2}, {Job: 1 << 40, Stage: -1, Index: 0}},
			Completed: []TaskCompletion{
				{Task: workload.TaskID{Job: 9, Stage: 2, Index: 1}, Usage: resources.New(1, 1, 0, 0, 0, 0), Duration: 0.25},
			},
		}},
		beatFrame(NMHeartbeat{
			NodeID: 3,
			Used:   resources.New(1, 2, 0, 0, 100, 0),
			Completed: []TaskCompletion{
				{Task: workload.TaskID{Job: 1, Stage: 0, Index: 2}, Usage: resources.New(1, 1, 0, 0, 0, 0), Duration: 12.5},
				{Task: workload.TaskID{Job: 2, Stage: 1, Index: 0}, Duration: 0.001},
			},
		}),
		beatFrame(NMHeartbeat{NodeID: 99999, Delta: true}),
		{Type: TypeNMReply, NMReply: &NMReply{
			Launch: []TaskLaunch{{
				Task:   workload.TaskID{Job: 1, Stage: 0, Index: 5},
				Demand: resources.New(2, 4, 10, 10, 0, 0), Duration: 30, ReadMB: 100, WriteMB: 50,
			}},
			Kill:       []workload.TaskID{{Job: 4, Stage: 1, Index: 7}},
			Preempt:    []TaskPreempt{{Task: workload.TaskID{Job: 5, Stage: 0, Index: 0}}},
			FullReport: true,
		}},
		{Type: TypeNMReply, NMReply: &NMReply{}},
		{Type: TypeAMHeartbeat, AMHeartbeat: &AMHeartbeat{JobID: 1 << 30}},
		{Type: TypeAMReply, AMReply: &AMReply{Done: 3, Total: 8, Finished: true, FinishedAt: 1234.5, Failed: true}},
		{Type: TypeHeartbeatBatch, HeartbeatBatch: &HeartbeatBatch{Beats: []NMHeartbeat{
			{NodeID: 1, Delta: true},
			{NodeID: 2, Used: resources.New(1, 0, 0, 0, 0, 0)},
			{NodeID: 3, Completed: []TaskCompletion{{Task: workload.TaskID{Job: 7, Stage: 0, Index: 1}, Duration: 4}}},
		}}},
		{Type: TypeHeartbeatBatchReply, HeartbeatBatchReply: &HeartbeatBatchReply{Replies: []NMBeatReply{
			{NodeID: 1, Error: "unregistered node 1"},
			{NodeID: 2, Reply: NMReply{FullReport: true}},
			{NodeID: 3, Reply: NMReply{Launch: []TaskLaunch{{Task: workload.TaskID{Job: 2, Stage: 0, Index: 0}, Duration: 9}}}},
		}}},
		{Type: TypeClusterStatus},
		// Cold types: JSON fallback on a binary Framer.
		{Type: TypeSubmitJob, SubmitJob: &SubmitJob{Job: &workload.Job{ID: 1, Name: "j", Weight: 1}, Tenant: "acme"}},
		{Type: TypeSubmitReject, SubmitReject: &SubmitReject{Code: RejectRateLimited, Reason: "tenant over rate", RetryAfter: 0.25}},
		{Type: TypeSubmitBatch, SubmitBatch: &SubmitBatch{Tenant: "acme", Jobs: []*workload.Job{{ID: 2, Weight: 1}}}},
		{Type: TypeSubmitBatchReply, SubmitBatchReply: &SubmitBatchReply{Results: []SubmitResult{{JobID: 2}, {JobID: 3, Reject: &SubmitReject{Code: RejectInvalid}}}}},
		{Type: TypeClusterStatusReply, ClusterStatus: &ClusterStatusReply{
			Nodes: 3, Live: []int{0, 2}, Dead: []int{1},
			Faults:        []faults.Record{{Time: 10, Machine: 1, TasksKilled: 2}},
			DroppedFaults: 7,
		}},
	}
}

// beatFrame is the frame a node manager's beat travels in: a batch of one.
func beatFrame(hb NMHeartbeat) *Message {
	return &Message{Type: TypeHeartbeatBatch, HeartbeatBatch: &HeartbeatBatch{Beats: []NMHeartbeat{hb}}}
}

func canonJSON(t *testing.T, m *Message) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestCodecEquivalence is the differential oracle: every message type
// encoded through a JSON Framer and through a binary Framer must decode
// to identical structs (compared via canonical JSON, the wire's own
// definition of identity).
func TestCodecEquivalence(t *testing.T) {
	for _, m := range codecCorpus() {
		want := canonJSON(t, m)

		var jbuf bytes.Buffer
		jf := NewFramer(CodecJSON)
		if err := jf.Write(&jbuf, m); err != nil {
			t.Fatalf("%s: JSON write: %v", m.Type, err)
		}
		viaJSON, err := jf.Read(&jbuf)
		if err != nil {
			t.Fatalf("%s: JSON read: %v", m.Type, err)
		}

		cf := NewFramer(CodecBinary)
		var bbuf bytes.Buffer
		if err := cf.Write(&bbuf, m); err != nil {
			t.Fatalf("%s: binary write: %v", m.Type, err)
		}
		viaBinary, err := NewFramer(CodecJSON).Read(&bbuf)
		if err != nil {
			t.Fatalf("%s: binary read: %v", m.Type, err)
		}

		if got := canonJSON(t, viaJSON); got != want {
			t.Errorf("%s: JSON path drift:\n got %s\nwant %s", m.Type, got, want)
		}
		if got := canonJSON(t, viaBinary); got != want {
			t.Errorf("%s: binary path drift:\n got %s\nwant %s", m.Type, got, want)
		}
	}
}

// TestFramerFormats pins the codec matrix: every frame opens with Magic
// and its codec byte, the JSON oracle Framer writes JSON frames, the
// protocol's Framer binary ones for hot types, and a server Framer writes
// each reply in its type's codec whatever codec it last read.
func TestFramerFormats(t *testing.T) {
	hb := beatFrame(NMHeartbeat{NodeID: 1, Delta: true})
	reply := &Message{Type: TypeNMReply, NMReply: &NMReply{}}
	status := &Message{Type: TypeClusterStatusReply, ClusterStatus: &ClusterStatusReply{Nodes: 2}}
	wantHeader := func(what string, frame []byte, c Codec) {
		t.Helper()
		if frame[0] != Magic || frame[1] != byte(c) {
			t.Errorf("%s header = % x, want magic+codec %d", what, frame[:2], c)
		}
	}

	var jsonFrame, binFrame bytes.Buffer
	if err := NewFramer(CodecJSON).Write(&jsonFrame, hb); err != nil {
		t.Fatal(err)
	}
	wantHeader("JSON client frame", jsonFrame.Bytes(), CodecJSON)
	if m, err := NewFramer(CodecBinary).Read(bytes.NewReader(jsonFrame.Bytes())); err != nil || m.HeartbeatBatch == nil {
		t.Fatalf("binary Framer reading a JSON frame: %v", err)
	}
	if err := NewFramer(CodecBinary).Write(&binFrame, hb); err != nil {
		t.Fatal(err)
	}
	wantHeader("binary client frame", binFrame.Bytes(), CodecBinary)
	if binFrame.Len() >= jsonFrame.Len() {
		t.Errorf("binary delta beat (%dB) not smaller than JSON (%dB)", binFrame.Len(), jsonFrame.Len())
	}

	// A server Framer: the type decides, before any read and after reads
	// of either codec.
	srv := NewServerFramer()
	for _, read := range []struct {
		what  string
		frame []byte
	}{{"before any read", nil}, {"after a binary read", binFrame.Bytes()}, {"after a JSON read", jsonFrame.Bytes()}} {
		if read.frame != nil {
			if _, err := srv.Read(bytes.NewReader(read.frame)); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		if err := srv.Write(&out, reply); err != nil {
			t.Fatal(err)
		}
		wantHeader("server's hot reply "+read.what, out.Bytes(), CodecBinary)
		out.Reset()
		if err := srv.Write(&out, status); err != nil {
			t.Fatal(err)
		}
		wantHeader("server's cold reply "+read.what, out.Bytes(), CodecJSON)
	}

	// Cold type on a binary framer: JSON fallback, which any Framer reads
	// off the header.
	var cold bytes.Buffer
	cf := NewFramer(CodecBinary)
	if err := cf.Write(&cold, status); err != nil {
		t.Fatal(err)
	}
	wantHeader("cold-type fallback", cold.Bytes(), CodecJSON)
	if m, err := NewFramer(CodecJSON).Read(&cold); err != nil || m.ClusterStatus == nil {
		t.Fatalf("reading fallback frame: %v", err)
	}
}

// TestSteadyStateFrameSizes pins the exact bytes of the frames a fleet
// exchanges in steady state: one delta beat with nothing to report, its
// empty reply, the empty NMReply a registration gets, and the cost of one
// more such beat in a HeartbeatBatch and of one more entry in its reply;
// and the cost of one launch, one preemption and an AM reply. A JSON
// fallback for a hot type, or any growth of the binary encoding, fails
// here rather than in a minute-long scale run.
//
// The bytes: a frame header is 6, a type byte 1. A delta beat for node
// 999 is its node (2, zigzag varint), flags (1), an empty Used mask (1)
// and no completions (1): 5. A reply entry is its node (2), an empty
// error (1), flags (1) and three empty lists (3): 7. A launch of task
// {1 0 5} is its TaskID (3), a two-dimension demand (1 + 16) and three
// floats (24): 44. A preemption is its TaskID alone: 3. An AM reply
// with Done 3 and Total 8 is two varints (2), flags (1) and FinishedAt
// (8) behind its header and type byte: 18.
func TestSteadyStateFrameSizes(t *testing.T) {
	size := func(m *Message) int {
		t.Helper()
		var buf bytes.Buffer
		if err := NewFramer(CodecBinary).Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if buf.Bytes()[1] != byte(CodecBinary) {
			t.Errorf("%s frame went out as codec %d, want binary", m.Type, buf.Bytes()[1])
		}
		return buf.Len()
	}
	beat := NMHeartbeat{NodeID: 999, Delta: true}
	batch := func(n int) *Message {
		beats := make([]NMHeartbeat, n)
		for i := range beats {
			beats[i] = beat
		}
		return &Message{Type: TypeHeartbeatBatch, HeartbeatBatch: &HeartbeatBatch{Beats: beats}}
	}
	replies := func(n int) *Message {
		entries := make([]NMBeatReply, n)
		for i := range entries {
			entries[i] = NMBeatReply{NodeID: beat.NodeID}
		}
		return &Message{Type: TypeHeartbeatBatchReply, HeartbeatBatchReply: &HeartbeatBatchReply{Replies: entries}}
	}
	empty := &Message{Type: TypeNMReply, NMReply: &NMReply{}}
	task := workload.TaskID{Job: 1, Stage: 0, Index: 5}
	launch := TaskLaunch{Task: task, Demand: resources.New(2, 4, 0, 0, 0, 0), Duration: 30, ReadMB: 100, WriteMB: 50}
	for _, tc := range []struct {
		what      string
		got, want int
	}{
		{"one-beat delta HeartbeatBatch frame", size(batch(1)), 13},
		{"one-entry empty HeartbeatBatchReply frame", size(replies(1)), 15},
		{"empty NMReply frame", size(empty), 11},
		{"HeartbeatBatch entry", size(batch(2)) - size(batch(1)), 5},
		{"HeartbeatBatchReply entry", size(replies(2)) - size(replies(1)), 7},
		{"NMReply launch entry", size(&Message{Type: TypeNMReply, NMReply: &NMReply{Launch: []TaskLaunch{launch}}}) - size(empty), 44},
		{"NMReply preempt entry", size(&Message{Type: TypeNMReply, NMReply: &NMReply{Preempt: []TaskPreempt{{Task: task}}}}) - size(empty), 3},
		{"AMReply frame", size(&Message{Type: TypeAMReply, AMReply: &AMReply{Done: 3, Total: 8, Finished: true, FinishedAt: 12.5}}), 18},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d bytes, want %d", tc.what, tc.got, tc.want)
		}
	}
}

// countingReader counts the bytes handed out, so a test can tell how far
// into a stream a failed Read got.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestV0FrameRefused: the retired headerless frame — a bare 4-byte length,
// then JSON — is never parsed as a length. A well-formed one and one whose
// header lies about a 64 MiB body both fail with ErrBadMagic after the
// 6-byte header read, with nothing read or allocated for a body.
func TestV0FrameRefused(t *testing.T) {
	v0 := func(announced uint32, body []byte) []byte {
		return append(binenc.BigEndian.AppendUint32(nil, announced), body...)
	}
	body, err := json.Marshal(beatFrame(NMHeartbeat{NodeID: 1, Delta: true}))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"well-formed":  v0(uint32(len(body)), body),
		"lying header": v0(MaxFrame-1, bytes.Repeat([]byte{'x'}, 1000)),
	} {
		for side, f := range map[string]*Framer{"client": NewFramer(CodecJSON), "server": NewServerFramer()} {
			src := &countingReader{r: bytes.NewReader(data)}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := f.Read(src)
			runtime.ReadMemStats(&after)
			if m != nil || !errors.Is(err, ErrBadMagic) {
				t.Errorf("%s v0 frame, %s Framer: m=%v err=%v, want ErrBadMagic", name, side, m, err)
			}
			if src.n != headerLen {
				t.Errorf("%s v0 frame, %s Framer: consumed %d bytes, want the %d-byte header only", name, side, src.n, headerLen)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
				t.Errorf("%s v0 frame, %s Framer: refusing it allocated %d bytes", name, side, grew)
			}
		}
	}
	// Any non-Magic first byte, not only the ≤ 0x04 a v0 length starts with.
	for _, first := range []byte{0x00, 0x04, '{', 0xFF} {
		_, err := NewServerFramer().Read(bytes.NewReader([]byte{first, 0, 0, 0, 0, 0, '{', '}'}))
		if !errors.Is(err, ErrBadMagic) {
			t.Errorf("first byte 0x%02x: err = %v, want ErrBadMagic", first, err)
		}
	}
}

// codec1Frame builds a frame of the retired binary codec 1 around body.
func codec1Frame(body ...byte) []byte {
	return append(binenc.BigEndian.AppendUint32([]byte{Magic, 1}, uint32(len(body))), body...)
}

// TestCodec1FrameRefused: a peer of the previous build writes its hot
// frames as codec 1, whose beats carried a second vector and whose
// launches, preemptions and AM replies carried fields this layout
// dropped. Each of the four bodies that changed fails as an unknown
// codec after the header, on either side, and never decodes into a
// message.
func TestCodec1FrameRefused(t *testing.T) {
	float := make([]byte, 8)
	for name, data := range map[string][]byte{
		// One beat: node 9, no flags, Used and Allocated empty, no completions.
		"heartbeat batch": codec1Frame(0x07, 1, 18, 0, 0, 0, 0),
		// One launch of task {1 0 0} with its job ID, an empty demand and
		// three zero floats; no kills; one preemption with job and gang.
		"NM reply": codec1Frame(append(append([]byte{0x04, 0, 1, 2, 0, 0, 2, 0}, bytes.Repeat(float, 3)...), 0, 1, 2, 0, 0, 2, 22)...),
		// One entry: node 9, no error, an empty NM reply.
		"batch reply": codec1Frame(0x08, 1, 18, 0, 0, 0, 0, 0),
		// Job 11, done 3 of 8, finished, FinishedAt 0, no preemptions.
		"AM reply": codec1Frame(append(append([]byte{0x06, 22, 6, 16, 1}, float...), 0)...),
	} {
		for side, f := range map[string]*Framer{"client": NewFramer(CodecBinary), "server": NewServerFramer()} {
			src := &countingReader{r: bytes.NewReader(data)}
			m, err := f.Read(src)
			if m != nil || err == nil || !strings.Contains(err.Error(), "unknown codec byte 0x01") {
				t.Errorf("codec-1 %s, %s Framer: m=%+v err=%v, want an unknown-codec error", name, side, m, err)
			}
			if src.n != headerLen {
				t.Errorf("codec-1 %s, %s Framer: consumed %d bytes, want the %d-byte header only", name, side, src.n, headerLen)
			}
		}
	}
	// A JSON frame in the old layout still decodes: JSON ignores the
	// fields this layout dropped, and keeps the rest.
	for body, want := range map[string]string{
		`{"type":"heartbeat-batch","heartbeatBatch":{"beats":[{"nodeID":9,"used":[1,0,0,0,0,0],"allocated":[2,0,0,0,0,0]}]}}`:                `{"type":"heartbeat-batch","heartbeatBatch":{"beats":[{"nodeID":9,"used":[1,0,0,0,0,0]}]}}`,
		`{"type":"am-reply","amReply":{"jobID":11,"done":3,"total":8,"finished":false,"preemptions":2,"gangRelease":{"jobID":11,"held":3}}}`: `{"type":"am-reply","amReply":{"done":3,"total":8,"finished":false}}`,
	} {
		m, err := NewServerFramer().Read(bytes.NewReader(frame(uint32(len(body)), []byte(body))))
		if err != nil {
			t.Fatalf("old-layout JSON frame %s: %v", body, err)
		}
		if got := canonJSON(t, m); got != want {
			t.Errorf("old-layout JSON frame decoded to %s, want %s", got, want)
		}
	}
}

// TestEnvelopeValidation pins the exactly-one-payload-matching-Type
// invariant at decode (satellite: nil-payload frames used to reach
// handlers and nil-panic).
func TestEnvelopeValidation(t *testing.T) {
	cases := []struct {
		name string
		m    *Message
		ok   bool
	}{
		{"matching payload", beatFrame(NMHeartbeat{NodeID: 1}), true},
		{"declared type, nil payload", &Message{Type: TypeHeartbeatBatch}, false},
		{"extra payload", &Message{Type: TypeHeartbeatBatch, HeartbeatBatch: &HeartbeatBatch{}, NMReply: &NMReply{}}, false},
		{"wrong payload", &Message{Type: TypeAMHeartbeat, NMReply: &NMReply{}}, false},
		{"payload-less request", &Message{Type: TypeClusterStatus}, true},
		{"payload on payload-less type", &Message{Type: TypeClusterStatus, NMReply: &NMReply{}}, false},
		{"error with text only", &Message{Type: TypeError, Error: "boom"}, true},
		{"unknown type, no payload", &Message{Type: "future-type"}, true},
		{"unknown type with payload", &Message{Type: "future-type", NMReply: &NMReply{}}, false},
		{"empty message", &Message{}, true},
		{"empty batch", &Message{Type: TypeHeartbeatBatch, HeartbeatBatch: &HeartbeatBatch{}}, true},
		// The retired single-beat type is an unknown type like any other:
		// it decodes, and the RM answers it with a typed error.
		{"retired nm-heartbeat type", &Message{Type: "nm-heartbeat"}, true},
	}
	for _, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
		// The invariant is enforced at decode, not just offered as a
		// helper: a raw frame carrying the invalid envelope must fail
		// Read with ErrBadMessage.
		body, err := json.Marshal(c.m)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := NewFramer(CodecJSON).Read(bytes.NewReader(frame(uint32(len(body)), body)))
		if c.ok && rerr != nil {
			t.Errorf("%s: Read = %v, want ok", c.name, rerr)
		}
		if !c.ok && !errors.Is(rerr, ErrBadMessage) {
			t.Errorf("%s: Read = %v, want ErrBadMessage", c.name, rerr)
		}
	}
}

// TestReadLyingHeaderBoundsAllocation is the regression test for the
// preallocation bug: a header announcing just under MaxFrame with no
// body behind it must not allocate the announced 64 MiB — allocation
// grows only as bytes actually arrive (readChunk stages).
func TestReadLyingHeaderBoundsAllocation(t *testing.T) {
	lying := frame(MaxFrame-1, bytes.Repeat([]byte{'x'}, 1000))
	for name, read := range map[string]func(io.Reader) (*Message, error){
		"client Framer": NewFramer(CodecJSON).Read,
		"server Framer": NewServerFramer().Read,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := read(bytes.NewReader(lying))
		runtime.ReadMemStats(&after)
		if err == nil || m != nil {
			t.Fatalf("%s: lying header yielded m=%v err=%v", name, m, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: lying 64MiB header allocated %d bytes; want < 4MiB", name, grew)
		}
	}
}

type writeCounter struct {
	w     io.Writer
	calls int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.calls++
	return c.w.Write(p)
}

// TestSingleWriteFraming asserts header and body leave in one Write
// call on every path, so a deadline can never fire between them and
// strand a header-only half-frame.
func TestSingleWriteFraming(t *testing.T) {
	m := beatFrame(NMHeartbeat{NodeID: 1, Used: resources.New(1, 2, 3, 4, 5, 6)})
	var buf bytes.Buffer

	for _, c := range []Codec{CodecJSON, CodecBinary} {
		buf.Reset()
		wc := &writeCounter{w: &buf}
		if err := NewFramer(c).Write(wc, m); err != nil || wc.calls != 1 {
			t.Errorf("Framer(codec %d).Write: calls=%d err=%v, want one write", c, wc.calls, err)
		}
	}
}

// TestDeadlineMidFrameCleanError drives a write deadline into the
// middle of a large frame over TCP: the writer fails, and the reader
// must see a clean transport error — never a garbage decode or a
// silently desynced stream.
func TestDeadlineMidFrameCleanError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		m   *Message
		err error
	}
	got := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- result{nil, err}
			return
		}
		defer conn.Close()
		// Let the writer hit its deadline before draining anything.
		time.Sleep(200 * time.Millisecond)
		m, err := NewServerFramer().Read(conn)
		got <- result{m, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A frame far larger than the socket buffers, so Write blocks with
	// the frame partially flushed when the deadline fires.
	big := &Message{Type: TypeError, Error: strings.Repeat("x", 16<<20)}
	conn.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	if err := NewFramer(CodecJSON).Write(conn, big); err == nil {
		t.Fatal("16MiB write into a full socket beat a 50ms deadline?")
	}
	conn.Close()
	r := <-got
	if r.m != nil {
		t.Fatalf("reader decoded a message from a half-written frame: %+v", r.m)
	}
	if r.err == nil {
		t.Fatal("reader saw no error after a half-written frame")
	}
	var jsonErr *json.SyntaxError
	if errors.As(r.err, &jsonErr) {
		t.Fatalf("reader hit a garbage decode (%v); want a clean transport error", r.err)
	}
}

// TestFramerSteadyStateAllocs pins the zero-copy claim: after priming,
// a one-beat delta heartbeat request/reply exchange through binary
// Framers allocates nothing on either side.
func TestFramerSteadyStateAllocs(t *testing.T) {
	beat := beatFrame(NMHeartbeat{NodeID: 42, Delta: true})
	reply := &Message{Type: TypeHeartbeatBatchReply, HeartbeatBatchReply: &HeartbeatBatchReply{Replies: []NMBeatReply{{NodeID: 42}}}}
	client, server := NewFramer(CodecBinary), NewServerFramer()
	var buf bytes.Buffer
	exchange := func() {
		buf.Reset()
		if err := client.Write(&buf, beat); err != nil {
			t.Fatal(err)
		}
		if m, err := server.Read(&buf); err != nil || m.HeartbeatBatch == nil {
			t.Fatalf("server read: %v", err)
		}
		buf.Reset()
		if err := server.Write(&buf, reply); err != nil {
			t.Fatal(err)
		}
		if m, err := client.Read(&buf); err != nil || m.HeartbeatBatchReply == nil {
			t.Fatalf("client read: %v", err)
		}
	}
	exchange() // prime buffers and scratch
	if allocs := testing.AllocsPerRun(200, exchange); allocs > 0 {
		t.Errorf("steady-state exchange allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBinaryRejectsMalformed feeds the binary decoder truncated and
// corrupt payloads, asserting clean failures (no panics, no partial
// messages) — the varint/count/mask guards at work.
func TestBinaryRejectsMalformed(t *testing.T) {
	// A valid binary heartbeat frame to mutate.
	var buf bytes.Buffer
	hb := beatFrame(NMHeartbeat{
		NodeID:    3,
		Used:      resources.New(1, 2, 0, 0, 0, 0),
		Completed: []TaskCompletion{{Task: workload.TaskID{Job: 1}, Duration: 1}},
	})
	if err := NewFramer(CodecBinary).Write(&buf, hb); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// rawFrame wraps a raw payload in a magic+codec+length header.
	rawFrame := func(codec byte, payload []byte) []byte {
		d := []byte{Magic, codec, byte(len(payload) >> 24), byte(len(payload) >> 16), byte(len(payload) >> 8), byte(len(payload))}
		return append(d, payload...)
	}
	// A one-beat batch whose completion count claims 2^40 elements with
	// no bytes behind it: the count guard must reject it before any
	// proportional allocation.
	lying := []byte{binHeartbeatBatch, 1}
	lying = AppendInt(lying, 1) // node
	lying = append(lying, 0)    // flags
	lying = append(lying, 0, 0) // zero used/allocated masks
	lying = binenc.AppendUvarint(lying, 1<<40)

	for _, mutate := range []struct {
		name string
		data []byte
	}{
		{"truncated body", valid[:len(valid)-3]},
		{"unknown codec byte", append([]byte{Magic, 0x7F}, valid[2:]...)},
		{"unknown type byte", rawFrame(byte(CodecBinary), []byte{0xEE})},
		{"lying element count", rawFrame(byte(CodecBinary), lying)},
		{"trailing bytes", rawFrame(byte(CodecBinary), append(bytes.Clone(valid[6:]), 0xAB))},
		{"bad vector mask", rawFrame(byte(CodecBinary), []byte{binHeartbeatBatch, 1 /*beats*/, 2 /*node*/, 0 /*flags*/, 0xFF /*mask with unknown bits*/})},
		{"overlong varint", rawFrame(byte(CodecBinary), []byte{binAMHeartbeat, 0x80, 0x00 /*job 0 in two bytes*/})},
		{"mask bit over a zero float", rawFrame(byte(CodecBinary), []byte{binHeartbeatBatch, 1, 2, 0, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})},
		// The retired single-beat type byte, followed by the body it used
		// to carry: an unknown type now.
		{"retired type byte 0x03", rawFrame(byte(CodecBinary), append([]byte{0x03}, valid[8:]...))},
	} {
		f := NewFramer(CodecJSON)
		if m, err := f.Read(bytes.NewReader(mutate.data)); err == nil {
			t.Errorf("%s: accepted as %+v", mutate.name, m)
		}
	}
}

// FuzzCodecEquivalence is the fuzz form of the differential oracle:
// any byte stream a Framer accepts must survive a binary encode→decode
// round trip unchanged. The seeds are the corpus as JSON frames.
func FuzzCodecEquivalence(f *testing.F) {
	for _, m := range codecCorpus() {
		var buf bytes.Buffer
		if err := NewFramer(CodecJSON).Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := NewFramer(CodecJSON).Read(bytes.NewReader(data))
		if err != nil {
			return // not a valid message; nothing to compare
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal read message: %v", err)
		}
		var v1 bytes.Buffer
		cf := NewFramer(CodecBinary)
		if err := cf.Write(&v1, m); err != nil {
			t.Fatalf("binary write: %v", err)
		}
		m2, err := NewFramer(CodecJSON).Read(&v1)
		if err != nil {
			t.Fatalf("binary read back: %v", err)
		}
		got, err := json.Marshal(m2)
		if err != nil {
			t.Fatalf("marshal round-tripped message: %v", err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("codec drift:\n json: %s\n  bin: %s", want, got)
		}
		if rest, _ := io.ReadAll(&v1); len(rest) != 0 {
			t.Fatalf("binary read left %d unconsumed bytes", len(rest))
		}
	})
}

// TestBinaryRefusesNonFinite: a binary frame carrying a NaN or infinite
// float — in a registration's capacity, a beat's usage report, or a
// completion's usage or duration — does not decode. One NaN capacity
// accepted by the RM used to panic its next scheduling round.
func TestBinaryRefusesNonFinite(t *testing.T) {
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, m := range []*Message{
			{Type: TypeRegisterNM, RegisterNM: &RegisterNM{NodeID: 1, Capacity: capV.With(resources.CPU, bad)}},
			beatFrame(NMHeartbeat{NodeID: 1, Used: resources.New(1, bad, 0, 0, 0, 0)}),
			beatFrame(NMHeartbeat{NodeID: 1, Completed: []TaskCompletion{
				{Task: workload.TaskID{Job: 1}, Usage: resources.New(bad, 1, 0, 0, 0, 0), Duration: 1}}}),
			beatFrame(NMHeartbeat{NodeID: 1, Completed: []TaskCompletion{
				{Task: workload.TaskID{Job: 1}, Duration: bad}}}),
		} {
			var buf bytes.Buffer
			if err := NewFramer(CodecBinary).Write(&buf, m); err != nil {
				t.Fatal(err)
			}
			if got, err := NewServerFramer().Read(&buf); err == nil {
				t.Errorf("%v in a %s frame decoded: %+v", bad, m.Type, got)
			}
		}
	}
}
