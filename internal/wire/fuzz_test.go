package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"testing"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// frame builds a raw JSON-codec frame with an arbitrary announced length
// and body — including deliberately inconsistent ones.
func frame(announced uint32, body []byte) []byte {
	hdr := []byte{Magic, byte(CodecJSON), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[2:], announced)
	return append(hdr, body...)
}

// FuzzWireRoundTrip feeds Framer.Read arbitrary byte streams — truncated
// headers, short bodies, oversize length announcements, invalid JSON —
// asserting it never panics and fails cleanly. When the input happens
// to decode into a message, the message is re-framed in its type's codec
// (binary for the hot types, JSON for the cold) and read back, asserting
// round-trip identity at the JSON level.
func FuzzWireRoundTrip(f *testing.F) {
	valid := func(m *Message) []byte {
		var buf bytes.Buffer
		if err := NewFramer(CodecJSON).Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})                        // empty stream
	f.Add([]byte{0x00})                    // truncated header
	f.Add([]byte{0x00, 0x00, 0x00})        // still truncated
	f.Add(frame(0, nil))                   // zero-length body
	f.Add(frame(16, []byte("{")))          // body shorter than announced
	f.Add(frame(4, []byte("null")))        // JSON null
	f.Add(frame(7, []byte("not-json")))    // invalid JSON (and short)
	f.Add(frame(0xFFFFFFFF, nil))          // oversize announcement
	f.Add(frame(MaxFrame+1, []byte("{}"))) // just past the cap
	f.Add(frame(2, []byte("{}")))          // minimal valid message
	f.Add(valid(&Message{Type: TypeClusterStatus}))
	f.Add(valid(beatFrame(NMHeartbeat{
		NodeID: 3,
		Used:   resources.New(1, 2, 3, 4, 5, 6),
		Completed: []TaskCompletion{{
			Task:     workload.TaskID{Job: 1, Stage: 2, Index: 3},
			Usage:    resources.New(1, 1, 0, 0, 0, 0),
			Duration: 12.5,
		}},
	})))
	f.Add(valid(beatFrame(NMHeartbeat{NodeID: 9, Delta: true})))
	f.Add(valid(&Message{Type: TypeNMReply, NMReply: &NMReply{
		Launch:     []TaskLaunch{{Task: workload.TaskID{Job: 7}, Duration: 3}},
		Kill:       []workload.TaskID{{Job: 1, Stage: 1, Index: 1}},
		FullReport: true,
	}}))
	f.Add(valid(&Message{Type: TypeNMReply, NMReply: &NMReply{
		Preempt: []TaskPreempt{{Task: workload.TaskID{Job: 4, Stage: 0, Index: 2}}},
	}}))
	f.Add(valid(&Message{Type: TypeAMReply, AMReply: &AMReply{Done: 3, Total: 8, Finished: true, FinishedAt: 2.5}}))
	f.Add(valid(&Message{Type: TypeError, Error: "boom"}))
	f.Add(valid(&Message{Type: TypeHeartbeatBatch, HeartbeatBatch: &HeartbeatBatch{Beats: []NMHeartbeat{
		{NodeID: 1, Delta: true},
		{NodeID: 2, Used: resources.New(1, 0, 0, 0, 0, 0)},
	}}}))
	f.Add(valid(&Message{Type: TypeHeartbeatBatchReply, HeartbeatBatchReply: &HeartbeatBatchReply{Replies: []NMBeatReply{
		{NodeID: 1, Error: "unregistered node 1"},
		{NodeID: 2, Reply: NMReply{FullReport: true}},
	}}}))
	// Envelope-invariant seeds: declared type with a nil payload, and a
	// payload contradicting the type. Read must reject both (ErrBadMessage),
	// never hand them to a handler that would nil-panic.
	badNil := []byte(`{"type":"heartbeat-batch"}`)
	f.Add(frame(uint32(len(badNil)), badNil))
	badExtra := []byte(`{"type":"error","nmReply":{}}`)
	f.Add(frame(uint32(len(badExtra)), badExtra))
	// The retired single-beat frame, in both codecs: JSON decodes as an
	// unknown type, binary type byte 0x03 fails to decode.
	retired := []byte(`{"type":"nm-heartbeat","nmHeartbeat":{"nodeID":9,"delta":true}}`)
	f.Add(frame(uint32(len(retired)), retired))
	f.Add([]byte{Magic, byte(CodecBinary), 0, 0, 0, 6, 0x03, 18 /*node 9*/, 1 /*delta*/, 0, 0, 0})
	// The retired codec 1: an idle beat in its layout, two vectors.
	f.Add(codec1Frame(0x07, 1 /*one beat*/, 18 /*node 9*/, 0 /*flags*/, 0, 0 /*two empty vectors*/, 0 /*no completions*/))

	f.Fuzz(func(t *testing.T, data []byte) {
		sf := NewServerFramer()
		m, err := sf.Read(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("Read returned both a message and error %v", err)
			}
			return // malformed input must fail cleanly, and did
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read accepted a message violating the envelope invariant: %v", err)
		}
		// The stream decoded: Write→Read must reproduce the message
		// exactly. Compare via canonical JSON — that is the wire's own
		// definition of identity. (A message Read returns is valid only
		// until the next Read on the same Framer, so m is marshalled
		// before m2 is read.)
		j1, err1 := json.Marshal(m)
		var buf bytes.Buffer
		if err := sf.Write(&buf, m); err != nil {
			t.Fatalf("re-framing a read message: %v", err)
		}
		m2, err := sf.Read(&buf)
		if err != nil {
			t.Fatalf("re-reading a written message: %v", err)
		}
		j2, err2 := json.Marshal(m2)
		if err1 != nil || err2 != nil {
			t.Fatalf("marshal: %v / %v", err1, err2)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("round trip drift:\n first: %s\nsecond: %s", j1, j2)
		}
		if rest, _ := io.ReadAll(&buf); len(rest) != 0 {
			t.Fatalf("Read left %d unconsumed bytes of its own frame", len(rest))
		}
	})
}
