package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// Binary payload encoding (codec 1). The payload is a type byte
// followed by the type-specific body:
//
//   - ints are zigzag varints, counts are uvarints;
//   - float64s are 8-byte little-endian IEEE-754 bits, so values
//     round-trip bit-identically (the delta-heartbeat baselines compare
//     with ==, which is bit-level for the vectors involved);
//   - a resources.Vector is a bitmask byte of its nonzero dimensions
//     (nonzero at the bit level, preserving -0 and NaN) followed by
//     8 bytes per set bit — an all-zero vector, the steady state of
//     delta beats, costs one byte;
//   - strings are a uvarint length followed by raw bytes;
//   - booleans pack into per-message flag bytes.
//
// Only the hot session frames have binary bodies: Register/heartbeat
// traffic for NMs (including batches) and AM polls, plus typed errors.
// Cold control frames (submissions, cluster status replies) travel as
// codec-0 JSON frames: Framer.Write picks the codec by message type.
const (
	binError byte = iota + 1
	binRegisterNM
	binNMHeartbeat
	binNMReply
	binAMHeartbeat
	binAMReply
	binHeartbeatBatch
	binHeartbeatBatchReply
	binClusterStatusReq
)

// The vector bitmask is a single byte.
const _ uint = 8 - uint(resources.NumKinds)

var errBinTruncated = errors.New("wire: truncated binary payload")

// Conservative minimum encoded sizes per repeated element, used to
// bound slice preallocation against lying counts: a count can never
// exceed remaining-bytes/minSize, so decode allocation is proportional
// to bytes the peer actually sent.
const (
	minTaskIDSize     = 3
	minCompletionSize = minTaskIDSize + 1 + 8 // task + mask + duration
	minLaunchSize     = minTaskIDSize + 1 + 1 + 24
	minPreemptSize    = minTaskIDSize + 2
	minBeatSize       = 1 + 1 + 1 + 1 + 1 // node + flags + 2 masks + count
	minBeatReplySize  = 1 + 1 + 4         // node + error len + reply
)

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendVector(b []byte, v *resources.Vector) []byte {
	var mask byte
	for i := range v {
		if math.Float64bits(v[i]) != 0 {
			mask |= 1 << i
		}
	}
	b = append(b, mask)
	for i := range v {
		if mask&(1<<i) != 0 {
			b = appendFloat(b, v[i])
		}
	}
	return b
}

func appendTaskID(b []byte, id workload.TaskID) []byte {
	b = appendInt(b, id.Job)
	b = appendInt(b, id.Stage)
	return appendInt(b, id.Index)
}

func appendCompletions(b []byte, cs []TaskCompletion) []byte {
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for i := range cs {
		b = appendTaskID(b, cs[i].Task)
		b = appendVector(b, &cs[i].Usage)
		b = appendFloat(b, cs[i].Duration)
	}
	return b
}

func appendHeartbeatBody(b []byte, hb *NMHeartbeat) []byte {
	b = appendInt(b, hb.NodeID)
	var flags byte
	if hb.Delta {
		flags |= 1
	}
	b = append(b, flags)
	b = appendVector(b, &hb.Used)
	b = appendVector(b, &hb.Allocated)
	return appendCompletions(b, hb.Completed)
}

func appendNMReplyBody(b []byte, r *NMReply) []byte {
	var flags byte
	if r.FullReport {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(r.Launch)))
	for i := range r.Launch {
		l := &r.Launch[i]
		b = appendTaskID(b, l.Task)
		b = appendInt(b, l.JobID)
		b = appendVector(b, &l.Demand)
		b = appendFloat(b, l.Duration)
		b = appendFloat(b, l.ReadMB)
		b = appendFloat(b, l.WriteMB)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Kill)))
	for _, id := range r.Kill {
		b = appendTaskID(b, id)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Preempt)))
	for i := range r.Preempt {
		p := &r.Preempt[i]
		b = appendTaskID(b, p.Task)
		b = appendInt(b, p.JobID)
		b = appendInt(b, p.ForJob)
	}
	return b
}

// appendBinary appends m's binary payload (type byte + body) to b.
// ok is false when m's type has no binary encoding — the caller falls
// back to a JSON payload.
func appendBinary(b []byte, m *Message) (out []byte, ok bool) {
	switch m.Type {
	case TypeError:
		b = append(b, binError)
		return appendString(b, m.Error), true
	case TypeRegisterNM:
		r := m.RegisterNM
		b = append(b, binRegisterNM)
		b = appendInt(b, r.NodeID)
		b = appendVector(b, &r.Capacity)
		b = binary.AppendUvarint(b, uint64(len(r.Running)))
		for _, id := range r.Running {
			b = appendTaskID(b, id)
		}
		return appendCompletions(b, r.Completed), true
	case TypeNMHeartbeat:
		b = append(b, binNMHeartbeat)
		return appendHeartbeatBody(b, m.NMHeartbeat), true
	case TypeNMReply:
		b = append(b, binNMReply)
		return appendNMReplyBody(b, m.NMReply), true
	case TypeAMHeartbeat:
		b = append(b, binAMHeartbeat)
		return appendInt(b, m.AMHeartbeat.JobID), true
	case TypeAMReply:
		r := m.AMReply
		b = append(b, binAMReply)
		b = appendInt(b, r.JobID)
		b = appendInt(b, r.Done)
		b = appendInt(b, r.Total)
		var flags byte
		if r.Finished {
			flags |= 1
		}
		if r.Failed {
			flags |= 2
		}
		if r.GangRelease != nil {
			flags |= 4
		}
		b = append(b, flags)
		b = appendFloat(b, r.FinishedAt)
		b = appendInt(b, r.Preemptions)
		if r.GangRelease != nil {
			b = appendInt(b, r.GangRelease.JobID)
			b = appendInt(b, r.GangRelease.Held)
			b = appendString(b, r.GangRelease.Reason)
		}
		return b, true
	case TypeHeartbeatBatch:
		batch := m.HeartbeatBatch
		b = append(b, binHeartbeatBatch)
		b = binary.AppendUvarint(b, uint64(len(batch.Beats)))
		for i := range batch.Beats {
			b = appendHeartbeatBody(b, &batch.Beats[i])
		}
		return b, true
	case TypeHeartbeatBatchReply:
		br := m.HeartbeatBatchReply
		b = append(b, binHeartbeatBatchReply)
		b = binary.AppendUvarint(b, uint64(len(br.Replies)))
		for i := range br.Replies {
			e := &br.Replies[i]
			b = appendInt(b, e.NodeID)
			b = appendString(b, e.Error)
			b = appendNMReplyBody(b, &e.Reply)
		}
		return b, true
	case TypeClusterStatus:
		return append(b, binClusterStatusReq), true
	}
	return b, false
}

// binReader is a failure-latching cursor over a binary payload. After
// the first malformed read every accessor returns zero values, so
// decoders can run straight-line and check err once.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errBinTruncated
	}
}

func (r *binReader) rest() int { return len(r.b) - r.off }

func (r *binReader) byte_() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) int_() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return int(v)
}

func (r *binReader) float() float64 {
	if r.err != nil || r.rest() < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(r.rest()) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count reads a repeated-element count and bounds it by the bytes
// actually remaining (each element encodes to at least minSize bytes),
// so a lying count cannot force a huge preallocation.
func (r *binReader) count(minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.rest()/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *binReader) vector() resources.Vector {
	var v resources.Vector
	mask := r.byte_()
	if mask >= 1<<uint(resources.NumKinds) {
		r.fail()
		return v
	}
	for i := range v {
		if mask&(1<<i) != 0 {
			v[i] = r.float()
		}
	}
	return v
}

func (r *binReader) taskID() workload.TaskID {
	return workload.TaskID{Job: r.int_(), Stage: r.int_(), Index: r.int_()}
}

// completions decodes a completion list into buf's capacity; a nil buf
// allocates only when the list is non-empty.
func (r *binReader) completions(buf []TaskCompletion) []TaskCompletion {
	n := r.count(minCompletionSize)
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, TaskCompletion{
			Task:     r.taskID(),
			Usage:    r.vector(),
			Duration: r.float(),
		})
	}
	return buf
}

// heartbeatBody decodes into hb, reusing hb.Completed's capacity.
func (r *binReader) heartbeatBody(hb *NMHeartbeat) {
	hb.NodeID = r.int_()
	flags := r.byte_()
	hb.Delta = flags&1 != 0
	hb.Used = r.vector()
	hb.Allocated = r.vector()
	hb.Completed = r.completions(hb.Completed)
}

// nmReplyBody decodes into rep, reusing its slice capacities.
func (r *binReader) nmReplyBody(rep *NMReply) {
	flags := r.byte_()
	rep.FullReport = flags&1 != 0
	n := r.count(minLaunchSize)
	rep.Launch = rep.Launch[:0]
	for i := 0; i < n; i++ {
		rep.Launch = append(rep.Launch, TaskLaunch{
			Task:     r.taskID(),
			JobID:    r.int_(),
			Demand:   r.vector(),
			Duration: r.float(),
			ReadMB:   r.float(),
			WriteMB:  r.float(),
		})
	}
	n = r.count(minTaskIDSize)
	rep.Kill = rep.Kill[:0]
	for i := 0; i < n; i++ {
		rep.Kill = append(rep.Kill, r.taskID())
	}
	n = r.count(minPreemptSize)
	rep.Preempt = rep.Preempt[:0]
	for i := 0; i < n; i++ {
		rep.Preempt = append(rep.Preempt, TaskPreempt{
			Task:   r.taskID(),
			JobID:  r.int_(),
			ForJob: r.int_(),
		})
	}
}

// decodeScratch holds the per-connection structures a Framer decodes
// hot binary frames into, so steady-state beats allocate nothing. A
// decoded Message aliases this scratch and is valid only until the
// Framer's next Read.
type decodeScratch struct {
	msg        Message
	hb         NMHeartbeat
	nmReply    NMReply
	amhb       AMHeartbeat
	amReply    AMReply
	gang       GangRelease
	batch      HeartbeatBatch
	batchReply HeartbeatBatchReply
}

// decodeBinary decodes a codec-1 payload into s, returning &s.msg.
// RegisterNM decodes into fresh allocations: registration handlers
// journal the payload's slices asynchronously, so they must not alias
// reused scratch. Per-beat slices inside batches are likewise fresh
// when non-empty (empty — the steady state — stays nil).
func decodeBinary(payload []byte, s *decodeScratch) (*Message, error) {
	r := binReader{b: payload}
	s.msg = Message{}
	switch t := r.byte_(); t {
	case binError:
		s.msg.Type = TypeError
		s.msg.Error = r.str()
	case binRegisterNM:
		reg := &RegisterNM{}
		reg.NodeID = r.int_()
		reg.Capacity = r.vector()
		n := r.count(minTaskIDSize)
		for i := 0; i < n; i++ {
			reg.Running = append(reg.Running, r.taskID())
		}
		reg.Completed = r.completions(nil)
		s.msg.Type = TypeRegisterNM
		s.msg.RegisterNM = reg
	case binNMHeartbeat:
		r.heartbeatBody(&s.hb)
		s.msg.Type = TypeNMHeartbeat
		s.msg.NMHeartbeat = &s.hb
	case binNMReply:
		r.nmReplyBody(&s.nmReply)
		s.msg.Type = TypeNMReply
		s.msg.NMReply = &s.nmReply
	case binAMHeartbeat:
		s.amhb.JobID = r.int_()
		s.msg.Type = TypeAMHeartbeat
		s.msg.AMHeartbeat = &s.amhb
	case binAMReply:
		rep := &s.amReply
		*rep = AMReply{}
		rep.JobID = r.int_()
		rep.Done = r.int_()
		rep.Total = r.int_()
		flags := r.byte_()
		rep.Finished = flags&1 != 0
		rep.Failed = flags&2 != 0
		rep.FinishedAt = r.float()
		rep.Preemptions = r.int_()
		if flags&4 != 0 {
			s.gang = GangRelease{JobID: r.int_(), Held: r.int_(), Reason: r.str()}
			rep.GangRelease = &s.gang
		}
		s.msg.Type = TypeAMReply
		s.msg.AMReply = rep
	case binHeartbeatBatch:
		n := r.count(minBeatSize)
		s.batch.Beats = s.batch.Beats[:0]
		for i := 0; i < n; i++ {
			var hb NMHeartbeat
			r.heartbeatBody(&hb)
			s.batch.Beats = append(s.batch.Beats, hb)
		}
		s.msg.Type = TypeHeartbeatBatch
		s.msg.HeartbeatBatch = &s.batch
	case binHeartbeatBatchReply:
		n := r.count(minBeatReplySize)
		s.batchReply.Replies = s.batchReply.Replies[:0]
		for i := 0; i < n; i++ {
			var e NMBeatReply
			e.NodeID = r.int_()
			e.Error = r.str()
			r.nmReplyBody(&e.Reply)
			s.batchReply.Replies = append(s.batchReply.Replies, e)
		}
		s.msg.Type = TypeHeartbeatBatchReply
		s.msg.HeartbeatBatchReply = &s.batchReply
	case binClusterStatusReq:
		s.msg.Type = TypeClusterStatus
	default:
		return nil, fmt.Errorf("wire: unknown binary message type 0x%02x", t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after binary payload", len(r.b)-r.off)
	}
	return &s.msg, nil
}
