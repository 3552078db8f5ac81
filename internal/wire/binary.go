package wire

import "fmt"

// Binary payload encoding (codec 3): a type byte followed by the
// type-specific body, built from the primitives in primitives.go;
// booleans pack into per-message flag bytes.
//
// Only the hot session frames have binary bodies: NM registration,
// heartbeat batches and their replies, AM polls, plus typed errors.
// Cold control frames (submissions, cluster status replies) travel as
// codec-0 JSON frames: Framer.Write picks the codec by message type.
const (
	binError byte = iota + 1
	binRegisterNM
	_ // 0x03 is unassigned and decodes as unknown: type bytes never move
	binNMReply
	binAMHeartbeat
	binAMReply
	binHeartbeatBatch
	binHeartbeatBatchReply
	binClusterStatusReq
)

// Conservative minimum encoded sizes per repeated element, used to
// bound slice preallocation against lying counts: a count can never
// exceed remaining-bytes/minSize, so decode allocation is proportional
// to bytes the peer actually sent.
const (
	minCompletionSize = MinTaskIDSize + 1 + 8 // task + mask + duration
	minLaunchSize     = MinTaskIDSize + 1 + 8 // task + mask + duration
	minBeatSize       = 1 + 1 + 1 + 1         // node + flags + mask + count
	minBeatReplySize  = 1 + 1 + 4             // node + error len + reply
)

func appendCompletions(b []byte, cs []TaskCompletion) []byte {
	b = AppendCount(b, len(cs))
	for i := range cs {
		b = AppendTaskID(b, cs[i].Task)
		b = AppendVector(b, &cs[i].Usage)
		b = AppendFloat(b, cs[i].Duration)
	}
	return b
}

func appendHeartbeatBody(b []byte, hb *NMHeartbeat) []byte {
	b = AppendInt(b, hb.NodeID)
	var flags byte
	if hb.Delta {
		flags |= 1
	}
	b = append(b, flags)
	b = AppendVector(b, &hb.Used)
	return appendCompletions(b, hb.Completed)
}

func appendNMReplyBody(b []byte, r *NMReply) []byte {
	var flags byte
	if r.FullReport {
		flags |= 1
	}
	b = append(b, flags)
	b = AppendCount(b, len(r.Launch))
	for i := range r.Launch {
		l := &r.Launch[i]
		b = AppendTaskID(b, l.Task)
		b = AppendVector(b, &l.Demand)
		b = AppendFloat(b, l.Duration)
	}
	b = AppendCount(b, len(r.Kill))
	for _, id := range r.Kill {
		b = AppendTaskID(b, id)
	}
	b = AppendCount(b, len(r.Preempt))
	for _, p := range r.Preempt {
		b = AppendTaskID(b, p.Task)
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
		return AppendString(b, m.Error), true
	case TypeRegisterNM:
		r := m.RegisterNM
		b = append(b, binRegisterNM)
		b = AppendInt(b, r.NodeID)
		b = AppendVector(b, &r.Capacity)
		b = AppendCount(b, len(r.Running))
		for _, id := range r.Running {
			b = AppendTaskID(b, id)
		}
		return appendCompletions(b, r.Completed), true
	case TypeNMReply:
		b = append(b, binNMReply)
		return appendNMReplyBody(b, m.NMReply), true
	case TypeAMHeartbeat:
		b = append(b, binAMHeartbeat)
		return AppendInt(b, m.AMHeartbeat.JobID), true
	case TypeAMReply:
		r := m.AMReply
		b = append(b, binAMReply)
		b = AppendInt(b, r.Done)
		b = AppendInt(b, r.Total)
		var flags byte
		if r.Finished {
			flags |= 1
		}
		if r.Failed {
			flags |= 2
		}
		b = append(b, flags)
		return AppendFloat(b, r.FinishedAt), true
	case TypeHeartbeatBatch:
		batch := m.HeartbeatBatch
		b = append(b, binHeartbeatBatch)
		b = AppendCount(b, len(batch.Beats))
		for i := range batch.Beats {
			b = appendHeartbeatBody(b, &batch.Beats[i])
		}
		return b, true
	case TypeHeartbeatBatchReply:
		br := m.HeartbeatBatchReply
		b = append(b, binHeartbeatBatchReply)
		b = AppendCount(b, len(br.Replies))
		for i := range br.Replies {
			e := &br.Replies[i]
			b = AppendInt(b, e.NodeID)
			b = AppendString(b, e.Error)
			b = appendNMReplyBody(b, &e.Reply)
		}
		return b, true
	case TypeClusterStatus:
		return append(b, binClusterStatusReq), true
	}
	return b, false
}

// completions decodes a completion list into buf's capacity; a nil buf
// allocates only when the list is non-empty.
func (r *Reader) completions(buf []TaskCompletion) []TaskCompletion {
	n := r.Count(minCompletionSize)
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, TaskCompletion{
			Task:     r.TaskID(),
			Usage:    r.Vector(),
			Duration: r.Float(),
		})
	}
	return buf
}

// heartbeatBody decodes into hb, reusing hb.Completed's capacity.
func (r *Reader) heartbeatBody(hb *NMHeartbeat) {
	hb.NodeID = r.Int()
	flags := r.Byte()
	hb.Delta = flags&1 != 0
	hb.Used = r.Vector()
	hb.Completed = r.completions(hb.Completed)
}

// nmReplyBody decodes into rep, reusing its slice capacities.
func (r *Reader) nmReplyBody(rep *NMReply) {
	flags := r.Byte()
	rep.FullReport = flags&1 != 0
	n := r.Count(minLaunchSize)
	rep.Launch = rep.Launch[:0]
	for i := 0; i < n; i++ {
		rep.Launch = append(rep.Launch, TaskLaunch{
			Task:     r.TaskID(),
			Demand:   r.Vector(),
			Duration: r.Float(),
		})
	}
	n = r.Count(MinTaskIDSize)
	rep.Kill = rep.Kill[:0]
	for i := 0; i < n; i++ {
		rep.Kill = append(rep.Kill, r.TaskID())
	}
	n = r.Count(MinTaskIDSize)
	rep.Preempt = rep.Preempt[:0]
	for i := 0; i < n; i++ {
		rep.Preempt = append(rep.Preempt, TaskPreempt{Task: r.TaskID()})
	}
}

// decodeScratch holds the per-connection structures a Framer decodes
// hot binary frames into, so steady-state beats allocate nothing. A
// decoded Message aliases this scratch and is valid only until the
// Framer's next Read.
type decodeScratch struct {
	msg        Message
	nmReply    NMReply
	amhb       AMHeartbeat
	amReply    AMReply
	batch      HeartbeatBatch
	batchReply HeartbeatBatchReply
}

// decodeBinary decodes a codec-2 payload into s, returning &s.msg.
// RegisterNM decodes into fresh allocations: registration handlers
// journal the payload's slices asynchronously, so they must not alias
// reused scratch. Per-beat slices inside batches are likewise fresh
// when non-empty (empty — the steady state — stays nil).
func decodeBinary(payload []byte, s *decodeScratch) (*Message, error) {
	r := NewReader(payload)
	s.msg = Message{}
	switch t := r.Byte(); t {
	case binError:
		s.msg.Type = TypeError
		s.msg.Error = r.Str()
	case binRegisterNM:
		reg := &RegisterNM{}
		reg.NodeID = r.Int()
		reg.Capacity = r.Vector()
		n := r.Count(MinTaskIDSize)
		for i := 0; i < n; i++ {
			reg.Running = append(reg.Running, r.TaskID())
		}
		reg.Completed = r.completions(nil)
		s.msg.Type = TypeRegisterNM
		s.msg.RegisterNM = reg
	case binNMReply:
		r.nmReplyBody(&s.nmReply)
		s.msg.Type = TypeNMReply
		s.msg.NMReply = &s.nmReply
	case binAMHeartbeat:
		s.amhb.JobID = r.Int()
		s.msg.Type = TypeAMHeartbeat
		s.msg.AMHeartbeat = &s.amhb
	case binAMReply:
		rep := &s.amReply
		rep.Done = r.Int()
		rep.Total = r.Int()
		flags := r.Byte()
		rep.Finished = flags&1 != 0
		rep.Failed = flags&2 != 0
		rep.FinishedAt = r.Float()
		s.msg.Type = TypeAMReply
		s.msg.AMReply = rep
	case binHeartbeatBatch:
		n := r.Count(minBeatSize)
		s.batch.Beats = s.batch.Beats[:0]
		for i := 0; i < n; i++ {
			var hb NMHeartbeat
			r.heartbeatBody(&hb)
			s.batch.Beats = append(s.batch.Beats, hb)
		}
		s.msg.Type = TypeHeartbeatBatch
		s.msg.HeartbeatBatch = &s.batch
	case binHeartbeatBatchReply:
		n := r.Count(minBeatReplySize)
		s.batchReply.Replies = s.batchReply.Replies[:0]
		for i := 0; i < n; i++ {
			var e NMBeatReply
			e.NodeID = r.Int()
			e.Error = r.Str()
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
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &s.msg, nil
}
