// Package wire defines the message protocol spoken between the
// cluster-wide resource manager (RM), the per-node node managers (NM)
// and the per-job job managers (AM) of the distributed prototype
// (§4.4): framed messages over TCP.
//
// Framing (codec.go): a 6-byte header — magic byte, codec byte, 4-byte
// big-endian length — followed by that many bytes of JSON or binary
// payload. Frames are capped at MaxFrame to bound memory under a
// misbehaving peer.
package wire

import (
	"errors"
	"fmt"
	"io"

	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// MaxFrame is the largest accepted frame size in bytes. Job DAGs with
// tens of thousands of tasks serialize well below this.
const MaxFrame = 64 << 20

// ErrFrameTooLarge marks a frame exceeding MaxFrame, on either path:
// Framer.Write refuses to emit one, Framer.Read refuses a header
// announcing one.
// Callers distinguish it (errors.Is) from transport failures — an
// oversize frame is a peer bug or corruption, never worth a retry.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// ErrBadMessage marks a structurally invalid envelope: the set of
// payload fields does not match the declared Type (nil payload for a
// type that requires one, extra payloads alongside it, or payloads on a
// type that carries none). Handlers may therefore dereference the
// payload matching a decoded message's Type without nil checks.
var ErrBadMessage = errors.New("wire: payload fields do not match message type")

// Message types.
const (
	TypeRegisterNM          = "register-nm"
	TypeNMReply             = "nm-reply"
	TypeSubmitJob           = "submit-job"
	TypeSubmitReject        = "submit-reject"
	TypeSubmitBatch         = "submit-batch"
	TypeSubmitBatchReply    = "submit-batch-reply"
	TypeAMHeartbeat         = "am-heartbeat"
	TypeAMReply             = "am-reply"
	TypeClusterStatus       = "cluster-status"
	TypeClusterStatusReply  = "cluster-status-reply"
	TypeHeartbeatBatch      = "heartbeat-batch"
	TypeHeartbeatBatchReply = "heartbeat-batch-reply"
	TypeError               = "error"
)

// Message is the envelope for every frame. Exactly one payload field is
// set, matching Type; Framer.Read enforces this (ErrBadMessage) so
// handlers never see a declared type with a nil payload.
type Message struct {
	Type string `json:"type"`

	RegisterNM          *RegisterNM          `json:"registerNM,omitempty"`
	NMReply             *NMReply             `json:"nmReply,omitempty"`
	SubmitJob           *SubmitJob           `json:"submitJob,omitempty"`
	SubmitReject        *SubmitReject        `json:"submitReject,omitempty"`
	SubmitBatch         *SubmitBatch         `json:"submitBatch,omitempty"`
	SubmitBatchReply    *SubmitBatchReply    `json:"submitBatchReply,omitempty"`
	AMHeartbeat         *AMHeartbeat         `json:"amHeartbeat,omitempty"`
	AMReply             *AMReply             `json:"amReply,omitempty"`
	ClusterStatus       *ClusterStatusReply  `json:"clusterStatus,omitempty"`
	HeartbeatBatch      *HeartbeatBatch      `json:"heartbeatBatch,omitempty"`
	HeartbeatBatchReply *HeartbeatBatchReply `json:"heartbeatBatchReply,omitempty"`
	Error               string               `json:"error,omitempty"`
}

// payloads returns a bitmask of which payload fields are non-nil, and
// the bit the declared Type requires (0 for payload-less types and
// unknown types — which must then set no payload at all).
func (m *Message) payloads() (set, want uint16) {
	fields := [...]struct {
		bit   uint16
		typ   string
		unset bool
	}{
		{1 << 0, TypeRegisterNM, m.RegisterNM == nil},
		{1 << 2, TypeNMReply, m.NMReply == nil},
		{1 << 3, TypeSubmitJob, m.SubmitJob == nil},
		{1 << 4, TypeSubmitReject, m.SubmitReject == nil},
		{1 << 5, TypeSubmitBatch, m.SubmitBatch == nil},
		{1 << 6, TypeSubmitBatchReply, m.SubmitBatchReply == nil},
		{1 << 7, TypeAMHeartbeat, m.AMHeartbeat == nil},
		{1 << 8, TypeAMReply, m.AMReply == nil},
		{1 << 9, TypeClusterStatusReply, m.ClusterStatus == nil},
		{1 << 10, TypeHeartbeatBatch, m.HeartbeatBatch == nil},
		{1 << 11, TypeHeartbeatBatchReply, m.HeartbeatBatchReply == nil},
	}
	for _, f := range fields {
		if !f.unset {
			set |= f.bit
		}
		if f.typ == m.Type {
			want = f.bit
		}
	}
	return set, want
}

// Validate checks the envelope invariant: the payload matching Type is
// set and no other payload is. Types without a payload struct (error,
// cluster-status requests, unknown types — which serve loops answer
// with a typed error rather than a dropped connection) must carry none.
func (m *Message) Validate() error {
	set, want := m.payloads()
	if set != want {
		return fmt.Errorf("%w: type %q", ErrBadMessage, m.Type)
	}
	return nil
}

// HeartbeatBatch is the one heartbeat frame: a node manager's beat is a
// batch of one, and the hollow fleet coalesces many nodes' beats on a
// shared connection. The RM answers with a HeartbeatBatchReply carrying
// one entry per beat, in order, so per-node ack semantics (DeltaTracker
// baseline advance) do not depend on how many beats share a frame.
type HeartbeatBatch struct {
	Beats []NMHeartbeat `json:"beats"`
}

// NMBeatReply is one node's verdict inside a batch reply: either Error
// is non-empty (e.g. the node must re-register) or Reply holds the
// node's NMReply.
type NMBeatReply struct {
	NodeID int     `json:"nodeID"`
	Error  string  `json:"error,omitempty"`
	Reply  NMReply `json:"reply"`
}

// HeartbeatBatchReply answers a HeartbeatBatch with per-node verdicts,
// in the order the beats appeared in the batch.
type HeartbeatBatchReply struct {
	Replies []NMBeatReply `json:"replies"`
}

// RegisterNM announces a node manager and its machine capacity. On
// re-registration (link blip, RM restart) it additionally carries the
// node's view of its own work — the resync reconciliation input: the
// RM resolves Running/Completed against its journal-recovered ledger,
// adopting tasks both sides agree on, killing orphans the ledger does
// not know (via NMReply.Kill), and re-queueing launches the node never
// received.
type RegisterNM struct {
	NodeID   int              `json:"nodeID"`
	Capacity resources.Vector `json:"capacity"`
	// Running lists the tasks currently executing on the node.
	Running []workload.TaskID `json:"running,omitempty"`
	// Completed reports completions buffered while disconnected, so
	// reconciliation sees them before deciding what was lost.
	Completed []TaskCompletion `json:"completed,omitempty"`
}

// TaskCompletion reports a finished task with its measured peak usage and
// duration — the estimator's input (§4.1).
type TaskCompletion struct {
	Task     workload.TaskID  `json:"task"`
	Usage    resources.Vector `json:"usage"`
	Duration float64          `json:"duration"`
}

// NMHeartbeat is the node manager's periodic report, one entry of a
// HeartbeatBatch: the node's usage plus completions since the last beat.
//
// Availability reports come in two forms. A full report carries Used.
// A delta report (Delta set) omits it: it asserts Used is bit-identical
// to this node's last *acknowledged* report — the
// last heartbeat whose reply the node actually read — so the RM keeps
// its current view. The sender side lives in DeltaTracker; senders must
// open every session (connect or reconnect) with a full report, and
// must fall back to full when the reply carries NMReply.FullReport
// (the RM reset its view: restart, dead-node reclaim, rejoin).
type NMHeartbeat struct {
	NodeID int `json:"nodeID"`
	// Delta marks a delta availability report: Used is omitted because
	// it equals the last acknowledged report's value.
	Delta     bool             `json:"delta,omitempty"`
	Used      resources.Vector `json:"used,omitzero"`
	Completed []TaskCompletion `json:"completed,omitempty"`
}

// TaskLaunch instructs a node manager to start one task; Task.Job names
// its job.
type TaskLaunch struct {
	Task   workload.TaskID  `json:"task"`
	Demand resources.Vector `json:"demand"`
	// Duration is the emulated execution time in (uncompressed) seconds;
	// the node manager divides by its time-compression factor.
	Duration float64 `json:"duration"`
}

// TaskPreempt orders a node to evict one running task so a gang can be
// admitted. Unlike Kill (orphan reconciliation), the eviction is an
// accounted scheduling decision: the RM has already journaled it,
// charged the task's attempt, and requeued the task; the node must
// stop the task and report no completion for it.
type TaskPreempt struct {
	Task workload.TaskID `json:"task"`
}

// NMReply answers a registration or heartbeat with tasks to launch and
// orphaned tasks to kill.
type NMReply struct {
	Launch []TaskLaunch `json:"launch,omitempty"`
	// Kill lists running tasks the RM's ledger does not recognize
	// (resync reconciliation found them orphaned — e.g. their attempt
	// was reclaimed and re-run elsewhere while the node was presumed
	// dead). The node must stop them and report no completion.
	Kill []workload.TaskID `json:"kill,omitempty"`
	// Preempt lists accounted scheduling evictions (gang admission);
	// the node stops each task exactly as for Kill, but the RM has
	// already requeued the attempts.
	Preempt []TaskPreempt `json:"preempt,omitempty"`
	// FullReport asks the node to send a full (non-delta) availability
	// report on its next heartbeat: the RM has no authoritative usage
	// view for the node (it just registered, was declared dead, or
	// rejoined after a presumed death zeroed its ledger), so a delta
	// report would silently pin a stale baseline.
	FullReport bool `json:"fullReport,omitempty"`
}

// SubmitJob registers a job (full DAG with declared demands) with the RM.
// Tenant names the submitting tenant for admission control; empty means
// the anonymous default tenant.
type SubmitJob struct {
	Job    *workload.Job `json:"job"`
	Tenant string        `json:"tenant,omitempty"`
}

// Reject codes carried by SubmitReject.Code. Codes with RetryAfter > 0
// are transient (the AM should back off and retry); RetryAfter == 0
// marks a permanent rejection (malformed job, definition conflict).
const (
	RejectInvalid     = "invalid-job"   // failed structural validation; permanent
	RejectConflict    = "id-conflict"   // same ID, different definition; permanent
	RejectRateLimited = "rate-limited"  // tenant submit token bucket empty
	RejectQuotaJobs   = "quota-jobs"    // tenant queued-job quota exhausted
	RejectShed        = "shed-overload" // load shedding: RM saturated, tenant priority below the floor
)

// SubmitReject is the typed overload/validation response to a SubmitJob:
// the RM refused the job at admission and nothing was journaled. AMs use
// Code and RetryAfter to decide between jittered backoff (transient
// rejections) and giving up (permanent ones). Heartbeat traffic is never
// answered with SubmitReject — only submissions are shed.
type SubmitReject struct {
	Code   string `json:"code"`
	Reason string `json:"reason,omitempty"`
	// RetryAfter is the server's backoff hint in seconds; 0 means the
	// rejection is permanent and retrying the same submission is useless.
	RetryAfter float64 `json:"retryAfter,omitempty"`
}

// SubmitBatch is the bulk-ingest submission path: many jobs from one
// tenant in one frame. The RM admits each job independently (per-job
// verdicts in SubmitBatchReply) and journals all accepted jobs with a
// single fsync barrier before replying, so an acked batch is durable.
type SubmitBatch struct {
	Tenant string          `json:"tenant,omitempty"`
	Jobs   []*workload.Job `json:"jobs"`
}

// SubmitResult is one job's admission verdict inside a batch reply.
type SubmitResult struct {
	JobID int `json:"jobID"`
	// Reject is nil when the job was admitted (or deduplicated as an
	// idempotent resubmission).
	Reject *SubmitReject `json:"reject,omitempty"`
}

// SubmitBatchReply carries per-job admission verdicts, in the order the
// jobs appeared in the batch.
type SubmitBatchReply struct {
	Results []SubmitResult `json:"results"`
}

// AMHeartbeat polls job progress.
type AMHeartbeat struct {
	JobID int `json:"jobID"`
}

// AMReply reports the progress of the job an AMHeartbeat polled.
type AMReply struct {
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	Finished   bool    `json:"finished"`
	FinishedAt float64 `json:"finishedAt,omitempty"`
	// Failed means the RM abandoned the job: a task exhausted its
	// per-task attempt cap under node failures. Finished is also set so
	// pollers stop.
	Failed bool `json:"failed,omitempty"`
}

// ClusterStatusReply answers a TypeClusterStatus query (an empty-payload
// request): node liveness and the RM's fault-event log. Tests and
// operators use it to watch failure detection and recovery.
type ClusterStatusReply struct {
	// Nodes is the number of registered nodes (live or dead).
	Nodes int `json:"nodes"`
	// Live and Dead list node IDs in ascending order.
	Live []int `json:"live,omitempty"`
	Dead []int `json:"dead,omitempty"`
	// Faults is the RM's chronological crash/recovery log (the most
	// recent window — the RM bounds it with a ring buffer).
	Faults []faults.Record `json:"faults,omitempty"`
	// DroppedFaults counts fault records evicted from that ring.
	DroppedFaults uint64 `json:"droppedFaults,omitempty"`
}

// readChunk is the staged-allocation step for frame bodies: the buffer
// grows by at most this much ahead of bytes actually received, so a
// peer announcing a just-under-MaxFrame header on many connections
// cannot balloon memory without paying for the bytes itself.
const readChunk = 256 << 10

// readBody reads an n-byte frame body into buf (reusing its capacity),
// growing in readChunk steps as bytes actually arrive.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		target := len(buf) + readChunk
		if target > n {
			target = n
		}
		if target > cap(buf) {
			grown := make([]byte, len(buf), target)
			copy(grown, buf)
			buf = grown
		}
		chunk := buf[len(buf):target]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return buf, err
		}
		buf = buf[:target]
	}
	return buf, nil
}
