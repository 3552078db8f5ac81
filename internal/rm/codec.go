package rm

// The journal codec: one binary encoding, built from internal/wire's
// primitives, for the events the RM journals and the snapshots it
// checkpoints (DESIGN §8.1, §8.3).
//
// The RM keeps one log for all its shards. A log record is recordTag,
// the index of the shard that journaled it, then the event: its kind
// byte, the RM clock as float64 bits, then only the fields that kind
// uses. A checkpoint is checkpointTag, the shard count, then each shard's
// state in index order: snapshotTag, the clock, the node table, the job
// table (by ID), the fault log and the estimator's statistics. Floats
// travel as raw IEEE-754 bits and every value has one encoding, so replay
// is bit-exact and equal states encode to equal bytes — StateDigest
// compares one shard's state.
//
// No older format begins with either tag: the one-log layout that still
// kept fields replay never read (0xA2 records, 0xA3 checkpoints of 0xA1
// shard states), a per-shard journal (untagged events, 0xA1 snapshots)
// or a JSON one (every record and snapshot begins with '{') is refused
// with ErrJournalFormat.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/faults"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/stats"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

var (
	// ErrJournalFormat reports a journal record or snapshot in an encoding
	// this RM does not write — a per-shard or JSON journal of an older
	// build, or an unknown kind. The RM fails closed; the operator
	// discards the journal directory.
	ErrJournalFormat = errors.New("rm: journal format not recognised (journals written by an older build must be discarded)")
	// ErrJournalCorrupt reports a journal record or snapshot that passed
	// its checksum but does not decode, or does not fit the state it is
	// applied to (an unknown machine or job, a task outside its job).
	ErrJournalCorrupt = errors.New("rm: journal inconsistent")
)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrJournalCorrupt}, args...)...)
}

// Event kinds, one per RM state transition; the first byte of a record.
const (
	evRegister byte = iota + 1
	evSubmit
	evLaunch
	evComplete
	evDead
	evRejoin
	evPreempt
)

// Leading bytes: of a shard's state (StateDigest), of a log record and
// of a checkpoint. None is an event kind or '{', nor a tag of an older
// layout (0xA1–0xA3).
const (
	snapshotTag   byte = 0xA4
	recordTag     byte = 0xA5
	checkpointTag byte = 0xA6
)

// Minimum encoded sizes of repeated elements, for wire.Reader.Count.
const (
	minCompletionSize = wire.MinTaskIDSize + wire.MinVectorSize + wire.MinFloatSize
	minChargeSize     = 1 + wire.MinVectorSize
	minInputSize      = 1 + wire.MinFloatSize
	minTaskSize       = wire.MinVectorSize + 2*wire.MinFloatSize + 1
	minStageSize      = 3
	minJobSize        = 1 + 1 + 2*wire.MinFloatSize + 1 + 1 + 1 + 1 + 1
	minMachineSize    = 1 + 2*wire.MinVectorSize + 1 + 1
	minJobStateSize   = minJobSize + 1 + wire.MinVectorSize + 1 + 1 + wire.MinFloatSize + 1
	minFaultSize      = 2*wire.MinFloatSize + 3
	minStageStatSize  = 2 + wire.MinVectorSize + 1 + 2*wire.MinFloatSize
)

// appendEvent appends ev's record.
func appendEvent(b []byte, ev *event) []byte {
	b = append(b, ev.Kind)
	b = wire.AppendFloat(b, ev.Time)
	switch ev.Kind {
	case evRegister:
		b = wire.AppendInt(b, ev.Node)
		b = wire.AppendVector(b, &ev.Capacity)
		b = wire.AppendCount(b, len(ev.Running))
		for _, id := range ev.Running {
			b = wire.AppendTaskID(b, id)
		}
		b = wire.AppendCount(b, len(ev.Completed))
		for i := range ev.Completed {
			c := &ev.Completed[i]
			b = wire.AppendTaskID(b, c.Task)
			b = wire.AppendVector(b, &c.Usage)
			b = wire.AppendFloat(b, c.Duration)
		}
	case evSubmit:
		b = wire.AppendString(b, ev.Tenant)
		b = appendJob(b, ev.Job)
	case evLaunch:
		b = wire.AppendTaskID(b, ev.Task)
		b = wire.AppendInt(b, ev.Machine)
		b = wire.AppendVector(b, &ev.Local)
		b = wire.AppendCount(b, len(ev.Remote))
		for i := range ev.Remote {
			b = wire.AppendInt(b, ev.Remote[i].Machine)
			b = wire.AppendVector(b, &ev.Remote[i].Charge)
		}
	case evComplete:
		b = wire.AppendInt(b, ev.Node)
		b = wire.AppendTaskID(b, ev.Task)
		b = wire.AppendVector(b, &ev.Usage)
		b = wire.AppendFloat(b, ev.Duration)
	case evDead, evRejoin:
		b = wire.AppendInt(b, ev.Node)
	case evPreempt:
		b = wire.AppendTaskID(b, ev.Task)
	}
	return b
}

// appendRecord appends the log record of ev, journaled by shard.
func appendRecord(b []byte, shard int, ev *event) []byte {
	b = append(b, recordTag)
	b = wire.AppendInt(b, shard)
	return appendEvent(b, ev)
}

// decodeRecord decodes one log record into ev and returns the shard it
// names, refusing one beyond the shards configured.
func decodeRecord(data []byte, shards int, ev *event) (int, error) {
	if len(data) == 0 || data[0] != recordTag {
		return 0, leadErr("record", data)
	}
	r := wire.NewReader(data[1:])
	shard := r.Int()
	if err := r.Err(); err != nil {
		return 0, corrupt("record: %v", err)
	}
	if shard < 0 || shard >= shards {
		return 0, corrupt("record of shard %d, %d configured", shard, shards)
	}
	return shard, decodeEvent(data[len(data)-r.Len():], ev)
}

// leadErr refuses a record or snapshot whose first byte is not its tag.
func leadErr(what string, data []byte) error {
	if len(data) == 0 {
		return corrupt("empty %s", what)
	}
	return fmt.Errorf("%w: %s begins with 0x%02x", ErrJournalFormat, what, data[0])
}

// decodeEvent decodes one event into ev.
func decodeEvent(data []byte, ev *event) error {
	r := wire.NewReader(data)
	*ev = event{Kind: r.Byte(), Time: r.Float()}
	switch ev.Kind {
	case evRegister:
		ev.Node = r.Int()
		ev.Capacity = r.Vector()
		if n := r.Count(wire.MinTaskIDSize); n > 0 {
			ev.Running = make([]workload.TaskID, n)
			for i := range ev.Running {
				ev.Running[i] = r.TaskID()
			}
		}
		if n := r.Count(minCompletionSize); n > 0 {
			ev.Completed = make([]wire.TaskCompletion, n)
			for i := range ev.Completed {
				ev.Completed[i] = wire.TaskCompletion{Task: r.TaskID(), Usage: r.Vector(), Duration: r.Float()}
			}
		}
	case evSubmit:
		ev.Tenant = r.Str()
		ev.Job = readJob(&r)
	case evLaunch:
		ev.Task = r.TaskID()
		ev.Machine = r.Int()
		ev.Local = r.Vector()
		if n := r.Count(minChargeSize); n > 0 {
			ev.Remote = make([]scheduler.RemoteCharge, n)
			for i := range ev.Remote {
				ev.Remote[i] = scheduler.RemoteCharge{Machine: r.Int(), Charge: r.Vector()}
			}
		}
	case evComplete:
		ev.Node = r.Int()
		ev.Task = r.TaskID()
		ev.Usage = r.Vector()
		ev.Duration = r.Float()
	case evDead, evRejoin:
		ev.Node = r.Int()
	case evPreempt:
		ev.Task = r.TaskID()
	default:
		if len(data) > 0 {
			return fmt.Errorf("%w: record kind 0x%02x", ErrJournalFormat, data[0])
		}
	}
	if err := r.Done(); err != nil {
		return corrupt("record: %v", err)
	}
	return nil
}

// appendJob appends a job definition. Task IDs are implied by position
// (Validate requires them to be), so they are not written.
func appendJob(b []byte, j *workload.Job) []byte {
	b = wire.AppendInt(b, j.ID)
	b = wire.AppendString(b, j.Name)
	b = wire.AppendFloat(b, j.Arrival)
	b = wire.AppendInt(b, j.Lineage)
	b = wire.AppendFloat(b, j.Weight)
	b = append(b, flags(j.Gang, j.Preemptible))
	b = wire.AppendInt(b, j.MinMembers)
	b = wire.AppendInt(b, j.Priority)
	b = wire.AppendCount(b, len(j.Stages))
	for _, st := range j.Stages {
		b = wire.AppendString(b, st.Name)
		b = wire.AppendCount(b, len(st.Deps))
		for _, d := range st.Deps {
			b = wire.AppendInt(b, d)
		}
		b = wire.AppendCount(b, len(st.Tasks))
		for _, t := range st.Tasks {
			b = wire.AppendVector(b, &t.Peak)
			b = wire.AppendFloat(b, t.Work.CPUSeconds)
			b = wire.AppendFloat(b, t.Work.WriteMB)
			b = wire.AppendCount(b, len(t.Inputs))
			for _, in := range t.Inputs {
				b = wire.AppendInt(b, in.Machine)
				b = wire.AppendFloat(b, in.SizeMB)
			}
		}
	}
	return b
}

// readJob decodes appendJob's encoding, giving each task its positional
// ID. The caller validates the job.
func readJob(r *wire.Reader) *workload.Job {
	j := &workload.Job{ID: r.Int(), Name: r.Str(), Arrival: r.Float(), Lineage: r.Int(), Weight: r.Float()}
	f := readFlags(r, 2)
	j.Gang, j.Preemptible = f&1 != 0, f&2 != 0
	j.MinMembers = r.Int()
	j.Priority = r.Int()
	if n := r.Count(minStageSize); n > 0 {
		j.Stages = make([]*workload.Stage, n)
		for si := range j.Stages {
			st := &workload.Stage{Name: r.Str()}
			if k := r.Count(1); k > 0 {
				st.Deps = make([]int, k)
				for i := range st.Deps {
					st.Deps[i] = r.Int()
				}
			}
			if k := r.Count(minTaskSize); k > 0 {
				tasks := make([]workload.Task, k)
				st.Tasks = make([]*workload.Task, k)
				for ti := range tasks {
					t := &tasks[ti]
					t.ID = workload.TaskID{Job: j.ID, Stage: si, Index: ti}
					t.Peak = r.Vector()
					t.Work = workload.Work{CPUSeconds: r.Float(), WriteMB: r.Float()}
					if m := r.Count(minInputSize); m > 0 {
						t.Inputs = make([]workload.InputBlock, m)
						for i := range t.Inputs {
							t.Inputs[i] = workload.InputBlock{Machine: r.Int(), SizeMB: r.Float()}
						}
					}
					st.Tasks[ti] = t
				}
			}
			j.Stages[si] = st
		}
	}
	return j
}

// flags packs booleans into a byte, the first as bit 0.
func flags(bs ...bool) byte {
	var f byte
	for i, b := range bs {
		if b {
			f |= 1 << i
		}
	}
	return f
}

// readFlags reads a flag byte of n defined bits, refusing any other bit.
func readFlags(r *wire.Reader, n int) byte {
	f := r.Byte()
	if f>>n != 0 {
		r.Fail(fmt.Errorf("unknown flag bits 0x%02x", f))
	}
	return f
}

// sameJob reports whether two job definitions are identical — the
// idempotent-resubmission test: their encodings are equal.
func sameJob(a, b *workload.Job) bool {
	return bytes.Equal(appendJob(nil, a), appendJob(nil, b))
}

// appendState appends the snapshot encoding of the durable state: the
// node table and job table in ID order, launches by task ID, then the
// fault log and the estimator's statistics. Everything transient
// (reported usage, delivery queues, timing stats, detector bookkeeping)
// is left out, and a machine awaiting resync encodes as live: that
// marking is itself transient recovery bookkeeping. Caller holds s.mu.
func (s *Server) appendState(b []byte) []byte {
	b = append(b, snapshotTag)
	b = wire.AppendFloat(b, s.lastEventTime)
	b = wire.AppendCount(b, s.countNodes(nil))
	for _, n := range s.nodes {
		if n == nil {
			continue
		}
		b = wire.AppendInt(b, n.ID)
		b = wire.AppendVector(b, &n.Capacity)
		b = wire.AppendVector(b, &n.Allocated)
		b = append(b, flags(n.Down && !n.resync, n.downSince != nil))
		b = wire.AppendInt(b, n.epoch)
		if n.downSince != nil {
			b = wire.AppendFloat(b, *n.downSince)
		}
	}
	ids := s.jobIDs()
	b = wire.AppendCount(b, len(ids))
	for _, id := range ids {
		b = appendJobState(b, s.jobs[id])
	}
	recs := s.faultLog.Snapshot()
	b = wire.AppendCount(b, len(recs))
	for _, rec := range recs {
		b = wire.AppendFloat(b, rec.Time)
		b = wire.AppendInt(b, int(rec.Kind))
		b = wire.AppendInt(b, rec.Machine)
		b = wire.AppendInt(b, rec.TasksKilled)
		b = wire.AppendFloat(b, rec.Downtime)
	}
	b = wire.AppendUint(b, s.faultLog.Dropped())
	var est estimator.State
	if s.est != nil {
		est = s.est.Export()
	}
	b = appendStageStats(b, est.Current)
	return appendStageStats(b, est.History)
}

// appendJobState appends one job-table entry.
func appendJobState(b []byte, ji *jobInfo) []byte {
	job, st := ji.state.Job, ji.state.Status
	b = appendJob(b, job)
	b = wire.AppendCount(b, len(job.Stages))
	for si := range job.Stages {
		states := st.StageStates(si)
		b = wire.AppendCount(b, len(states))
		for _, x := range states {
			b = append(b, byte(x))
		}
		attempts := st.StageAttempts(si)
		b = wire.AppendCount(b, len(attempts))
		for _, a := range attempts {
			b = wire.AppendInt(b, a)
		}
	}
	b = wire.AppendVector(b, &ji.state.Alloc)
	tids := launchedIDs(ji, -1)
	b = wire.AppendCount(b, len(tids))
	for _, tid := range tids {
		rec := ji.launch(tid)
		b = wire.AppendTaskID(b, tid)
		b = wire.AppendInt(b, rec.machine)
		b = wire.AppendVector(b, &rec.local)
		b = wire.AppendCount(b, len(rec.remote))
		for i := range rec.remote {
			b = wire.AppendInt(b, rec.remote[i].machine)
			b = wire.AppendVector(b, &rec.remote[i].charge)
			b = wire.AppendInt(b, rec.remote[i].epoch)
		}
	}
	b = append(b, flags(ji.finished, ji.failed))
	b = wire.AppendFloat(b, ji.finishedAt)
	return wire.AppendString(b, ji.tenant)
}

func appendStageStats(b []byte, xs []estimator.StageState) []byte {
	b = wire.AppendCount(b, len(xs))
	for i := range xs {
		x := &xs[i]
		b = wire.AppendInt(b, x.Key)
		b = wire.AppendInt(b, x.Stage)
		b = wire.AppendVector(b, &x.Peak)
		b = wire.AppendInt(b, x.Duration.N)
		b = wire.AppendFloat(b, x.Duration.Mean)
		b = wire.AppendFloat(b, x.Duration.M2)
	}
	return b
}

// readStageStats decodes appendStageStats' encoding, refusing entries
// out of (key, stage) order — Export's order, which Import would
// otherwise silently rewrite.
func readStageStats(r *wire.Reader) []estimator.StageState {
	n := r.Count(minStageStatSize)
	if n == 0 {
		return nil
	}
	xs := make([]estimator.StageState, n)
	for i := range xs {
		x := &xs[i]
		x.Key, x.Stage, x.Peak = r.Int(), r.Int(), r.Vector()
		x.Duration = stats.OnlineState{N: r.Int(), Mean: r.Float(), M2: r.Float()}
		if i > 0 && (x.Key < xs[i-1].Key || x.Key == xs[i-1].Key && x.Stage <= xs[i-1].Stage) {
			r.Fail(fmt.Errorf("estimator stage (%d, %d) out of order", x.Key, x.Stage))
		}
	}
	return xs
}

// appendCheckpoint appends a checkpoint of every shard. Past the first
// shard it makes room for the rest at the mean size so far: one
// allocation instead of a chain of append's 1.25× growths. Caller holds
// every shard lock.
func appendCheckpoint(b []byte, shards []*Server) []byte {
	b = append(b, checkpointTag)
	b = wire.AppendCount(b, len(shards))
	start := len(b)
	for i, s := range shards {
		if i > 0 {
			b = slices.Grow(b, (len(b)-start)/i*(len(shards)-i)*9/8)
		}
		b = s.appendState(b)
	}
	return b
}

// restoreCheckpoint rebuilds every shard from a checkpoint, refusing one
// written by another shard count with ErrJournalLayout naming dir.
func restoreCheckpoint(data []byte, shards []*Server, dir string) error {
	if len(data) == 0 || data[0] != checkpointTag {
		return leadErr("snapshot", data)
	}
	r := wire.NewReader(data[1:])
	if n := r.Uint(); r.Err() == nil && n != uint64(len(shards)) {
		return &ErrJournalLayout{Path: dir, Reason: fmt.Sprintf("log written by %d shard(s), %d configured", n, len(shards))}
	}
	for _, s := range shards {
		if err := s.restoreState(&r); err != nil {
			return err
		}
	}
	if err := r.Done(); err != nil {
		return corrupt("snapshot: %v", err)
	}
	return nil
}

// restoreState rebuilds one shard from its section of a checkpoint,
// leaving r after it. Called during recovery before any goroutine
// starts; on an error the RM is discarded.
func (s *Server) restoreState(r *wire.Reader) error {
	if tag := r.Byte(); tag != snapshotTag && r.Err() == nil {
		return corrupt("shard state begins with 0x%02x", tag)
	}
	s.lastEventTime = r.Float()
	prev := -1
	for range r.Count(minMachineSize) {
		ms := machineSnap{ID: r.Int(), Capacity: r.Vector(), Allocated: r.Vector()}
		f := readFlags(r, 2)
		ms.Dead = f&1 != 0
		ms.Epoch = r.Int()
		if f&2 != 0 {
			t := r.Float()
			ms.DownSince = &t
		}
		if r.Err() != nil {
			break
		}
		if err := checkNodeID(ms.ID); err != nil {
			return corrupt("snapshot machine: %v", err)
		}
		if ms.ID <= prev {
			return corrupt("snapshot machine %d after machine %d", ms.ID, prev)
		}
		prev = ms.ID
		s.addNode(ms)
	}
	prevJob := math.MinInt
	for range r.Count(minJobStateSize) {
		ji, err := s.readJobState(r)
		if err != nil {
			return err
		}
		if ji == nil {
			break
		}
		if id := ji.state.Job.ID; id <= prevJob {
			return corrupt("snapshot job %d after job %d", id, prevJob)
		}
		prevJob = ji.state.Job.ID
		if !ji.finished && s.adm != nil {
			// Re-adopt the unfinished job's tenant accounting so quotas
			// hold across the restart (finished jobs were released live).
			s.adm.adopt(ji.tenant)
		}
		s.addJob(ji)
	}
	var recs []faults.Record
	n := r.Count(minFaultSize)
	if n > faults.DefaultRingCap {
		return corrupt("snapshot holds %d fault records, the log keeps %d", n, faults.DefaultRingCap)
	}
	if n > 0 {
		recs = make([]faults.Record, n)
		for i := range recs {
			recs[i] = faults.Record{Time: r.Float(), Kind: faults.Kind(r.Int()), Machine: r.Int(), TasksKilled: r.Int(), Downtime: r.Float()}
		}
	}
	dropped := r.Uint()
	est := estimator.State{Current: readStageStats(r), History: readStageStats(r)}
	if err := r.Err(); err != nil {
		return corrupt("snapshot: %v", err)
	}
	s.faultLog.Restore(recs, dropped)
	if s.est != nil {
		s.est.Import(est)
	}
	return nil
}

// readJobState decodes one job-table entry and checks it against the
// machines already restored. A nil entry and error means the reader
// failed; the caller's r.Done reports why.
func (s *Server) readJobState(r *wire.Reader) (*jobInfo, error) {
	job := readJob(r)
	var snap workload.StatusSnapshot
	if n := r.Count(2); n > 0 {
		snap.States = make([][]workload.TaskState, n)
		snap.Attempts = make([][]int, n)
		for si := range snap.States {
			row := make([]workload.TaskState, r.Count(1))
			for i := range row {
				row[i] = workload.TaskState(r.Byte())
			}
			snap.States[si] = row
			if k := r.Count(1); k > 0 {
				snap.Attempts[si] = make([]int, k)
				for i := range snap.Attempts[si] {
					snap.Attempts[si][i] = r.Int()
				}
			}
		}
	}
	alloc := r.Vector()
	n := r.Count(wire.MinTaskIDSize + 1 + wire.MinVectorSize + 1)
	tids := make([]workload.TaskID, n)
	recs := make([]launchRecord, n)
	for i := range recs {
		tids[i] = r.TaskID()
		recs[i] = launchRecord{machine: r.Int(), local: r.Vector()}
		if k := r.Count(minChargeSize + 1); k > 0 {
			recs[i].remote = make([]remoteCharge, k)
			for c := range recs[i].remote {
				recs[i].remote[c] = remoteCharge{machine: r.Int(), charge: r.Vector(), epoch: r.Int()}
			}
		}
	}
	f := readFlags(r, 2)
	ji := &jobInfo{finished: f&1 != 0, failed: f&2 != 0, finishedAt: r.Float(), tenant: r.Str()}
	if r.Err() != nil {
		return nil, nil
	}
	if err := job.Validate(); err != nil {
		return nil, corrupt("snapshot job %d: %v", job.ID, err)
	}
	status, err := workload.RestoreStatus(job, snap)
	if err != nil {
		return nil, corrupt("snapshot: %v", err)
	}
	ji.state = &scheduler.JobState{Job: job, Status: status, Alloc: alloc}
	ji.meanVolume = meanTaskVolume(job)
	for i, tid := range tids {
		if i > 0 && !tids[i-1].Less(tid) {
			return nil, corrupt("snapshot job %d: launch %v after %v", job.ID, tid, tids[i-1])
		}
		if tid.Job != job.ID || !hasTask(job, tid) || status.State(tid) != workload.Running {
			return nil, corrupt("snapshot job %d: launch %v is no running task of the job", job.ID, tid)
		}
		known := s.node(recs[i].machine) != nil
		for _, rc := range recs[i].remote {
			known = known && s.node(rc.machine) != nil
		}
		if !known {
			return nil, corrupt("snapshot job %d: launch %v charges an unregistered machine", job.ID, tid)
		}
		*ji.slot(tid) = recs[i]
	}
	return ji, nil
}

// hasTask reports whether tid names a task of j.
func hasTask(j *workload.Job, tid workload.TaskID) bool {
	return tid.Stage >= 0 && tid.Stage < len(j.Stages) && tid.Index >= 0 && tid.Index < len(j.Stages[tid.Stage].Tasks)
}
