package rm

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/estimator"
	"github.com/tetris-sched/tetris/internal/journal"
	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/scheduler"
	"github.com/tetris-sched/tetris/internal/wire"
	"github.com/tetris-sched/tetris/internal/workload"
)

// codecCore is an empty shard core with journaling off and every
// snapshotted feature on: failure detector (DownSince), estimator, a
// fault log and an attempt cap.
func codecCore(t testing.TB) *Server {
	t.Helper()
	s := &Server{
		cfg:   &ShardedConfig{NodeTimeout: time.Hour, MaxTaskAttempts: 3},
		sched: tetrisScheduler(),
		est:   estimator.New(),
	}
	if err := s.open(); err != nil {
		t.Fatal(err)
	}
	return s
}

// codecJob is job 1 of the fixture: a recurring two-stage job whose
// first stage reads an input block on machine 1.
func codecJob() *workload.Job {
	peak := resources.New(2, 4, 100, 50, 100, 100)
	j := &workload.Job{ID: 1, Name: "etl", Arrival: 0.25, Lineage: 7, Weight: 1.5, Stages: []*workload.Stage{
		{Name: "map"}, {Name: "reduce", Deps: []int{0}},
	}}
	for i := 0; i < 2; i++ {
		j.Stages[0].Tasks = append(j.Stages[0].Tasks, &workload.Task{
			ID: workload.TaskID{Job: 1, Stage: 0, Index: i}, Peak: peak,
			Work:   workload.Work{CPUSeconds: 20},
			Inputs: []workload.InputBlock{{Machine: 1, SizeMB: 64}, {Machine: -1, SizeMB: 8}},
		})
	}
	j.Stages[1].Tasks = []*workload.Task{{
		ID: workload.TaskID{Job: 1, Stage: 1, Index: 0}, Peak: peak,
		Work: workload.Work{CPUSeconds: 5, WriteMB: 10},
	}}
	return j
}

// codecEvents is one event of every kind, in an order that applies
// cleanly to an empty core and leaves a machine dead.
func codecEvents() []event {
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	gangJob := simpleJob(2, 2)
	gangJob.Gang, gangJob.MinMembers, gangJob.Priority = true, 2, 3
	usage := resources.New(1.5, 3, 80, 0, 0, 0)
	return []event{
		{Kind: evRegister, Time: 0.1, Node: 0, Capacity: capV},
		{Kind: evRegister, Time: 0.2, Node: 1, Capacity: capV,
			Running:   []workload.TaskID{{Job: 9}},
			Completed: []wire.TaskCompletion{{Task: workload.TaskID{Job: 9, Index: 1}, Usage: usage, Duration: 1.5}}},
		{Kind: evRegister, Time: 0.3, Node: 2, Capacity: capV},
		{Kind: evSubmit, Time: 0.4, Job: codecJob(), Tenant: "analytics"},
		{Kind: evSubmit, Time: 0.5, Job: gangJob},
		{Kind: evLaunch, Time: 1, Task: workload.TaskID{Job: 1}, Machine: 0,
			Local:  resources.New(2, 4, 100, 50, 100, 0),
			Remote: []scheduler.RemoteCharge{{Machine: 1, Charge: resources.New(0, 0, 100, 0, 0, 100)}}},
		{Kind: evLaunch, Time: 1, Task: workload.TaskID{Job: 1, Index: 1}, Machine: 2, Local: resources.New(2, 4, 100, 50, 0, 0)},
		{Kind: evComplete, Time: 2, Node: 0, Task: workload.TaskID{Job: 1}, Usage: usage, Duration: 0.75},
		{Kind: evPreempt, Time: 3, Task: workload.TaskID{Job: 1, Index: 1}},
		{Kind: evDead, Time: 5, Node: 2},
		{Kind: evRejoin, Time: 6.5, Node: 2},
		{Kind: evDead, Time: 7, Node: 1}, // stays dead: DownSince is set
	}
}

// restoreDigest restores s from one shard's state (a StateDigest),
// refusing trailing bytes with ErrJournalCorrupt, as restoreCheckpoint
// does.
func restoreDigest(s *Server, data []byte) error {
	r := wire.NewReader(data)
	if err := s.restoreState(&r); err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return corrupt("snapshot: %v", err)
	}
	return nil
}

// journalErr reports whether err is one of the typed errors a journal
// that does not decode or fit is refused with.
func journalErr(err error) bool {
	var layout *ErrJournalLayout
	return errors.Is(err, ErrJournalCorrupt) || errors.Is(err, ErrJournalFormat) || errors.As(err, &layout)
}

// codecFixture is codecCore with codecEvents applied.
func codecFixture(t testing.TB) *Server {
	t.Helper()
	s := codecCore(t)
	evs := codecEvents()
	for i := range evs {
		if err := s.applyEvent(&evs[i]); err != nil {
			t.Fatalf("fixture event %d: %v", i, err)
		}
	}
	return s
}

// TestJournalRecordRoundTrip: every event kind, as a log record of
// either shard, decodes to what was encoded (task IDs rebuilt from
// position) and re-encodes to the same bytes, and so does the snapshot
// of a core that used them all, alone and in a two-shard checkpoint.
func TestJournalRecordRoundTrip(t *testing.T) {
	for i, ev := range codecEvents() {
		data := appendRecord(nil, i%2, &ev)
		var got event
		shard, err := decodeRecord(data, 2, &got)
		if err != nil || shard != i%2 {
			t.Fatalf("kind %d: shard %d, %v", ev.Kind, shard, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("kind %d: decoded %+v, want %+v", ev.Kind, got, ev)
		}
		if again := appendRecord(nil, shard, &got); !bytes.Equal(again, data) {
			t.Errorf("kind %d: re-encoding differs", ev.Kind)
		}
	}

	s := codecFixture(t)
	digest := s.StateDigest()
	r := codecCore(t)
	if err := restoreDigest(r, digest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.StateDigest(), digest) {
		t.Error("restored snapshot re-encodes differently")
	}
	cp := appendCheckpoint(nil, []*Server{codecCore(t), s})
	two := []*Server{codecCore(t), codecCore(t)}
	if err := restoreCheckpoint(cp, two, "dir"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(two[1].StateDigest(), digest) || !bytes.Equal(appendCheckpoint(nil, two), cp) {
		t.Error("restored checkpoint re-encodes differently")
	}
	if err := r.VerifyLedger(); err != nil {
		t.Error(err)
	}
	// The fixture reached every snapshotted field that has a zero value.
	ji := r.jobs[1]
	if len(ji.launched) != 0 || ji.state.Status.Attempts(workload.TaskID{Job: 1, Index: 1}) != 1 ||
		r.faultLog.Len() != 3 || r.nodes[2].epoch != 1 || r.nodes[1].downSince == nil {
		t.Errorf("fixture did not reach the state it is meant to cover")
	}
	if st := r.est.Export(); len(st.Current) == 0 || len(st.History) == 0 {
		t.Error("fixture estimator holds no statistics")
	}
}

// TestJournalRecordLyingCount: a count larger than the bytes behind it
// fails before anything proportional to it is allocated.
func TestJournalRecordLyingCount(t *testing.T) {
	data := wire.AppendFloat([]byte{evRegister}, 0)
	data = wire.AppendInt(data, 1)
	data = append(data, 0)              // capacity
	data = wire.AppendUint(data, 1<<40) // running tasks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ev event
	err := decodeEvent(data, &ev)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Errorf("lying count: err = %v, want ErrJournalCorrupt", err)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 4<<10 {
		t.Errorf("lying count allocated %d bytes", b)
	}
}

// TestReplayRefusesInconsistentJournal: records and a snapshot that
// pass their checksum but do not fit the state they apply to are
// refused with ErrJournalCorrupt, leaving the state as it was. Every
// case but the job written twice panicked replay before it was checked.
func TestReplayRefusesInconsistentJournal(t *testing.T) {
	pending := workload.TaskID{Job: 1, Index: 1} // preempted back to pending
	badDeps := simpleJob(3, 1)
	badDeps.Stages[0].Deps = []int{5}
	for _, c := range []struct {
		name string
		ev   event
	}{
		{"launch from an unregistered remote source", event{Kind: evLaunch, Task: pending, Machine: 0,
			Remote: []scheduler.RemoteCharge{{Machine: 3, Charge: resources.New(0, 0, 1, 0, 0, 1)}}}},
		{"launch of a task index outside its job", event{Kind: evLaunch, Task: workload.TaskID{Job: 1, Index: 5}, Machine: 0}},
		{"launch of a stage outside its job", event{Kind: evLaunch, Task: workload.TaskID{Job: 1, Stage: 4}, Machine: 0}},
		{"submit of an invalid job", event{Kind: evSubmit, Job: badDeps}},
	} {
		s := codecFixture(t)
		before := s.StateDigest()
		var ev event
		err := decodeEvent(appendEvent(nil, &c.ev), &ev)
		if err == nil {
			err = s.applyEvent(&ev)
		}
		if !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", c.name, err)
		}
		if !bytes.Equal(s.StateDigest(), before) {
			t.Errorf("%s: the refused record changed the state", c.name)
		}
	}

	for _, c := range []struct {
		name   string
		mutate func(*Server)
	}{
		{"status rows not matching stages", func(s *Server) {
			s.jobs[2].state.Status = workload.NewStatus(simpleJob(2, 3)) // three tasks for a stage of two
		}},
		{"a job written twice", func(s *Server) { s.jobs[2] = s.jobs[1] }},
	} {
		s := codecFixture(t)
		c.mutate(s)
		if err := restoreDigest(codecCore(t), s.StateDigest()); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("snapshot with %s: err = %v, want ErrJournalCorrupt", c.name, err)
		}
	}
}

// TestLogFramingRefused: a record naming a shard the RM does not have, a
// checkpoint of another shard count, a truncated shard section and the
// per-shard encodings of an older build each fail with their typed
// error; none is applied.
func TestLogFramingRefused(t *testing.T) {
	ev := codecEvents()[0]
	var got event
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"record of shard 2 of 2", appendRecord(nil, 2, &ev), ErrJournalCorrupt},
		{"record of shard -1", appendRecord(nil, -1, &ev), ErrJournalCorrupt},
		{"untagged per-shard record", appendEvent(nil, &ev), ErrJournalFormat},
		{"empty record", nil, ErrJournalCorrupt},
	} {
		if _, err := decodeRecord(c.data, 2, &got); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	fixture := codecFixture(t)
	cp := appendCheckpoint(nil, []*Server{codecCore(t), fixture})
	var layout *ErrJournalLayout
	err := restoreCheckpoint(appendCheckpoint(nil, []*Server{fixture}), []*Server{codecCore(t), codecCore(t)}, "dir")
	if !errors.As(err, &layout) || layout.Path != "dir" {
		t.Errorf("checkpoint of 1 shard restored into 2: err = %v, want ErrJournalLayout naming dir", err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated shard section", cp[:len(cp)-3], ErrJournalCorrupt},
		{"second shard section holding only its tag", cp[:len(cp)-len(fixture.StateDigest())+1], ErrJournalCorrupt},
		{"trailing bytes", append(cp[:len(cp):len(cp)], 0), ErrJournalCorrupt},
		{"per-shard snapshot", fixture.StateDigest(), ErrJournalFormat},
	} {
		if err := restoreCheckpoint(c.data, []*Server{codecCore(t), codecCore(t)}, "dir"); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestOldJSONJournalRefused: a log written by an older build — a JSON
// record or snapshot, a per-shard binary one, or one of the layout that
// still carried gang bookkeeping, second finish times and five numbers
// per estimator dimension (records 0xA2, checkpoints 0xA3, shard states
// 0xA1) — fails recovery closed with ErrJournalFormat.
func TestOldJSONJournalRefused(t *testing.T) {
	record := []byte(`{"kind":"submit","time":0.5,"job":{"ID":1,"Name":"","Arrival":0,` +
		`"Stages":[{"Name":"s","Tasks":[{"ID":{"Job":1,"Stage":0,"Index":0},"Peak":[2,4,0,0,0,0],` +
		`"Work":{"CPUSeconds":20,"WriteMB":0},"Inputs":null}],"Deps":null}],"Lineage":0,"Weight":1,` +
		`"Gang":false,"MinMembers":0,"Preemptible":false,"Priority":0},"tenant":"a"}`)
	snapshot := []byte(`{"now":0.5,"machines":[{"id":0,"capacity":[16,32,200,200,1000,1000],"allocated":[0,0,0,0,0,0]}]}`)
	ev := codecEvents()[0]
	prevRecord := append([]byte{0xA2, 0}, appendEvent(nil, &ev)...) // shard 0
	prevCheckpoint := appendCheckpoint(nil, []*Server{codecFixture(t)})
	prevCheckpoint[0], prevCheckpoint[2] = 0xA3, 0xA1 // after the shard count 1
	for _, c := range []struct {
		name  string
		write func(*journal.Journal)
	}{
		{"0xA2 record", func(j *journal.Journal) { j.Append(prevRecord) }},
		{"0xA3 checkpoint", func(j *journal.Journal) { j.Snapshot(prevCheckpoint) }},
		{"JSON record", func(j *journal.Journal) { j.Append(record) }},
		{"JSON snapshot", func(j *journal.Journal) { j.Snapshot(snapshot) }},
		{"per-shard record", func(j *journal.Journal) { j.Append(appendEvent(nil, &ev)) }},
		{"per-shard snapshot", func(j *journal.Journal) { j.Snapshot(codecFixture(t).StateDigest()) }},
	} {
		dir := t.TempDir()
		j, _, err := journal.Open(journal.Options{Dir: filepath.Join(dir, logDir)})
		if err != nil {
			t.Fatal(err)
		}
		c.write(j)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		g, err := NewShardedInProcess(ShardedConfig{Shards: 1, NewScheduler: tetrisScheduler, JournalDir: dir})
		if !errors.Is(err, ErrJournalFormat) || g != nil {
			t.Errorf("%s: rm = %v, err = %v; want nil and ErrJournalFormat", c.name, g, err)
		}
	}
}

// FuzzJournalRecord: the decoders of events, log records, one shard's
// state and two-shard checkpoints take arbitrary bytes. Whatever one
// accepts re-encodes to the same bytes; whatever it refuses, it refuses
// with a typed error; a decoded event applied to the fixture RM applies
// or is refused, never panics. Reader.Count bounds every preallocation
// by the bytes present.
func FuzzJournalRecord(f *testing.F) {
	for i, ev := range codecEvents() {
		f.Add(appendEvent(nil, &ev))
		f.Add(appendRecord(nil, i%3, &ev)) // shard 2 of 2 is refused
	}
	fixture := codecFixture(f)
	cp := appendCheckpoint(nil, []*Server{fixture, codecCore(f)})
	f.Add(fixture.StateDigest())
	f.Add(cp)
	f.Add(cp[:len(cp)-5])                            // a truncated shard section
	f.Add(appendCheckpoint(nil, []*Server{fixture})) // written by another shard count
	f.Add([]byte(`{"kind":"dead","time":1,"node":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev event
		if err := decodeEvent(data, &ev); err == nil {
			if again := appendEvent(nil, &ev); !bytes.Equal(again, data) {
				t.Fatalf("event re-encodes to %x, read %x", again, data)
			}
			s := codecFixture(t)
			_ = s.applyEvent(&ev)
		} else if !journalErr(err) {
			t.Fatalf("event refused untyped: %v", err)
		}
		if shard, err := decodeRecord(data, 2, &ev); err == nil {
			if again := appendRecord(nil, shard, &ev); !bytes.Equal(again, data) {
				t.Fatalf("record re-encodes to %x, read %x", again, data)
			}
		} else if !journalErr(err) {
			t.Fatalf("record refused untyped: %v", err)
		}
		s := codecCore(t)
		if err := restoreDigest(s, data); err == nil {
			if again := s.StateDigest(); !bytes.Equal(again, data) {
				t.Fatalf("snapshot re-encodes to %x, read %x", again, data)
			}
		} else if !journalErr(err) {
			t.Fatalf("snapshot refused untyped: %v", err)
		}
		two := []*Server{codecCore(t), codecCore(t)}
		if err := restoreCheckpoint(data, two, "dir"); err == nil {
			if again := appendCheckpoint(nil, two); !bytes.Equal(again, data) {
				t.Fatalf("checkpoint re-encodes to %x, read %x", again, data)
			}
		} else if !journalErr(err) {
			t.Fatalf("checkpoint refused untyped: %v", err)
		}
	})
}

// BenchmarkJournalEncode times one record's encoding into the shard's
// scratch buffer; launch and complete must not allocate.
func BenchmarkJournalEncode(b *testing.B) {
	evs := codecEvents()
	for _, c := range []struct {
		name string
		ev   event
	}{
		{"launch", evs[5]},
		{"complete", evs[7]},
		{"submit", evs[3]},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := appendEvent(nil, &c.ev)
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				buf = appendEvent(buf[:0], &c.ev)
			}
		})
	}
}

// replayRecords is n log records of a plain job stream on one shard:
// eight machines register, then four-task jobs are submitted, launched
// and completed.
func replayRecords(n int) [][]byte {
	var recs [][]byte
	add := func(ev event) { recs = append(recs, appendRecord(nil, 0, &ev)) }
	capV := resources.New(16, 32, 200, 200, 1000, 1000)
	for m := 0; m < 8; m++ {
		add(event{Kind: evRegister, Node: m, Capacity: capV})
	}
	now := 1.0
	for id := 0; len(recs) < n; id++ {
		j := simpleJob(id, 4)
		add(event{Kind: evSubmit, Time: now, Job: j, Tenant: "t"})
		for i, t := range j.Stages[0].Tasks {
			add(event{Kind: evLaunch, Time: now, Task: t.ID, Machine: (id + i) % 8, Local: t.Peak})
		}
		for i, t := range j.Stages[0].Tasks {
			add(event{Kind: evComplete, Time: now + 0.5, Node: (id + i) % 8, Task: t.ID, Usage: t.Peak, Duration: 0.5})
		}
		now++
	}
	return recs[:n]
}

// BenchmarkReplay decodes and applies 10 000 records into a fresh core.
func BenchmarkReplay(b *testing.B) {
	recs := replayRecords(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := codecCore(b)
		s.replaying = true
		b.StartTimer()
		var ev event
		for _, data := range recs {
			if _, err := decodeRecord(data, 1, &ev); err != nil {
				b.Fatal(err)
			}
			if err := s.applyEvent(&ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}
