package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tetris-sched/tetris/internal/testutil"
)

func open(t *testing.T, dir string, pol SyncPolicy) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(Options{Dir: dir, Sync: pol})
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func TestAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	j, rec := open(t, dir, SyncNever)
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh journal recovered %+v", rec)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		j.Append(p)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := open(t, dir, SyncNever)
	defer j2.Close()
	if rec2.Snapshot != nil {
		t.Error("unexpected snapshot")
	}
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i, r := range rec2.Records {
		if !bytes.Equal(r, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, r, want[i])
		}
	}
	// LSNs continue across incarnations.
	_, _, lsn := j2.Stats()
	if lsn != 100 {
		t.Errorf("recovered LSN = %d, want 100", lsn)
	}
	j2.Append([]byte("after"))
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, lsn := j2.Stats(); lsn != 101 {
		t.Errorf("LSN after append = %d, want 101", lsn)
	}
}

// TestCheckpointRestartsLog: after a checkpoint the log starts again at
// offset 0 over zeros — the post-checkpoint records replay, and every
// byte of the file past them is zero.
func TestCheckpointRestartsLog(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncAlways)
	j.Append([]byte("old-1"))
	j.Append([]byte("old-2"))
	j.Snapshot([]byte("state-at-2"))
	j.Append([]byte("new-3"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	lsn, payload, n, err := decodeFrame(raw)
	if err != nil || lsn != 3 || string(payload) != "new-3" {
		t.Fatalf("log starts with LSN %d %q (%v), want LSN 3 \"new-3\"", lsn, payload, err)
	}
	if i := nonZero(raw[n:]); i >= 0 {
		t.Errorf("non-zero byte at offset %d past the last record", n+i)
	}

	j2, rec := open(t, dir, SyncAlways)
	defer j2.Close()
	if string(rec.Snapshot) != "state-at-2" {
		t.Errorf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "new-3" {
		t.Errorf("post-snapshot records = %q", rec.Records)
	}
	if rec.StaleRecords != 0 || rec.TornBytes != 0 {
		t.Errorf("stale records = %d, torn bytes = %d, want 0 and 0", rec.StaleRecords, rec.TornBytes)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncNever)
	j.Append([]byte("good-1"))
	j.Append([]byte("good-2"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: garbage at the write head, after the
	// valid frames and before the zero-filled tail.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0, 0, 0, 9, 1, 2, 3}, int64(2*frameHeader+len("good-1")+len("good-2"))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec := open(t, dir, SyncNever)
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	if rec.TornBytes != 7 {
		t.Errorf("torn bytes = %d, want 7", rec.TornBytes)
	}
	// The torn tail was chopped; appends resume cleanly.
	j2.Append([]byte("good-3"))
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3 := open(t, dir, SyncNever)
	if len(rec3.Records) != 3 || string(rec3.Records[2]) != "good-3" {
		t.Fatalf("after torn-tail repair: records = %q", rec3.Records)
	}
}

func TestCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncNever)
	j.Append([]byte("aaaa"))
	j.Append([]byte("bbbb"))
	j.Append([]byte("cccc"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record.
	path := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeader+4+frameHeader] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rec := open(t, dir, SyncNever)
	defer j2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0]) != "aaaa" {
		t.Fatalf("records after corruption = %q, want only the first", rec.Records)
	}
	if rec.TornBytes == 0 {
		t.Error("corruption not reported as torn bytes")
	}
}

func TestStaleRecordsSkippedAfterCheckpointCrash(t *testing.T) {
	// A crash between snapshot rename and log truncate leaves records the
	// snapshot already covers; the LSN guard must skip them.
	dir := t.TempDir()
	j, _ := open(t, dir, SyncNever)
	j.Append([]byte("covered-1"))
	j.Append([]byte("covered-2"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-write a snapshot covering LSN 2 without touching the log.
	var buf bytes.Buffer
	if err := writeFrame(&buf, new([frameHeader]byte), 2, []byte("state-at-2")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := open(t, dir, SyncNever)
	defer j2.Close()
	if string(rec.Snapshot) != "state-at-2" {
		t.Errorf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 0 {
		t.Errorf("replayed stale records: %q", rec.Records)
	}
	if rec.StaleRecords != 2 {
		t.Errorf("stale records = %d, want 2", rec.StaleRecords)
	}
}

func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncInterval)
	var wg sync.WaitGroup
	const writers, each = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
			}
		}(w)
	}
	wg.Wait()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := open(t, dir, SyncInterval)
	if len(rec.Records) != writers*each {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*each)
	}
}

func TestAppendAfterCloseDropped(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncNever)
	j.Append([]byte("kept"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j.Append([]byte("dropped")) // must not panic
	if err := j.Sync(); err == nil {
		t.Error("Sync after Close did not error")
	}
	_, rec := open(t, dir, SyncNever)
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(rec.Records))
	}
}

// TestAppendRecyclesBuffers: a record encoded into a Buffer and handed to
// Append comes back through Buffer once written, so a steady stream of
// appends allocates nothing — neither the caller nor the writer.
func TestAppendRecyclesBuffers(t *testing.T) {
	j, _ := open(t, t.TempDir(), SyncNever)
	defer j.Close()
	rec := []byte("a steady-state journal record")
	const runs = 100
	// Warm up: runs+1 buffers written and back on the free list, so the
	// measured appends find one each even if the writer lags.
	bufs := make([][]byte, runs+1)
	for i := range bufs {
		bufs[i] = j.Buffer()
	}
	for _, b := range bufs {
		j.Append(append(b, rec...))
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(runs, func() { j.Append(append(j.Buffer(), rec...)) }); allocs != 0 {
		t.Errorf("steady-state append: %v allocs, want 0", allocs)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if a, _, _ := j.Stats(); a != 2*runs+2 {
		t.Errorf("appended %d records, want %d", a, 2*runs+2)
	}
}

// TestBarrierDoesNotBlock: Barrier returns before the fsync and acks once
// everything before it is durable; on a closed journal it acks an error.
func TestBarrierDoesNotBlock(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncNever)
	j.Append([]byte("one"))
	ack := j.Barrier()
	if err := <-ack; err != nil {
		t.Fatal(err)
	}
	if a, _, _ := j.Stats(); a != 1 {
		t.Errorf("barrier acked with %d records written, want 1", a)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-j.Barrier(); err == nil {
		t.Error("barrier on a closed journal acked success")
	}
}

// TestIdleJournalDoesNotFsync: under SyncInterval the ticker fsyncs only
// when a record was written since the last fsync, and a barrier with
// nothing new acks without one.
func TestIdleJournalDoesNotFsync(t *testing.T) {
	var fsyncs atomic.Int64
	j, _, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval,
		ObserveFsync: func(float64) { fsyncs.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// The first record zero-fills the head of the log; its barrier makes
	// it durable.
	j.Append([]byte("first"))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	fsyncs.Store(0)
	time.Sleep(350 * time.Millisecond) // three ticks and a half
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := fsyncs.Load(); n != 0 {
		t.Fatalf("idle journal fsynced %d times, want 0", n)
	}
	j.Append([]byte("second"))
	testutil.WaitFor(t, 2*time.Second, "a ticker fsync after the append", func() bool { return fsyncs.Load() > 0 })
	time.Sleep(250 * time.Millisecond)
	if n := fsyncs.Load(); n != 1 {
		t.Errorf("one append cost %d ticker fsyncs, want 1", n)
	}
}

// TestLogZeroFilledAhead: once a barrier acks, the log holds zeros past
// its last record, so the next record overwrites bytes the file already
// has instead of growing it.
func TestLogZeroFilledAhead(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncNever)
	defer j.Close()
	rec := bytes.Repeat([]byte{'r'}, 4<<10)
	for head := 0; head < 100<<10; {
		j.Append(append(j.Buffer(), rec...))
		head += frameHeader + len(rec)
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) <= head || nonZero(raw[head:]) >= 0 {
			t.Fatalf("log of %d bytes holds no zero tail past its head at %d", len(raw), head)
		}
	}
}

// frame is one good frame of a log and the offset where it ends.
type frame struct {
	lsn     uint64
	payload []byte
	end     int
}

// frames decodes the good frames at the start of raw, in order.
func frames(raw []byte) (fs []frame) {
	for off := 0; ; {
		lsn, p, n, err := decodeFrame(raw[off:])
		if err != nil {
			return fs
		}
		off += n
		fs = append(fs, frame{lsn, p, off})
	}
}

// nonZero is the index of the first non-zero byte of b, or -1.
func nonZero(b []byte) int { return bytes.IndexFunc(b, func(r rune) bool { return r != 0 }) }

// openCopy opens a copy of the journal in dir whose log has every byte
// from cut on zeroed, as a crash would leave it whose writes after cut
// never reached the disk.
func openCopy(t *testing.T, dir string, cut int) *Recovery {
	t.Helper()
	cp := t.TempDir()
	for _, name := range []string{snapshotFile, walFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == walFile {
			clear(b[cut:])
		}
		if err := os.WriteFile(filepath.Join(cp, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, rec := open(t, cp, SyncNever)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestLogPrefixProperty: a crash leaves a prefix of the log, and recovery
// returns exactly that prefix. The log is recorded across two
// checkpoints, each cycle shorter than the one before, so its file is
// reused and every byte past the last cycle's records must have been
// zeroed. A copy cut at every record boundary recovers the records
// before the cut with no torn bytes, and one cut inside a frame
// recovers the records before that frame and reports torn bytes.
func TestLogPrefixProperty(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncNever)
	var want [][]byte // the records after the last checkpoint
	for cycle := 0; cycle < 3; cycle++ {
		if cycle > 0 {
			j.Snapshot([]byte(fmt.Sprintf("state-%d", cycle)))
		}
		want = want[:0]
		// Records of growing size: the first cycle crosses several zero
		// fills.
		for i := 0; i < 140-20*cycle; i++ {
			p := []byte(fmt.Sprintf("cycle-%d-record-%03d-%s", cycle, i, bytes.Repeat([]byte{'x'}, 13*i)))
			want = append(want, p)
			j.Append(p)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	fs := frames(raw)
	if len(fs) != len(want) {
		t.Fatalf("log holds %d frames, want the %d of the last cycle", len(fs), len(want))
	}
	last := fs[len(fs)-1].end
	if len(raw) <= last {
		t.Fatalf("log of %d bytes has no zero tail", len(raw))
	}
	if i := nonZero(raw[last:]); i >= 0 {
		t.Fatalf("non-zero byte at offset %d past the last record", last+i)
	}
	cuts := []int{0}
	for _, f := range fs {
		cuts = append(cuts, f.end)
	}
	for k, cut := range cuts {
		rec := openCopy(t, dir, cut)
		if len(rec.Records) != k || rec.TornBytes != 0 || rec.StaleRecords != 0 {
			t.Fatalf("cut at record %d: recovered %d records, %d torn bytes, %d stale, want %d, 0, 0",
				k, len(rec.Records), rec.TornBytes, rec.StaleRecords, k)
		}
		for i, r := range rec.Records {
			if !bytes.Equal(r, want[i]) {
				t.Fatalf("cut at record %d: record %d = %q, want %q", k, i, r, want[i])
			}
		}
	}
	mid := len(want) / 2
	rec := openCopy(t, dir, cuts[mid]+frameHeader+3)
	if len(rec.Records) != mid || rec.TornBytes != frameHeader+3 {
		t.Errorf("cut inside frame %d: recovered %d records, %d torn bytes, want %d and %d",
			mid, len(rec.Records), rec.TornBytes, mid, frameHeader+3)
	}
}

// FuzzJournalOpen: any bytes as the log, with or without a snapshot,
// open without a panic; the replayed records are frames of the log in
// order, after the leading ones the snapshot covers, with strictly
// increasing LSNs; and a record appended after them is recovered behind
// them by the next Open.
func FuzzJournalOpen(f *testing.F) {
	var log bytes.Buffer
	for i, p := range []string{"a", "bb", "ccc", "dddd"} {
		if err := writeFrame(&log, new([frameHeader]byte), uint64(i+1), []byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	valid := log.Bytes()
	f.Add([]byte{}, uint32(0), false)
	f.Add(valid, uint32(0), false)
	f.Add(valid, uint32(2), true)
	f.Add(append(slices.Clone(valid), make([]byte, 64)...), uint32(1), true)
	f.Add(append(slices.Clone(valid), 0, 0, 0, 9, 1, 2, 3), uint32(0), false)
	f.Add(append(slices.Clone(valid), valid[:frameHeader+1]...), uint32(3), true) // LSN 1 after 4
	f.Add(make([]byte, 100), uint32(0), true)
	// The snapshot's LSN is drawn from 32 bits: the LSN wraps only after
	// 2^64 appends, which no journal reaches.
	f.Fuzz(func(t *testing.T, wal []byte, snapLSN uint32, withSnap bool) {
		dir := t.TempDir()
		if withSnap {
			var snap bytes.Buffer
			if err := writeFrame(&snap, new([frameHeader]byte), uint64(snapLSN), []byte("state")); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			snapLSN = 0
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec := open(t, dir, SyncNever)
		fs := frames(wal)
		stale := rec.StaleRecords
		if stale+len(rec.Records) > len(fs) {
			t.Fatalf("%d stale and %d replayed records from a log of %d good frames", stale, len(rec.Records), len(fs))
		}
		last := uint64(snapLSN)
		for i, f := range fs[:stale] {
			if f.lsn > last {
				t.Fatalf("stale record %d has LSN %d above the snapshot's %d", i, f.lsn, last)
			}
		}
		for i, r := range rec.Records {
			f := fs[stale+i]
			if f.lsn <= last {
				t.Fatalf("replayed LSN %d after %d", f.lsn, last)
			}
			last = f.lsn
			if !bytes.Equal(r, f.payload) {
				t.Fatalf("record %d = %q, want frame %d's %q", i, r, stale+i, f.payload)
			}
		}
		if _, _, lsn := j.Stats(); lsn != last {
			t.Fatalf("journal resumes at LSN %d, want %d", lsn, last)
		}

		j.Append([]byte("appended"))
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, rec2 := open(t, dir, SyncNever)
		defer j2.Close()
		if rec2.StaleRecords != stale || rec2.TornBytes != 0 || len(rec2.Records) != len(rec.Records)+1 {
			t.Fatalf("reopened with %d stale, %d torn bytes, %d records, want %d, 0, %d",
				rec2.StaleRecords, rec2.TornBytes, len(rec2.Records), stale, len(rec.Records)+1)
		}
		for i, r := range rec.Records {
			if !bytes.Equal(rec2.Records[i], r) {
				t.Fatalf("reopened record %d = %q, want %q", i, rec2.Records[i], r)
			}
		}
		if got := rec2.Records[len(rec.Records)]; string(got) != "appended" {
			t.Fatalf("appended record reads %q", got)
		}
	})
}
