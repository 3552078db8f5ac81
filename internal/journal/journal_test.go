package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
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

func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, SyncAlways)
	j.Append([]byte("old-1"))
	j.Append([]byte("old-2"))
	j.Snapshot([]byte("state-at-2"))
	j.Append([]byte("new-3"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := open(t, dir, SyncAlways)
	defer j2.Close()
	if string(rec.Snapshot) != "state-at-2" {
		t.Errorf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "new-3" {
		t.Errorf("post-snapshot records = %q", rec.Records)
	}
	if rec.StaleRecords != 0 {
		t.Errorf("stale records = %d, want 0", rec.StaleRecords)
	}
	// The log was truncated: only the post-snapshot record remains.
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(frameHeader + len("new-3")); fi.Size() != want {
		t.Errorf("log size = %d, want %d", fi.Size(), want)
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
	// Simulate a crash mid-write: garbage after the valid frames.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 9, 1, 2, 3}); err != nil {
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
