// Package journal implements the resource manager's durability layer: an
// append-only write-ahead log of CRC-framed records plus periodic
// snapshot checkpoints, with a configurable fsync policy. Appends are
// asynchronous — callers enqueue into a buffered channel drained by one
// writer goroutine — so journaling stays off the scheduling hot path;
// Barrier (and Sync, which waits on it) provides an explicit durability
// barrier when one is needed. Record buffers circulate between the
// caller and the writer (Buffer, Append), so a steady stream of appends
// allocates nothing.
//
// On-disk layout (under Options.Dir):
//
//	snapshot.dat  one framed record: the latest checkpoint state
//	wal.dat       framed records since that checkpoint, then zeros
//
// The log is kept zero-filled ahead of its write head, and a checkpoint
// zeroes what its cycle wrote and restarts the log at offset 0 instead
// of truncating it. A barrier's fsync then writes data pages but never
// a new file size (cheaper; DESIGN §8.1), and past the head there is
// never a stale frame that recovery could take for a torn write.
//
// Frame format: 4-byte big-endian payload length, 8-byte big-endian LSN
// (log sequence number), 4-byte CRC-32C over the LSN and payload, then
// the payload bytes. The LSN makes recovery immune to the crash window
// between writing a snapshot and clearing the log: the snapshot records
// the LSN it covers, and recovery skips the leading log records at or
// below it; past them, a record whose LSN does not increase ends the
// log, as does an all-zero header. A torn tail (partial frame, bad CRC)
// is detected and discarded; everything before it replays.
package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy selects when the journal fsyncs the log file. Every policy
// write()s each batch to the kernel immediately, so records survive a
// process crash; the policy only governs durability against power loss.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs on a background ticker every
	// syncInterval: bounded data loss on power failure, negligible append
	// cost.
	SyncInterval SyncPolicy = iota
	// SyncNever leaves flushing entirely to the OS.
	SyncNever
	// SyncAlways fsyncs after every drained batch of appends: full
	// durability, highest cost.
	SyncAlways
)

// String names the policy (matches the -fsync flag values).
func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// ParsePolicy converts a -fsync flag value to a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncInterval, fmt.Errorf("journal: unknown fsync policy %q (want never, interval or always)", s)
}

// Options parameterizes Open.
type Options struct {
	// Dir is the journal directory (created if missing; required).
	Dir string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// ObserveFsync, when non-nil, receives the duration in seconds of
	// every log-file fsync — the owner's telemetry hook. Called from the
	// writer goroutine; must be cheap and must not call back into the
	// journal.
	ObserveFsync func(seconds float64)
}

// Recovery is what Open found on disk from a previous incarnation.
type Recovery struct {
	// Snapshot is the latest checkpoint state, nil if none was taken.
	Snapshot []byte
	// Records are the log records after the snapshot, in append order.
	Records [][]byte
	// TornBytes counts the log bytes after the last good frame up to the
	// last non-zero one, discarded as a crash mid-write (an incomplete
	// frame or a bad CRC); the zero tail is not torn.
	TornBytes int64
	// StaleRecords counts leading log records skipped because the
	// snapshot already covered them (a crash before the log was cleared).
	StaleRecords int
}

const (
	// syncInterval is the fsync cadence under SyncInterval.
	syncInterval = 100 * time.Millisecond
	// queueDepth is how many appends may wait for the writer before
	// Append blocks.
	queueDepth = 1024
	// maxRecycled is the largest record buffer the free list keeps: a
	// rare huge record (a job of thousands of tasks) is left to the GC.
	maxRecycled = 64 << 10
	// firstFill is the first chunk zero-filled ahead of the write head;
	// each fill doubles the next, up to maxFill. A small first chunk
	// keeps a new journal's first appends cheap.
	firstFill = 32 << 10
	maxFill   = 4 << 20

	snapshotFile = "snapshot.dat"
	walFile      = "wal.dat"
	frameHeader  = 4 + 8 + 4 // length + LSN + CRC
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeros is the source of every zero fill; it is never written.
var zeros [64 << 10]byte

type item struct {
	payload  []byte
	snapshot bool       // payload is a checkpoint state, not a log record
	flush    chan error // non-nil: durability barrier, ack on channel
}

// Journal is an open write-ahead log. Append and Snapshot are safe for
// concurrent use; Close waits for the writer goroutine to drain.
type Journal struct {
	dir  string
	opts Options

	mu     sync.Mutex
	closed bool
	wmu    sync.Mutex // serializes writer-goroutine state below
	f      *os.File
	bw     *bufio.Writer
	hdr    [frameHeader]byte // frame header scratch
	lsn    uint64            // last assigned LSN
	werr   error             // sticky writer error
	head   int64             // log offset of the next frame
	filled int64             // the log is zeros from head up to here
	fill   int64             // size of the next zero fill
	dirty  bool              // records written since the last fsync

	ch chan item
	// free holds written record buffers for Buffer. It is as deep as the
	// queue, so the buffers of a full queue all fit back.
	free chan []byte
	done chan struct{}

	appends   uint64
	snapshots uint64
}

// Open creates or recovers a journal in o.Dir and starts its writer.
// The returned Recovery holds whatever a previous incarnation left
// behind; new appends continue the LSN sequence.
func Open(o Options) (*Journal, *Recovery, error) {
	if o.Dir == "" {
		return nil, nil, fmt.Errorf("journal: Dir is required")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rec := &Recovery{}
	snapLSN := uint64(0)
	snapPath := filepath.Join(o.Dir, snapshotFile)
	if b, err := os.ReadFile(snapPath); err == nil {
		lsn, payload, _, err := decodeFrame(b)
		if err != nil {
			// A snapshot is written atomically (tmp + rename), so a bad
			// one means real corruption: refuse to silently lose state.
			return nil, nil, fmt.Errorf("journal: corrupt snapshot: %w", err)
		}
		rec.Snapshot = payload
		snapLSN = lsn
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	walPath := filepath.Join(o.Dir, walFile)
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	var raw []byte // one allocation of the file's size
	fi, err := f.Stat()
	if err == nil {
		raw = make([]byte, fi.Size())
		_, err = io.ReadFull(f, raw)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: read log: %w", err)
	}
	lastLSN := snapLSN
	valid := 0
	for valid < len(raw) {
		lsn, payload, n, err := decodeFrame(raw[valid:])
		if err != nil {
			break // a torn frame, or the all-zero header of the zero tail
		}
		if len(rec.Records) == 0 && lsn <= snapLSN {
			rec.StaleRecords++
		} else if lsn <= lastLSN {
			// LSNs must be strictly increasing; anything else is a torn
			// or stale region — stop replay here.
			break
		} else {
			rec.Records = append(rec.Records, payload)
			lastLSN = lsn
		}
		valid += n
	}
	end := len(raw)
	for end > valid && raw[end-1] == 0 {
		end--
	}
	rec.TornBytes = int64(end - valid)
	// Drop the zero tail too: a crashed writer's pages reach the disk in
	// any order, so a frame of that incarnation may sit past the zeros.
	if len(raw) > valid {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	j := &Journal{
		dir:    o.Dir,
		opts:   o,
		f:      f,
		bw:     bufio.NewWriterSize(f, 64<<10),
		lsn:    lastLSN,
		head:   int64(valid),
		filled: int64(valid),
		fill:   firstFill,
		ch:     make(chan item, queueDepth),
		free:   make(chan []byte, queueDepth),
		done:   make(chan struct{}),
	}
	go j.writer()
	return j, rec, nil
}

// Buffer returns an empty record buffer to encode one record into and
// pass to Append: one the writer has finished with when there is one,
// else a new one.
func (j *Journal) Buffer() []byte {
	select {
	case b := <-j.free:
		return b[:0]
	default:
		return make([]byte, 0, 256)
	}
}

// Append enqueues one record and takes ownership of payload, which the
// caller must not touch again: the writer hands it out again through
// Buffer once it is written. It returns immediately unless the queue is
// full (durability is preferred to unbounded memory). Appends after
// Close are dropped.
func (j *Journal) Append(payload []byte) {
	j.enqueue(item{payload: payload})
}

// Snapshot enqueues a checkpoint: the state is written to the snapshot
// file atomically (covering every record appended before this call) and
// the log restarts at offset 0. The state is copied.
func (j *Journal) Snapshot(state []byte) {
	j.enqueue(item{payload: append([]byte(nil), state...), snapshot: true})
}

func (j *Journal) enqueue(it item) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		if it.flush != nil {
			it.flush <- fmt.Errorf("journal: closed")
		}
		return
	}
	// Holding mu across the send keeps enqueue order deterministic for
	// concurrent callers and excludes racing with Close.
	j.ch <- it
	j.mu.Unlock()
}

// Barrier enqueues a durability barrier and returns without waiting:
// once everything enqueued before it has been written and fsynced, the
// returned channel yields the writer's sticky error, if any (after
// Close, an error at once). Barriers on separate journals overlap their
// fsyncs.
func (j *Journal) Barrier() <-chan error {
	ack := make(chan error, 1)
	j.enqueue(item{flush: ack})
	return ack
}

// Sync is a blocking durability barrier: <-Barrier().
func (j *Journal) Sync() error { return <-j.Barrier() }

// Close drains the queue, flushes and fsyncs the log, and stops the
// writer. Further appends are dropped.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return j.Err()
	}
	j.closed = true
	close(j.ch)
	j.mu.Unlock()
	<-j.done
	j.wmu.Lock()
	defer j.wmu.Unlock()
	j.flushLocked(true)
	if err := j.f.Close(); err != nil && j.werr == nil {
		j.werr = err
	}
	return j.werr
}

// Err returns the writer's sticky I/O error, if any.
func (j *Journal) Err() error {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	return j.werr
}

// Stats reports journal activity: records appended and snapshots taken
// by this incarnation, and the last assigned LSN.
func (j *Journal) Stats() (appends, snapshots, lastLSN uint64) {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	return j.appends, j.snapshots, j.lsn
}

// writer is the single goroutine that owns the file. It drains the
// queue greedily so bursts of appends coalesce into one write() (and at
// most one fsync under SyncAlways).
func (j *Journal) writer() {
	defer close(j.done)
	var ticker *time.Ticker
	var tick <-chan time.Time
	if j.opts.Sync == SyncInterval {
		ticker = time.NewTicker(syncInterval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case it, ok := <-j.ch:
			if !ok {
				return
			}
			j.wmu.Lock()
			j.handle(it)
			// Coalesce whatever else is already queued.
		drain:
			for {
				select {
				case more, ok := <-j.ch:
					if !ok {
						j.flushLocked(j.opts.Sync == SyncAlways)
						j.wmu.Unlock()
						return
					}
					j.handle(more)
				default:
					break drain
				}
			}
			j.flushLocked(j.opts.Sync == SyncAlways)
			j.wmu.Unlock()
		case <-tick:
			j.wmu.Lock()
			j.flushLocked(true) // fsyncs only if a record was written
			j.wmu.Unlock()
		}
	}
}

// handle applies one queued item. Caller holds wmu.
func (j *Journal) handle(it item) {
	switch {
	case it.flush != nil:
		j.flushLocked(true)
		it.flush <- j.werr
	case it.snapshot:
		j.checkpoint(it.payload)
	default:
		size := int64(frameHeader + len(it.payload))
		j.reserve(size)
		j.lsn++
		j.appends++
		if err := writeFrame(j.bw, &j.hdr, j.lsn, it.payload); err != nil && j.werr == nil {
			j.werr = err
		}
		j.head += size
		j.dirty = true
		if cap(it.payload) <= maxRecycled {
			select {
			case j.free <- it.payload:
			default:
			}
		}
	}
}

// flushLocked pushes buffered bytes to the kernel and, when sync is set
// and a record was written since the last fsync, fsyncs.
func (j *Journal) flushLocked(sync bool) {
	if err := j.bw.Flush(); err != nil && j.werr == nil {
		j.werr = err
	}
	if sync && j.dirty {
		j.fsync()
	}
}

// fsync makes everything written to the log durable. Every log fsync
// goes through here, so ObserveFsync sees them all. Caller holds wmu.
func (j *Journal) fsync() {
	var t0 time.Time
	if j.opts.ObserveFsync != nil {
		t0 = time.Now()
	}
	if err := j.f.Sync(); err != nil && j.werr == nil {
		j.werr = err
	}
	if j.opts.ObserveFsync != nil {
		j.opts.ObserveFsync(time.Since(t0).Seconds())
	}
	j.dirty = false
}

// reserve zero-fills the log ahead of the head, in doubling chunks,
// until n more bytes fit before the end of the zeros, and makes the
// zeros durable before a record lands on them. Caller holds wmu.
func (j *Journal) reserve(n int64) {
	if j.head+n <= j.filled {
		return
	}
	// The fsync below covers the buffered records too. Records past
	// filled were appended after a failed fill: never zero them.
	j.flushLocked(false)
	j.filled = max(j.filled, j.head)
	for j.head+n > j.filled {
		if err := j.zero(j.filled, j.filled+j.fill); err != nil {
			if j.werr == nil {
				j.werr = fmt.Errorf("journal: zero-fill log: %w", err)
			}
			return
		}
		j.filled += j.fill
		j.fill = min(2*j.fill, maxFill)
	}
	j.fsync()
}

// zero overwrites the log's bytes [from, to) with zeros.
func (j *Journal) zero(from, to int64) error {
	for from < to {
		n, err := j.f.WriteAt(zeros[:min(to-from, int64(len(zeros)))], from)
		if err != nil {
			return err
		}
		from += int64(n)
	}
	return nil
}

// checkpoint writes the snapshot atomically and restarts the log at
// offset 0. Caller holds wmu.
func (j *Journal) checkpoint(state []byte) {
	j.flushLocked(true) // the snapshot must not outrun the records it covers
	tmp := filepath.Join(j.dir, snapshotFile+".tmp")
	tf, err := os.Create(tmp)
	if err == nil {
		bw := bufio.NewWriter(tf)
		err = writeFrame(bw, &j.hdr, j.lsn, state)
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			err = tf.Sync()
		}
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, filepath.Join(j.dir, snapshotFile))
		}
		if err == nil {
			err = syncDir(j.dir)
		}
	}
	if err != nil {
		if j.werr == nil {
			j.werr = fmt.Errorf("journal: checkpoint: %w", err)
		}
		return
	}
	j.snapshots++
	// The snapshot is durable and carries the covered LSN, so losing the
	// zeroing to a crash is safe: recovery skips stale records. The zeros
	// are durable before a record of the next cycle lands on them.
	if j.head == 0 {
		return
	}
	if err := j.zero(0, j.head); err != nil {
		if j.werr == nil {
			j.werr = fmt.Errorf("journal: clear log: %w", err)
		}
		return
	}
	j.fsync()
	if _, err := j.f.Seek(0, io.SeekStart); err != nil && j.werr == nil {
		j.werr = err
	}
	j.bw.Reset(j.f)
	j.head = 0
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFrame encodes one record, building its header in hdr (a field of
// the journal, so the header does not escape to the heap per record).
func writeFrame(w io.Writer, hdr *[frameHeader]byte, lsn uint64, payload []byte) error {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], lsn)
	crc := crc32.Update(0, crcTable, hdr[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(hdr[12:16], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// decodeFrame parses the frame at the start of b, returning its LSN,
// payload and total encoded size.
func decodeFrame(b []byte) (lsn uint64, payload []byte, size int, err error) {
	if len(b) < frameHeader {
		return 0, nil, 0, fmt.Errorf("journal: short frame header (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	if n < 0 || len(b) < frameHeader+n {
		return 0, nil, 0, fmt.Errorf("journal: truncated frame (want %d payload bytes, have %d)", n, len(b)-frameHeader)
	}
	lsn = binary.BigEndian.Uint64(b[4:12])
	want := binary.BigEndian.Uint32(b[12:16])
	payload = b[frameHeader : frameHeader+n]
	crc := crc32.Update(0, crcTable, b[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != want {
		return 0, nil, 0, fmt.Errorf("journal: CRC mismatch (want %08x, got %08x)", want, crc)
	}
	return lsn, payload, frameHeader + n, nil
}
