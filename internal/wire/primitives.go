package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/tetris-sched/tetris/internal/resources"
	"github.com/tetris-sched/tetris/internal/workload"
)

// The binary encoding's primitives, shared by the wire codec (binary.go)
// and the resource manager's journal codec:
//
//   - ints are zigzag varints, counts are uvarints, both minimal;
//   - float64s are 8-byte little-endian IEEE-754 bits, so values
//     round-trip bit-identically;
//   - a resources.Vector is a bitmask byte of its nonzero dimensions
//     (nonzero at the bit level, preserving -0) followed by
//     8 bytes per set bit — an all-zero vector costs one byte;
//   - strings are a uvarint length followed by raw bytes;
//   - a workload.TaskID is its job, stage and index as ints.
//
// Every value has exactly one encoding: Reader refuses an overlong
// varint and a mask bit over a zero float, so whatever it decodes
// re-encodes to the bytes it read. It also refuses a NaN or infinite
// float: no field of a frame or journal record may hold one, and one
// NaN in a capacity or demand would poison every sum and score it
// enters.

// The vector bitmask is a single byte.
const _ uint = 8 - uint(resources.NumKinds)

// Minimum encoded sizes, for Reader.Count.
const (
	MinFloatSize  = 8
	MinVectorSize = 1
	MinTaskIDSize = 3
)

var (
	errBinTruncated    = errors.New("wire: truncated binary payload")
	errBinNonCanonical = errors.New("wire: non-canonical binary encoding")
	errBinNonFinite    = errors.New("wire: non-finite number in binary payload")
)

// AppendInt appends v as a zigzag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendUint appends v as a uvarint (counts, lengths, counters).
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendCount appends a repeated-element count or a length.
func AppendCount(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// AppendFloat appends f's IEEE-754 bits.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends s with its length.
func AppendString(b []byte, s string) []byte {
	b = AppendCount(b, len(s))
	return append(b, s...)
}

// AppendVector appends v's nonzero-dimension mask and those dimensions.
func AppendVector(b []byte, v *resources.Vector) []byte {
	var mask byte
	for i := range v {
		if math.Float64bits(v[i]) != 0 {
			mask |= 1 << i
		}
	}
	b = append(b, mask)
	for i := range v {
		if mask&(1<<i) != 0 {
			b = AppendFloat(b, v[i])
		}
	}
	return b
}

// AppendTaskID appends id's job, stage and index.
func AppendTaskID(b []byte, id workload.TaskID) []byte {
	b = AppendInt(b, id.Job)
	b = AppendInt(b, id.Stage)
	return AppendInt(b, id.Index)
}

// Reader is a failure-latching cursor over a binary encoding. After the
// first malformed read every accessor returns zero values, so decoders
// run straight-line and check Done (or Err) once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail latches err (the first failure wins); decoders use it for
// violations only they can see, such as an unknown flag bit.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error if bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after binary encoding", r.Len())
	}
	return r.err
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.Fail(errBinTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// varint returns the length of the minimal varint at the cursor, or 0
// after latching a failure.
func (r *Reader) varint(n int) int {
	switch {
	case n <= 0:
		r.Fail(errBinTruncated)
		return 0
	case n > 1 && r.b[r.off+n-1] == 0:
		r.Fail(errBinNonCanonical)
		return 0
	}
	r.off += n
	return n
}

// Uint reads a uvarint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if r.varint(n) == 0 {
		return 0
	}
	return v
}

// Int reads a zigzag varint.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if r.varint(n) == 0 {
		return 0
	}
	return int(v)
}

// Float reads 8 bytes of IEEE-754 bits, refusing NaN and ±Inf.
func (r *Reader) Float() float64 {
	if r.err != nil || r.Len() < 8 {
		r.Fail(errBinTruncated)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.Fail(errBinNonFinite)
		return 0
	}
	r.off += 8
	return f
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uint()
	if r.err != nil || n > uint64(r.Len()) {
		r.Fail(errBinTruncated)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Count reads a repeated-element count and bounds it by the bytes left
// (each element encodes to at least minSize bytes), so a lying count
// cannot force a preallocation beyond what is present.
func (r *Reader) Count(minSize int) int {
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()/minSize) {
		r.Fail(errBinTruncated)
		return 0
	}
	return int(n)
}

// Vector reads a mask byte and the dimensions it names.
func (r *Reader) Vector() resources.Vector {
	var v resources.Vector
	mask := r.Byte()
	if mask >= 1<<uint(resources.NumKinds) {
		r.Fail(errBinTruncated)
		return v
	}
	for i := range v {
		if mask&(1<<i) != 0 {
			if v[i] = r.Float(); math.Float64bits(v[i]) == 0 {
				r.Fail(errBinNonCanonical)
			}
		}
	}
	return v
}

// TaskID reads a job, stage and index.
func (r *Reader) TaskID() workload.TaskID {
	return workload.TaskID{Job: r.Int(), Stage: r.Int(), Index: r.Int()}
}
