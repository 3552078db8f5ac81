package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The frame. Every frame is a 6-byte header — Magic, a codec byte, a
// 4-byte big-endian payload length — followed by that many bytes of
// payload in the named codec. The codec is per frame and the read side is
// stateless: a reader decodes whichever codec each header names.
//
// The message type picks the codec, not the peer: the hot session types
// binary.go encodes (registration, heartbeat batches and their replies,
// AM polls, errors, the status request) always travel binary, the cold
// control types (submissions and their replies, the status reply) always
// JSON. There is no negotiation: a peer that writes JSON frames of a hot
// type is still served, and its replies come back binary.
//
// The headerless v0 frame (a bare 4-byte length, then JSON) this protocol
// began with is retired: a first byte that is not Magic is never parsed
// as a length, it fails with ErrBadMagic.
const (
	// Magic is the first byte of every frame header.
	Magic byte = 0xB7
	// headerLen is Magic + codec + len32.
	headerLen = 6
)

// ErrBadMagic marks a frame whose first byte is not Magic: a v0 peer, a
// desynchronized stream or a stranger on the port. Nothing past the
// header is read; like every protocol error it ends the connection.
var ErrBadMagic = errors.New("wire: frame does not start with the magic byte")

// Codec identifies a payload encoding: a frame header's second byte.
type Codec byte

const (
	// CodecJSON is codec 0: the payload is the Message's JSON encoding.
	// It carries the cold control types and remains the fuzz oracle
	// encoding.
	CodecJSON Codec = 0
	// CodecBinary is codec 3: the payload is the hand-rolled binary
	// encoding (see binary.go) of a hot session type. Codecs 1 and 2,
	// the layouts whose beats, launches, preemptions and AM replies
	// carried fields no reader used (codec 2's launches still carried
	// their tasks' read and write volumes), are retired: their frames
	// fail as an unknown codec, never decode into a message.
	CodecBinary Codec = 3
)

// Framer reads and writes frames on one connection, owning the
// buffers and decode scratch so steady-state heartbeat exchanges
// allocate nothing. Not safe for concurrent use; each connection's
// serve loop owns one Framer.
//
// Write encodes each message in its type's codec. The one exception is
// the oracle Framer NewFramer(CodecJSON), which writes every type as JSON
// so tests and probes can compare the two encodings.
//
// Messages returned by Read alias the Framer's internal scratch and
// are valid only until the next Read on the same Framer. Handlers that
// retain payload slices past the exchange (registration journaling)
// get freshly allocated payloads — see decodeBinary.
type Framer struct {
	allJSON bool // the oracle: every type as JSON

	hdr     [headerLen]byte
	rbuf    []byte
	wbuf    []byte
	scratch decodeScratch
}

// NewFramer returns a Framer. CodecBinary gives the protocol's Framer —
// the codec by message type, as every client and server writes;
// CodecJSON gives the JSON oracle encoder.
func NewFramer(c Codec) *Framer { return &Framer{allJSON: c == CodecJSON} }

// NewServerFramer returns the Framer a serve loop owns; it writes exactly
// what NewFramer(CodecBinary) does.
func NewServerFramer() *Framer { return &Framer{} }

// Read reads one frame in whichever codec its header names. The returned
// Message satisfies the envelope invariant and is valid only until the
// next Read on this Framer.
func (f *Framer) Read(r io.Reader) (*Message, error) {
	hdr := f.hdr[:] // lives in the Framer so per-read header reads do not allocate
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if hdr[0] != Magic {
		return nil, fmt.Errorf("%w: got 0x%02x", ErrBadMagic, hdr[0])
	}
	codec := Codec(hdr[1])
	if codec != CodecJSON && codec != CodecBinary {
		return nil, fmt.Errorf("wire: unknown codec byte 0x%02x", hdr[1])
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: header announces %d bytes", ErrFrameTooLarge, n)
	}
	body, err := readBody(r, f.rbuf, int(n))
	f.rbuf = body[:0]
	if err != nil {
		return nil, err
	}
	if codec == CodecBinary {
		return decodeBinary(body, &f.scratch)
	}
	// JSON payloads decode into fresh allocations: the cold control
	// types that travel as JSON (submissions, status) are exactly the
	// ones handlers retain past the exchange.
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Write frames and writes one message as a single Write call: header
// and body go out together, so a deadline firing mid-message can never
// leave a header-only half-frame desyncing the stream. (A deadline can
// still truncate a large frame inside the kernel; the connection is
// then unusable and must be closed, but the peer sees a clean
// truncated-frame error rather than a garbage decode.)
func (f *Framer) Write(w io.Writer, m *Message) error {
	buf := append(f.wbuf[:0], Magic, byte(CodecBinary), 0, 0, 0, 0)
	encoded := false
	if !f.allJSON {
		buf, encoded = appendBinary(buf, m)
	}
	if !encoded {
		// A cold type, or the oracle: the peer reads the codec off each
		// header.
		buf[1] = byte(CodecJSON)
		body, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("wire: marshal: %w", err)
		}
		buf = append(buf, body...)
	}

	payload := len(buf) - headerLen
	if payload > MaxFrame {
		f.wbuf = buf[:0]
		return fmt.Errorf("%w: encoded message is %d bytes", ErrFrameTooLarge, payload)
	}
	binary.BigEndian.PutUint32(buf[2:], uint32(payload))
	_, err := w.Write(buf)
	f.wbuf = buf[:0]
	return err
}
