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
// Codec negotiation is reply-in-kind: a server Framer answers each
// request in the codec the request arrived in (JSON peers get JSON
// frames, binary peers get binary), so the two interoperate on one socket
// with no handshake round-trip.
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

// Codec identifies a payload encoding.
type Codec byte

const (
	// CodecJSON is codec 0: the payload is the Message's JSON encoding.
	// It carries the cold control types and remains the compatibility
	// and fuzz oracle encoding.
	CodecJSON Codec = 0
	// CodecBinary is codec 1: the payload is the hand-rolled binary
	// encoding (see binary.go). Types without a binary encoding fall
	// back to CodecJSON frames transparently.
	CodecBinary Codec = 1
)

func (c Codec) String() string {
	switch c {
	case CodecJSON:
		return "json"
	case CodecBinary:
		return "binary"
	}
	return fmt.Sprintf("codec-%d", byte(c))
}

// ParseCodec maps flag values ("json", "binary") to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "json", "":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	}
	return 0, fmt.Errorf("wire: unknown codec %q (want json or binary)", s)
}

// Framer reads and writes frames on one connection, owning the
// buffers and decode scratch so steady-state heartbeat exchanges
// allocate nothing. Not safe for concurrent use; each connection's
// serve loop owns one Framer.
//
// A client Framer (NewFramer) writes its configured codec: CodecJSON
// writes JSON frames, CodecBinary writes binary frames, falling back to
// JSON frames for types without a binary encoding. A server Framer
// (NewServerFramer) replies in kind: each Write uses the codec of the
// most recently read frame.
//
// Messages returned by Read alias the Framer's internal scratch and
// are valid only until the next Read on the same Framer. Handlers that
// retain payload slices past the exchange (registration journaling)
// get freshly allocated payloads — see decodeBinary.
type Framer struct {
	codec     Codec // what Write encodes; a server Framer's follows its reads
	autoReply bool

	hdr     [headerLen]byte
	rbuf    []byte
	wbuf    []byte
	scratch decodeScratch
}

// NewFramer returns a client Framer writing the given codec.
func NewFramer(c Codec) *Framer { return &Framer{codec: c} }

// NewServerFramer returns a reply-in-kind server Framer. Before the
// first read it writes JSON frames — the codec every peer can read.
func NewServerFramer() *Framer { return &Framer{codec: CodecJSON, autoReply: true} }

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
	if f.autoReply {
		f.codec = codec
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
	if f.codec == CodecBinary {
		if body, ok := appendBinary(buf, m); ok {
			buf, encoded = body, true
		}
	}
	if !encoded {
		// A JSON Framer, or a type with no binary encoding: the peer
		// reads the codec off each header.
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
