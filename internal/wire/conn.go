package wire

import (
	"context"
	"net"
	"time"
)

// Conn is the client side of one connection to the RM: the socket, the
// Framer that owns its buffers (steady-state exchanges allocate nothing),
// and a deadline armed to fire the instant ctx ends, so a Call parked in a
// read returns instead of waiting on a peer that may never answer — an
// overloaded RM can take arbitrarily long. Not safe for concurrent use.
type Conn struct {
	conn   net.Conn
	framer *Framer
	disarm func() bool
}

// Dial connects to addr and wraps the socket in a Conn.
func Dial(ctx context.Context, addr string) (*Conn, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(ctx, conn), nil
}

// NewConn wraps an established connection; Close closes it.
func NewConn(ctx context.Context, conn net.Conn) *Conn {
	disarm := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	return &Conn{conn: conn, framer: &Framer{}, disarm: disarm}
}

// Call performs one request/reply exchange. The reply may alias the
// Framer's scratch: it is valid until the next Call. After an error the
// stream may hold half a frame; close the connection.
func (c *Conn) Call(m *Message) (*Message, error) {
	if err := c.framer.Write(c.conn, m); err != nil {
		return nil, err
	}
	return c.framer.Read(c.conn)
}

// Close releases the ctx watcher and closes the socket.
func (c *Conn) Close() error {
	c.disarm()
	return c.conn.Close()
}
