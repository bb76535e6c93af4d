package rpcnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Framing (DESIGN.md §17): every message travels as
//
//	[body length u32, little-endian][body]
//
// with the body laid out by protocol.AppendRequest/AppendResponse. The
// exchange is strictly one request, one response per connection, so a
// connection needs exactly one frame in each direction at a time.
const (
	frameHeader = 4

	// maxFrame bounds a body. A reader allocates a body's worth of
	// memory on the say-so of four bytes, so the bound is what a peer
	// speaking some other protocol can cost us. Nothing of ours comes
	// near it: the bulk exchanges (recovery, repair) always page at
	// about 1 MiB, and a donor clamps the page size a peer asks for. An
	// oversized reply becomes a remote error rather than a dead
	// connection.
	maxFrame = 64 << 20

	// readBufSize is the per-connection read buffer: a 4 KiB block and
	// its envelope, or an 8 KiB one, arrive in a single read call and are
	// decoded in place. Larger bodies get an allocation of their own that
	// lives as long as whatever was decoded out of it.
	readBufSize = 16 << 10

	// maxKeptWriteBuf caps the write buffer a connection keeps between
	// messages; one that had to grow past it for a bulk reply is dropped
	// after the write, so a 1 MiB recovery page does not pin 1 MiB per
	// pooled connection.
	maxKeptWriteBuf = 64 << 10
)

var errFrameTooLarge = errors.New("rpcnet: frame exceeds the 64 MiB limit")

// checkFrameSize refuses a frame, header included, whose body is over
// maxFrame.
func checkFrameSize(frame []byte) error {
	if n := len(frame) - frameHeader; n > maxFrame {
		return fmt.Errorf("%w: %d bytes", errFrameTooLarge, n)
	}
	return nil
}

// wireConn is one framed TCP stream together with the two buffers it
// owns. It is used by one exchange at a time: the client side checks it
// out of the pool for a round trip, the server side is one goroutine.
type wireConn struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	// lent counts the bytes of br's buffer that the last readFrame
	// handed out in place; the next readFrame releases them.
	lent int
}

func newWireConn(conn net.Conn) *wireConn {
	return &wireConn{conn: conn, br: bufio.NewReaderSize(conn, readBufSize)}
}

func (w *wireConn) close() {
	w.conn.Close()
}

// readFrame returns the body of the next frame. When inPlace is true
// the body lies in the connection's read buffer and is valid only until
// the next readFrame; otherwise it is a fresh allocation the caller
// owns. A length above maxFrame is an error before anything is
// allocated; a stream that ends inside a frame is io.ErrUnexpectedEOF
// or io.EOF.
func (w *wireConn) readFrame() (body []byte, inPlace bool, err error) {
	if w.lent > 0 {
		w.br.Discard(w.lent) // cannot fail: these bytes are buffered
		w.lent = 0
	}
	hdr, err := w.br.Peek(frameHeader)
	if err != nil {
		return nil, false, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > maxFrame {
		return nil, false, fmt.Errorf("%w: %d bytes announced", errFrameTooLarge, n)
	}
	w.br.Discard(frameHeader)
	if n <= w.br.Size() {
		if body, err = w.br.Peek(n); err != nil {
			return nil, false, err
		}
		w.lent = n
		return body, true, nil
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(w.br, body); err != nil {
		return nil, false, err
	}
	return body, false, nil
}

// beginFrame returns the connection's write buffer holding only a
// length placeholder; the caller appends the body and passes the result
// to sendFrame.
func (w *wireConn) beginFrame() []byte {
	return append(w.wbuf[:0], 0, 0, 0, 0)
}

// sendFrame fills in the length of the frame built on beginFrame's
// buffer and puts it on the wire with a single Write. The buffer is kept
// for the next message unless it grew past maxKeptWriteBuf. An oversized
// body is refused before anything is written, leaving the stream intact.
func (w *wireConn) sendFrame(frame []byte) error {
	if err := checkFrameSize(frame); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	_, err := w.conn.Write(frame)
	if cap(frame) <= maxKeptWriteBuf {
		w.wbuf = frame[:0]
	} else {
		w.wbuf = nil
	}
	return err
}
