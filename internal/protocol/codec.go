package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"relidev/internal/block"
)

// The binary wire codec (DESIGN.md §17). rpcnet puts one message in one
// `[u32 length][body]` frame; this file defines the body. Every field
// is fixed-width little-endian, every variable part (Data, Vector,
// Blocks, Wants, Snap, error text) is preceded by a u32 count or
// length, and a bool is one byte that must be 0 or 1, so a body has
// exactly one encoding and a decoder can check each count against the
// bytes that remain before it allocates anything.
//
//	request body:  kind u8 | from u32 | trace id u64 | span id u64 | fields
//	response body: kind u8 | error code u8 | text length u32 | text | fields
//
// A zero-length variable part decodes as nil: nil and empty slices are
// the same bytes on the wire.

// Kind tags. The numbers are the wire format: append new kinds, never
// renumber. kindNone appears only in a response envelope, where it means
// "no message" (the handler returned an error).
const (
	kindNone byte = iota
	kindVoteRequest
	kindVoteReply
	kindFetchRequest
	kindFetchReply
	kindPutRequest
	kindPutReply
	kindPrepareWriteRequest
	kindPrepareWriteReply
	kindAbortWriteRequest
	kindAbortWriteReply
	kindStatusRequest
	kindStatusReply
	kindRecoveryRequest
	kindRecoveryReply
	// Tags 15–18 carried the retired background-repair summary and fetch
	// exchange. They stay reserved: a frame naming one is malformed.
	_
	_
	_
	_
	kindTelemetryPullRequest
	kindTelemetryPullReply
)

// ErrBadFrame reports a message body that is truncated, carries a count
// or length larger than the bytes behind it, names an unknown kind, has
// a bool that is neither 0 nor 1, or has bytes left over at the end.
var ErrBadFrame = errors.New("protocol: malformed frame")

// Minimum encoded sizes of the repeated elements, used to bound a count
// by the bytes remaining before allocating for it.
const (
	versionSize      = 8
	minBlockCopySize = 4 + 8 + 4
)

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBytes(b, p []byte) []byte {
	return append(appendU32(b, uint32(len(p))), p...)
}

// appendVector and appendBlocks reserve their whole size first: a bulk
// reply grown by append's 1.25x steps would allocate five times its
// final size on the way there.
func appendVector(b []byte, v block.Vector) []byte {
	b = slices.Grow(b, 4+versionSize*len(v))
	b = appendU32(b, uint32(len(v)))
	for _, ver := range v {
		b = appendU64(b, uint64(ver))
	}
	return b
}

func appendBlocks(b []byte, blocks []BlockCopy) []byte {
	size := 4
	for _, c := range blocks {
		size += minBlockCopySize + len(c.Data)
	}
	b = slices.Grow(b, size)
	b = appendU32(b, uint32(len(blocks)))
	for _, c := range blocks {
		b = appendU32(b, uint32(c.Index))
		b = appendU64(b, uint64(c.Version))
		b = appendBytes(b, c.Data)
	}
	return b
}

// AppendRequest appends the body of one request frame to dst: the
// envelope (kind, sender, trace context) and then the request's fields
// in declaration order of the list in DESIGN.md §17. It fails only for
// a request type the codec does not know.
func AppendRequest(dst []byte, from SiteID, trace SpanContext, req Request) ([]byte, error) {
	// The envelope is the same for every kind, so it is written first
	// with a placeholder tag that the switch fills in.
	at := len(dst)
	b := append(dst, kindNone)
	b = appendU32(b, uint32(from))
	b = appendU64(b, trace.TraceID)
	b = appendU64(b, trace.SpanID)
	var kind byte
	switch q := req.(type) {
	case VoteRequest:
		kind = kindVoteRequest
		b = appendU32(b, uint32(q.Block))
	case FetchRequest:
		kind = kindFetchRequest
		b = appendU32(b, uint32(q.Block))
	case PutRequest:
		kind = kindPutRequest
		b = appendU32(b, uint32(q.Block))
		b = appendU64(b, uint64(q.Version))
		b = appendBool(b, q.HasW)
		b = appendBool(b, q.ReplaceW)
		b = appendU64(b, uint64(q.WasAvail))
		b = appendBytes(b, q.Data)
	case PrepareWriteRequest:
		kind = kindPrepareWriteRequest
		b = appendU32(b, uint32(q.Block))
		b = appendU64(b, uint64(q.Version))
		b = appendBytes(b, q.Data)
	case AbortWriteRequest:
		kind = kindAbortWriteRequest
		b = appendU32(b, uint32(q.Block))
		b = appendU64(b, uint64(q.Version))
	case StatusRequest:
		kind = kindStatusRequest
	case RecoveryRequest:
		kind = kindRecoveryRequest
		b = appendBool(b, q.JoinW)
		b = appendU64(b, uint64(q.MaxBlocks))
		b = appendU32(b, uint32(q.Cont))
		b = appendVector(b, q.Vector)
	case TelemetryPullRequest:
		kind = kindTelemetryPullRequest
	default:
		return dst, fmt.Errorf("protocol: no wire encoding for request %T", req)
	}
	b[at] = kind
	return b, nil
}

// AppendResponse appends the body of one response frame to dst: the
// envelope (kind, error code, error text) and then the response's
// fields. The error code is the transport's to define; the codec only
// carries it. A nil resp is encoded as "no message", which is what
// accompanies a non-zero code. It fails only for a response type the
// codec does not know.
func AppendResponse(dst []byte, resp Response, code uint8, text string) ([]byte, error) {
	at := len(dst)
	b := append(dst, kindNone, code)
	b = appendU32(b, uint32(len(text)))
	b = append(b, text...)
	var kind byte
	switch p := resp.(type) {
	case nil:
		kind = kindNone
	case VoteReply:
		kind = kindVoteReply
		b = appendU64(b, uint64(p.Version))
		b = appendU64(b, uint64(p.Weight))
		b = append(b, byte(p.State))
		b = appendBool(b, p.Witness)
	case FetchReply:
		kind = kindFetchReply
		b = appendU64(b, uint64(p.Version))
		b = appendBytes(b, p.Data)
	case PutReply:
		kind = kindPutReply
	case PrepareWriteReply:
		kind = kindPrepareWriteReply
		b = appendU64(b, uint64(p.Version))
		b = appendU64(b, uint64(p.Weight))
		b = append(b, byte(p.State))
		b = appendBool(b, p.Witness)
		b = appendBool(b, p.Staged)
	case AbortWriteReply:
		kind = kindAbortWriteReply
	case StatusReply:
		kind = kindStatusReply
		b = append(b, byte(p.State))
		b = appendBool(b, p.Witness)
		b = appendU64(b, uint64(p.WasAvail))
		b = appendU64(b, p.VersionSum)
	case RecoveryReply:
		kind = kindRecoveryReply
		b = appendU64(b, uint64(p.WasAvail))
		b = appendBool(b, p.More)
		b = appendU32(b, uint32(p.Next))
		b = appendVector(b, p.Vector)
		b = appendBlocks(b, p.Blocks)
	case TelemetryPullReply:
		kind = kindTelemetryPullReply
		b = appendBytes(b, p.Snap)
	default:
		return dst, fmt.Errorf("protocol: no wire encoding for response %T", resp)
	}
	b[at] = kind
	return b, nil
}

// frameReader consumes a message body front to back. The first
// underflow or invalid value latches bad; every later read returns
// zero, so a decoder reads its fields unconditionally and checks once
// at the end.
type frameReader struct {
	b []byte
	// alias makes byte payloads point into b instead of being copied.
	alias bool
	bad   bool
}

// take returns the next n bytes, or nil (latching bad) when fewer remain.
func (r *frameReader) take(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *frameReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *frameReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) flag() bool {
	v := r.u8()
	if v > 1 {
		r.bad = true
	}
	return v == 1
}

// count reads a u32 element count and rejects it unless that many
// elements of at least elemSize bytes each can still follow — before the
// caller allocates for them.
func (r *frameReader) count(elemSize int) int {
	n := r.u32()
	if uint64(n)*uint64(elemSize) > uint64(len(r.b)) {
		r.bad = true
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string; zero length yields nil.
func (r *frameReader) bytes() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	p := r.take(n)
	if r.alias {
		return p
	}
	return append([]byte(nil), p...)
}

func (r *frameReader) vector() block.Vector {
	n := r.count(versionSize)
	if n == 0 {
		return nil
	}
	v := make(block.Vector, n)
	for i := range v {
		v[i] = block.Version(r.u64())
	}
	return v
}

func (r *frameReader) blocks() []BlockCopy {
	n := r.count(minBlockCopySize)
	if n == 0 {
		return nil
	}
	blocks := make([]BlockCopy, n)
	for i := range blocks {
		blocks[i].Index = block.Index(r.u32())
		blocks[i].Version = block.Version(r.u64())
		blocks[i].Data = r.bytes()
	}
	return blocks
}

// finish is the single validity check after a decoder has read all its
// fields.
//
// The decoders below build each message as one struct literal whose
// fields are listed in wire order: Go evaluates the r.u32()/r.bytes()
// calls of a literal in source order, so the order written there is the
// format and must match the Append functions.
func (r *frameReader) finish() error {
	switch {
	case r.bad:
		return fmt.Errorf("%w: truncated or invalid field", ErrBadFrame)
	case len(r.b) != 0:
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b))
	}
	return nil
}

// DecodeRequest parses one request body produced by AppendRequest. The
// byte payloads of the result (PutRequest.Data, PrepareWriteRequest.Data)
// alias b: they are valid only as long as the caller leaves b alone,
// which for rpcnet's server is until Handler.Handle returns. Any
// malformed input yields ErrBadFrame, never a panic.
func DecodeRequest(b []byte) (from SiteID, trace SpanContext, req Request, err error) {
	r := frameReader{b: b, alias: true}
	kind := r.u8()
	from = SiteID(int32(r.u32()))
	trace.TraceID = r.u64()
	trace.SpanID = r.u64()
	switch kind {
	case kindVoteRequest:
		req = VoteRequest{Block: block.Index(r.u32())}
	case kindFetchRequest:
		req = FetchRequest{Block: block.Index(r.u32())}
	case kindPutRequest:
		req = PutRequest{
			Block:    block.Index(r.u32()),
			Version:  block.Version(r.u64()),
			HasW:     r.flag(),
			ReplaceW: r.flag(),
			WasAvail: SiteSet(r.u64()),
			Data:     r.bytes(),
		}
	case kindPrepareWriteRequest:
		req = PrepareWriteRequest{
			Block:   block.Index(r.u32()),
			Version: block.Version(r.u64()),
			Data:    r.bytes(),
		}
	case kindAbortWriteRequest:
		req = AbortWriteRequest{Block: block.Index(r.u32()), Version: block.Version(r.u64())}
	case kindStatusRequest:
		req = StatusRequest{}
	case kindRecoveryRequest:
		req = RecoveryRequest{
			JoinW:     r.flag(),
			MaxBlocks: int(int64(r.u64())),
			Cont:      block.Index(r.u32()),
			Vector:    r.vector(),
		}
	case kindTelemetryPullRequest:
		req = TelemetryPullRequest{}
	default:
		return 0, SpanContext{}, nil, fmt.Errorf("%w: unknown request kind %d", ErrBadFrame, kind)
	}
	if err := r.finish(); err != nil {
		return 0, SpanContext{}, nil, err
	}
	return from, trace, req, nil
}

// DecodeResponse parses one response body produced by AppendResponse.
// With alias set the byte payloads of the result (FetchReply.Data,
// BlockCopy.Data, TelemetryPullReply.Snap) point into b, so the caller
// must hand b over for good; otherwise they are copied and b may be
// reused at once. resp is nil when the body carries no message. Any
// malformed input yields ErrBadFrame, never a panic.
func DecodeResponse(b []byte, alias bool) (resp Response, code uint8, text string, err error) {
	r := frameReader{b: b, alias: alias}
	kind := r.u8()
	code = r.u8()
	text = string(r.take(r.count(1)))
	switch kind {
	case kindNone:
	case kindVoteReply:
		resp = VoteReply{
			Version: block.Version(r.u64()),
			Weight:  int64(r.u64()),
			State:   SiteState(r.u8()),
			Witness: r.flag(),
		}
	case kindFetchReply:
		resp = FetchReply{Version: block.Version(r.u64()), Data: r.bytes()}
	case kindPutReply:
		resp = PutReply{}
	case kindPrepareWriteReply:
		resp = PrepareWriteReply{
			Version: block.Version(r.u64()),
			Weight:  int64(r.u64()),
			State:   SiteState(r.u8()),
			Witness: r.flag(),
			Staged:  r.flag(),
		}
	case kindAbortWriteReply:
		resp = AbortWriteReply{}
	case kindStatusReply:
		resp = StatusReply{
			State:      SiteState(r.u8()),
			Witness:    r.flag(),
			WasAvail:   SiteSet(r.u64()),
			VersionSum: r.u64(),
		}
	case kindRecoveryReply:
		resp = RecoveryReply{
			WasAvail: SiteSet(r.u64()),
			More:     r.flag(),
			Next:     block.Index(r.u32()),
			Vector:   r.vector(),
			Blocks:   r.blocks(),
		}
	case kindTelemetryPullReply:
		resp = TelemetryPullReply{Snap: r.bytes()}
	default:
		return nil, 0, "", fmt.Errorf("%w: unknown response kind %d", ErrBadFrame, kind)
	}
	if err := r.finish(); err != nil {
		return nil, 0, "", err
	}
	return resp, code, text, nil
}
