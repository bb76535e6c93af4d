// Fixtures for wirecheck: every request/reply type must have a
// WireSize case, a gob registration, (requests) a KindOps entry, and a
// case in both switches of the binary codec.
package protocol

import "encoding/gob"

// ok: fully wired — sized, registered, priced, encoded and decoded.
type VoteRequest struct{ Block uint32 }

func (VoteRequest) Kind() string { return "vote" }

type VoteReply struct{ Version uint64 }

func (VoteReply) RespKind() string { return "vote-reply" }

// A new RPC that skips every registry: its traffic would ride the wire
// unsized, undecodable, and invisible to the §5 pricing tables.
type PingRequest struct{} // want "no WireSize case" "not registered in RegisterGob" "missing from the KindOps" "no case in the codec's encode switch" "no case in the codec's decode switch"

func (PingRequest) Kind() string { return "ping" }

// A reply that is registered but never priced undercounts as a bare
// header in the byte accounting; one that is encoded but never decoded
// leaves the server able to send what no client can read.
type PongReply struct{} // want "no WireSize case" "no case in the codec's decode switch"

func (PongReply) RespKind() string { return "pong" }

const wireHeader = 8

func WireSize(msg interface{}) int {
	switch msg.(type) {
	case VoteRequest:
		return wireHeader + 4
	case VoteReply:
		return wireHeader + 8
	default:
		return wireHeader
	}
}

func RegisterGob() {
	gob.Register(VoteRequest{})
	gob.Register(VoteReply{})
	gob.Register(PongReply{})
}

const (
	kindVoteRequest byte = iota + 1
	kindVoteReply
	kindPongReply
)

func AppendRequest(dst []byte, req interface{}) []byte {
	switch req.(type) {
	case VoteRequest:
		return append(dst, kindVoteRequest)
	}
	return dst
}

func AppendResponse(dst []byte, resp interface{}) []byte {
	switch resp.(type) {
	case VoteReply:
		return append(dst, kindVoteReply)
	case PongReply:
		return append(dst, kindPongReply)
	}
	return dst
}

func DecodeRequest(b []byte) interface{} {
	switch b[0] {
	case kindVoteRequest:
		return VoteRequest{}
	}
	// Building a message outside the switch decodes nothing.
	return PingRequest{}
}

func DecodeResponse(b []byte) interface{} {
	var resp interface{}
	switch b[0] {
	case kindVoteReply:
		resp = VoteReply{Version: 1}
	}
	return resp
}

var KindOps = map[string][]string{
	"vote":   {"write", "read"},
	"status": {"recovery"}, // want "no request type declares it"
}
