package protocol

// WireSize estimates the payload size in bytes of a protocol message on
// the wire, used by simnet's byte-level traffic accounting. §5 notes
// that accounting by message *size* instead of message *count* yields
// similar, slightly less pronounced differences between the schemes —
// block transfers dominate and every scheme ships roughly the same
// blocks; the byte counters let experiments verify that claim.
//
// Sizes are the natural fixed-width encodings plus an 8-byte header per
// message; exact framing constants do not matter for the comparisons.
const wireHeader = 8

// sized is what every request and response implements: its estimated
// size on the wire. Each message's formula is below, in tag order.
type sized interface {
	wireSize() int
}

// WireSize returns the estimated size of a request or response in bytes.
func WireSize(msg sized) int { return msg.wireSize() }

func (VoteRequest) wireSize() int           { return wireHeader + 4 }
func (VoteReply) wireSize() int             { return wireHeader + 8 + 1 }
func (FetchRequest) wireSize() int          { return wireHeader + 4 }
func (m FetchReply) wireSize() int          { return wireHeader + 8 + len(m.Data) }
func (m PutRequest) wireSize() int          { return wireHeader + 4 + 8 + 8 + 1 + len(m.Data) }
func (PutReply) wireSize() int              { return wireHeader }
func (m PrepareWriteRequest) wireSize() int { return wireHeader + 4 + 8 + len(m.Data) }
func (PrepareWriteReply) wireSize() int     { return wireHeader + 8 + 1 + 1 }
func (AbortWriteRequest) wireSize() int     { return wireHeader + 4 + 8 }
func (AbortWriteReply) wireSize() int       { return wireHeader }
func (StatusRequest) wireSize() int         { return wireHeader }
func (StatusReply) wireSize() int           { return wireHeader + 8 + 8 + 1 }
func (m RecoveryRequest) wireSize() int     { return wireHeader + 1 + 8*len(m.Vector) + 4 + 4 }

func (m RecoveryReply) wireSize() int {
	size := wireHeader + 8 + 1 + 4 + 8*len(m.Vector)
	for _, b := range m.Blocks {
		size += 12 + len(b.Data)
	}
	return size
}

func (TelemetryPullRequest) wireSize() int { return wireHeader + 1 }
func (m TelemetryPullReply) wireSize() int { return wireHeader + len(m.Snap) }
