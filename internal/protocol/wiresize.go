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

// WireSize returns the estimated size of req or resp in bytes. Unknown
// message types count as a bare header.
func WireSize(msg interface{}) int {
	switch m := msg.(type) {
	case VoteRequest:
		return wireHeader + 4
	case VoteReply:
		return wireHeader + 8 + 8 + 1 + 1
	case FetchRequest:
		return wireHeader + 4
	case FetchReply:
		return wireHeader + 8 + len(m.Data)
	case PutRequest:
		return wireHeader + 4 + 8 + 8 + 2 + len(m.Data)
	case PutReply:
		return wireHeader
	case PrepareWriteRequest:
		return wireHeader + 4 + 8 + len(m.Data)
	case PrepareWriteReply:
		return wireHeader + 8 + 8 + 1 + 1 + 1
	case AbortWriteRequest:
		return wireHeader + 4 + 8
	case AbortWriteReply:
		return wireHeader
	case StatusRequest:
		return wireHeader
	case StatusReply:
		return wireHeader + 8 + 8 + 1 + 1
	case RecoveryRequest:
		return wireHeader + 1 + 8*len(m.Vector) + 4 + 4
	case RecoveryReply:
		size := wireHeader + 8 + 1 + 4 + 8*len(m.Vector)
		for _, b := range m.Blocks {
			size += 12 + len(b.Data)
		}
		return size
	case TelemetryPullRequest:
		return wireHeader
	case TelemetryPullReply:
		return wireHeader + len(m.Snap)
	default:
		return wireHeader
	}
}
