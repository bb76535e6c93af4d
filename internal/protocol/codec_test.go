package protocol

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"relidev/internal/block"
)

// reqCase is one request round trip. want is what must come back when
// it differs from req (an empty slice travels as nil).
type reqCase struct {
	name  string
	from  SiteID
	trace SpanContext
	req   Request
	want  Request
}

func requestCases() []reqCase {
	trace := SpanContext{TraceID: 0xdeadbeefcafe0001, SpanID: 0x0300000000000007}
	data := []byte("block contents, 0 \x00 and \xff included")
	return []reqCase{
		{name: "vote", from: 0, req: VoteRequest{Block: 7}},
		{name: "vote/traced", from: 63, trace: trace, req: VoteRequest{Block: ^block.Index(0)}},
		{name: "fetch", from: 2, req: FetchRequest{Block: 9}},
		{name: "put", from: 1, trace: trace, req: PutRequest{Block: 3, Data: data, Version: 11}},
		{name: "put/full-W", from: 4, req: PutRequest{Block: 3, Data: data, Version: ^block.Version(0),
			HasW: true, WasAvail: FullSet(MaxSites)}},
		{name: "put/nil-data", from: 1, req: PutRequest{Block: 1, Version: 2, HasW: true, WasAvail: NewSiteSet(0, 2)}},
		{name: "put/empty-data", from: 1, req: PutRequest{Block: 1, Data: []byte{}, Version: 2},
			want: PutRequest{Block: 1, Version: 2}},
		{name: "prepare-write", from: 2, trace: trace, req: PrepareWriteRequest{Block: 5, Data: data, Version: 6}},
		{name: "prepare-write/nil-data", from: 2, req: PrepareWriteRequest{Block: 5, Version: 6}},
		{name: "abort-write", from: 2, req: AbortWriteRequest{Block: 5, Version: 6}},
		{name: "status", from: 3, req: StatusRequest{}},
		{name: "recovery", from: 1, req: RecoveryRequest{Vector: block.Vector{0, 1, ^block.Version(0)}, JoinW: true}},
		{name: "recovery/paged", from: 1, req: RecoveryRequest{Vector: block.Vector{4, 4}, MaxBlocks: 64, Cont: 128}},
		{name: "recovery/nil-vector", from: 1, req: RecoveryRequest{MaxBlocks: -1}},
		{name: "recovery/empty-vector", from: 1, req: RecoveryRequest{Vector: block.Vector{}},
			want: RecoveryRequest{}},
		{name: "telemetry-pull", from: 5, trace: trace, req: TelemetryPullRequest{}},
		{name: "telemetry-pull/traces", from: 5, req: TelemetryPullRequest{Traces: true}},
	}
}

// respCase is one response round trip, envelope included.
type respCase struct {
	name string
	resp Response
	code uint8
	text string
	want Response
}

func responseCases() []respCase {
	data := []byte("block contents, 0 \x00 and \xff included")
	blocks := []BlockCopy{
		{Index: 0, Data: data, Version: 1},
		{Index: 17, Data: nil, Version: 0},
		{Index: ^block.Index(0), Data: []byte{1}, Version: ^block.Version(0)},
	}
	cases := []respCase{
		{name: "vote-reply", resp: VoteReply{Version: 5, State: StateAvailable}},
		{name: "vote-reply/comatose", resp: VoteReply{State: StateComatose}},
		{name: "fetch-reply", resp: FetchReply{Data: data, Version: 5}},
		{name: "fetch-reply/nil-data", resp: FetchReply{Version: 5}},
		{name: "fetch-reply/empty-data", resp: FetchReply{Data: []byte{}, Version: 5}, want: FetchReply{Version: 5}},
		{name: "put-reply", resp: PutReply{}},
		{name: "prepare-write-reply", resp: PrepareWriteReply{Version: 8, State: StateAvailable, Staged: true}},
		{name: "abort-write-reply", resp: AbortWriteReply{}},
		{name: "status-reply", resp: StatusReply{State: StateComatose, WasAvail: FullSet(MaxSites), VersionSum: ^uint64(0)}},
		{name: "status-reply/empty-W", resp: StatusReply{State: StateAvailable}},
		{name: "recovery-reply", resp: RecoveryReply{Vector: block.Vector{1, 2, 3}, Blocks: blocks, WasAvail: NewSiteSet(0, 1, 63)}},
		{name: "recovery-reply/paged", resp: RecoveryReply{Vector: block.Vector{9}, Blocks: blocks[:1], More: true, Next: 4096}},
		{name: "recovery-reply/nothing-stale", resp: RecoveryReply{Vector: block.Vector{1, 2, 3}}},
		{name: "recovery-reply/empty-slices", resp: RecoveryReply{Vector: block.Vector{}, Blocks: []BlockCopy{}},
			want: RecoveryReply{}},
		{name: "telemetry-pull-reply", resp: TelemetryPullReply{Snap: []byte(`{"counters":[]}`)}},
		{name: "telemetry-pull-reply/no-hook", resp: TelemetryPullReply{}},
		{name: "no-message", resp: nil},
	}
	// Every error code rpcnet defines (and one it does not), each with
	// text, on an envelope with no message — the shape an error travels in.
	for i, text := range []string{"store: payload size 3, want 64", "site: comatose", "site: not operational", "a code from the future"} {
		cases = append(cases, respCase{name: "error/" + text, code: uint8(i + 1), text: text})
	}
	// The codec does not tie the code to the absence of a message.
	cases = append(cases, respCase{name: "error-with-message", resp: PutReply{}, code: 1, text: "both"})
	return cases
}

func (c reqCase) encode() []byte  { return AppendRequest(nil, c.from, c.trace, c.req) }
func (c respCase) encode() []byte { return AppendResponse(nil, c.resp, c.code, c.text) }

// TestWireBytesPinned fixes the frame body and the §5 byte size
// (WireSize) of every table case. A round trip accepts any encoding that
// decodes back to itself, so only this hash notices a change of format,
// or of the sizes simnet charges; it moves only on purpose.
func TestWireBytesPinned(t *testing.T) {
	h := sha256.New()
	for _, c := range requestCases() {
		fmt.Fprintf(h, "%s %x %d\n", c.name, c.encode(), WireSize(c.req))
	}
	for _, c := range responseCases() {
		size := -1
		if c.resp != nil {
			size = WireSize(c.resp)
		}
		fmt.Fprintf(h, "%s %x %d\n", c.name, c.encode(), size)
	}
	const want = "74404d2c88659122"
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
		t.Fatalf("wire hash = %s, want %s: the format or a message's WireSize changed", got, want)
	}
}

// TestTablesCoverEveryTag: the round-trip tables below hold a case for
// every tag in use, so a message whose tag has no decode case fails its
// round trip.
func TestTablesCoverEveryTag(t *testing.T) {
	seen := make(map[byte]bool)
	for _, c := range requestCases() {
		seen[c.encode()[0]] = true
	}
	for _, c := range responseCases() {
		seen[c.encode()[0]] = true
	}
	for tag := byte(1); tag < kindEnd; tag++ {
		if !seen[tag] && !slices.Contains(retiredKinds, tag) {
			t.Errorf("no round-trip case encodes tag %d", tag)
		}
	}
}

// TestGobCarriesEveryMessage: once RegisterGob has run, a gob stream
// carries every table case as an interface value.
func TestGobCarriesEveryMessage(t *testing.T) {
	RegisterGob()
	var msgs []any
	for _, c := range requestCases() {
		msgs = append(msgs, c.req)
	}
	for _, c := range responseCases() {
		if c.resp != nil {
			msgs = append(msgs, c.resp)
		}
	}
	for _, m := range msgs {
		if err := gob.NewEncoder(io.Discard).Encode(&m); err != nil {
			t.Errorf("%T: %v", m, err)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, c := range requestCases() {
		// A non-empty prefix checks that Append really appends.
		prefix := []byte{0xAA, 0xBB}
		enc := AppendRequest(prefix, c.from, c.trace, c.req)
		if !bytes.HasPrefix(enc, []byte{0xAA, 0xBB}) {
			t.Fatalf("%s: AppendRequest clobbered dst", c.name)
		}
		from, trace, req, err := DecodeRequest(enc[2:])
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		want := c.want
		if want == nil {
			want = c.req
		}
		if from != c.from || trace != c.trace || !reflect.DeepEqual(req, want) {
			t.Fatalf("%s: got from=%v trace=%+v req=%#v, want from=%v trace=%+v req=%#v",
				c.name, from, trace, req, c.from, c.trace, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, c := range responseCases() {
		enc := c.encode()
		want := c.want
		if want == nil {
			want = c.resp
		}
		for _, alias := range []bool{false, true} {
			resp, code, text, err := DecodeResponse(enc, alias)
			if err != nil {
				t.Fatalf("%s: decode(alias=%v): %v", c.name, alias, err)
			}
			if code != c.code || text != c.text || !reflect.DeepEqual(resp, want) {
				t.Fatalf("%s: alias=%v: got resp=%#v code=%d text=%q, want resp=%#v code=%d text=%q",
					c.name, alias, resp, code, text, want, c.code, c.text)
			}
		}
	}
}

// TestDecodeAliasing pins the ownership rule both ways: request payloads
// and alias=true response payloads share memory with the frame,
// alias=false response payloads do not.
func TestDecodeAliasing(t *testing.T) {
	enc := AppendRequest(nil, 1, SpanContext{}, PutRequest{Block: 1, Data: []byte("abcd"), Version: 1})
	_, _, req, err := DecodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	data := req.(PutRequest).Data
	enc[len(enc)-1] = 'X'
	if string(data) != "abcX" {
		t.Fatalf("request payload %q does not alias the frame", data)
	}

	enc = AppendResponse(nil, FetchReply{Data: []byte("abcd"), Version: 1}, 0, "")
	copied, _, _, err := DecodeResponse(enc, false)
	if err != nil {
		t.Fatal(err)
	}
	aliased, _, _, err := DecodeResponse(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] = 'X'
	if got := copied.(FetchReply).Data; string(got) != "abcd" {
		t.Fatalf("copied payload changed with the frame: %q", got)
	}
	if got := aliased.(FetchReply).Data; string(got) != "abcX" {
		t.Fatalf("aliased payload %q does not alias the frame", got)
	}
}

// retiredKinds are the tags of the deleted background-repair summary and
// fetch messages (requests and replies alike).
var retiredKinds = []byte{15, 16, 17, 18}

// witnessEraReplies are a vote reply (kind 2) and a prepare-write reply
// (kind 8) as binaries that still carried the retired Witness flag sent
// them: version 5 or 8, state available, then the flag byte the current
// format no longer has (kind 8 put it before Staged).
var witnessEraReplies = []struct {
	name  string
	frame []byte
}{
	{"witness-era vote reply", []byte{kindVoteReply, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, byte(StateAvailable), 1}},
	{"witness-era prepare-write reply", []byte{kindPrepareWriteReply, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, byte(StateAvailable), 1, 0}},
}

func TestDecodeRejectsMalformed(t *testing.T) {
	put := AppendRequest(nil, 1, SpanContext{}, PutRequest{Block: 1, Data: []byte("abcd"), Version: 1, HasW: true})
	const hasWAt = 1 + 4 + 16 + 4 + 8 // envelope, Block, Version
	badBool := append([]byte(nil), put...)
	badBool[hasWAt] = 2
	unknown := append([]byte(nil), put...)
	unknown[0] = 200
	replyAsRequest := append([]byte(nil), put...)
	replyAsRequest[0] = kindVoteReply
	longData := append([]byte(nil), put...)
	binary.LittleEndian.PutUint32(longData[len(longData)-8:], 5)
	statusWithBody := append(append([]byte(nil), put[:21]...), 1)
	statusWithBody[0] = kindStatusRequest

	requests := map[string][]byte{
		"empty":            nil,
		"envelope only":    put[:21],
		"cut mid-field":    put[:25],
		"cut mid-payload":  put[:len(put)-1],
		"trailing byte":    append(append([]byte(nil), put...), 0),
		"bool of 2":        badBool,
		"unknown kind":     unknown,
		"reply kind":       replyAsRequest,
		"length past end":  longData,
		"kind none":        make([]byte, 21),
		"all ones":         bytes.Repeat([]byte{0xff}, 64),
		"status with body": statusWithBody,
	}
	// The retired background-repair tags stay reserved, never reused.
	for _, tag := range retiredKinds {
		b := make([]byte, 21)
		b[0] = tag
		requests[fmt.Sprintf("retired kind %d", tag)] = b
	}
	for name, b := range requests {
		if _, _, req, err := DecodeRequest(b); !errors.Is(err, ErrBadFrame) || req != nil {
			t.Errorf("DecodeRequest(%s) = %v, %v; want nil, ErrBadFrame", name, req, err)
		}
	}

	fetch := AppendResponse(nil, FetchReply{Data: []byte("abcd"), Version: 1}, 1, "oops")
	longText := append([]byte(nil), fetch...)
	binary.LittleEndian.PutUint32(longText[2:], uint32(len(fetch)))
	unknownResp := append([]byte(nil), fetch...)
	unknownResp[0] = 200
	requestAsReply := append([]byte(nil), fetch...)
	requestAsReply[0] = kindFetchRequest
	responses := map[string][]byte{
		"empty":           nil,
		"kind only":       fetch[:1],
		"cut in text":     fetch[:8],
		"cut mid-payload": fetch[:len(fetch)-1],
		"trailing byte":   append(append([]byte(nil), fetch...), 0),
		"text past end":   longText,
		"unknown kind":    unknownResp,
		"request kind":    requestAsReply,
	}
	for _, tag := range retiredKinds {
		responses[fmt.Sprintf("retired kind %d", tag)] = []byte{tag, 0, 0, 0, 0, 0}
	}
	for _, w := range witnessEraReplies {
		responses[w.name] = w.frame
		// One byte shorter, each is a well-formed current frame: the
		// extra flag alone is what the decoder refuses.
		if _, _, _, err := DecodeResponse(w.frame[:len(w.frame)-1], false); err != nil {
			t.Errorf("%s without its last byte: %v", w.name, err)
		}
	}
	for name, b := range responses {
		for _, alias := range []bool{false, true} {
			if resp, _, _, err := DecodeResponse(b, alias); !errors.Is(err, ErrBadFrame) || resp != nil {
				t.Errorf("DecodeResponse(%s, alias=%v) = %v, %v; want nil, ErrBadFrame", name, alias, resp, err)
			}
		}
	}
}

// TestDecodeChecksCountsBeforeAllocating: a 23-byte body that
// announces 2^31 vector entries (16 GiB of versions) must be refused on
// arithmetic alone. The same goes for the other counted parts.
// TotalAlloc counts the whole process, so the test runs on one P and
// charges each frame the least of three decodes: another goroutine's
// allocation can land in one window, not in all three.
func TestDecodeChecksCountsBeforeAllocating(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	huge := make([]byte, 4)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	// kind, code, text length 0, WasAvail, More, Next, vector count.
	recovery := append([]byte{kindRecoveryReply, 0, 0, 0, 0, 0}, make([]byte, 8+1+4)...)
	reqEnvelope := make([]byte, 21)
	frames := map[string]func() error{
		"recovery reply vector": func() error {
			_, _, _, err := DecodeResponse(append(append([]byte(nil), recovery...), huge...), true)
			return err
		},
		"fetch data": func() error {
			b := append([]byte{kindFetchReply, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, huge...)
			_, _, _, err := DecodeResponse(b, false)
			return err
		},
		"recovery reply blocks": func() error {
			// An empty vector, then the blocks count.
			b := append(append(append([]byte(nil), recovery...), 0, 0, 0, 0), huge...)
			_, _, _, err := DecodeResponse(b, false)
			return err
		},
		"error text": func() error {
			b := append([]byte{kindNone, 1}, huge...)
			_, _, _, err := DecodeResponse(b, false)
			return err
		},
		"recovery vector": func() error {
			b := append(append([]byte(nil), reqEnvelope...), make([]byte, 1+8+4)...)
			b = append(b, huge...)
			b[0] = kindRecoveryRequest
			_, _, _, err := DecodeRequest(b)
			return err
		},
	}
	for name, decode := range frames {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		// The error value itself is the only allocation expected.
		if least > 4096 {
			t.Errorf("%s: decoding allocated %d bytes before refusing the count", name, least)
		}
	}
}

// retiredKindFrames seeds the fuzzers with frames that carry a retired
// tag: for each, a bare header of headerLen bytes and the same header
// followed by a zero count, the shape the deleted messages began with.
func retiredKindFrames(headerLen int) [][]byte {
	var frames [][]byte
	for _, tag := range retiredKinds {
		b := make([]byte, headerLen, headerLen+4)
		b[0] = tag
		frames = append(frames, b, append(b, 0, 0, 0, 0))
	}
	return frames
}

// FuzzDecodeRequest: no input may panic the decoder, and any input it
// accepts is the one encoding of what it decoded to.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range requestCases() {
		enc := c.encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	for _, b := range retiredKindFrames(21) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		from, trace, req, err := DecodeRequest(b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) || req != nil {
				t.Fatalf("failure is not a clean ErrBadFrame: req=%v err=%v", req, err)
			}
			return
		}
		if enc := AppendRequest(nil, from, trace, req); !bytes.Equal(enc, b) {
			t.Fatalf("accepted a second encoding of %#v:\n got  %x\n want %x", req, b, enc)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the other direction, and
// also holds the two ownership modes to the same answer.
func FuzzDecodeResponse(f *testing.F) {
	for _, c := range responseCases() {
		enc := c.encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	for _, b := range retiredKindFrames(6) {
		f.Add(b)
	}
	for _, w := range witnessEraReplies {
		f.Add(w.frame)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, code, text, err := DecodeResponse(b, false)
		aliased, acode, atext, aerr := DecodeResponse(b, true)
		if (err == nil) != (aerr == nil) || code != acode || text != atext || !reflect.DeepEqual(resp, aliased) {
			t.Fatalf("copying and aliasing decodes disagree: %#v/%v vs %#v/%v", resp, err, aliased, aerr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) || resp != nil {
				t.Fatalf("failure is not a clean ErrBadFrame: resp=%v err=%v", resp, err)
			}
			return
		}
		if enc := AppendResponse(nil, resp, code, text); !bytes.Equal(enc, b) {
			t.Fatalf("accepted a second encoding of %#v:\n got  %x\n want %x", resp, b, enc)
		}
	})
}

var benchSink []byte

// BenchmarkCodecPut prices one 4 KiB put through the codec: the message
// voting pays 2(n-1) times per write.
func BenchmarkCodecPut(b *testing.B) {
	put := PutRequest{Block: 7, Data: make([]byte, 4096), Version: 9, HasW: true, WasAvail: FullSet(3)}
	enc := AppendRequest(nil, 0, SpanContext{}, put)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		buf := make([]byte, 0, len(enc))
		for i := 0; i < b.N; i++ {
			benchSink = AppendRequest(buf[:0], 0, SpanContext{}, put)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			_, _, req, err := DecodeRequest(enc)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = req.(PutRequest).Data
		}
	})
}
