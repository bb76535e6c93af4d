package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
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
			HasW: true, WasAvail: FullSet(MaxSites), ReplaceW: true}},
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
		{name: "vote-reply", resp: VoteReply{Version: 5, Weight: 1001, State: StateAvailable, Witness: true}},
		{name: "vote-reply/negative-weight", resp: VoteReply{Weight: -1, State: StateComatose}},
		{name: "fetch-reply", resp: FetchReply{Data: data, Version: 5}},
		{name: "fetch-reply/nil-data", resp: FetchReply{Version: 5}},
		{name: "fetch-reply/empty-data", resp: FetchReply{Data: []byte{}, Version: 5}, want: FetchReply{Version: 5}},
		{name: "put-reply", resp: PutReply{}},
		{name: "prepare-write-reply", resp: PrepareWriteReply{Version: 8, Weight: 1000, State: StateAvailable, Staged: true}},
		{name: "prepare-write-reply/witness", resp: PrepareWriteReply{Version: 8, Weight: 999, State: StateAvailable, Witness: true}},
		{name: "abort-write-reply", resp: AbortWriteReply{}},
		{name: "status-reply", resp: StatusReply{State: StateComatose, WasAvail: FullSet(MaxSites), VersionSum: ^uint64(0), Witness: true}},
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

func TestRequestRoundTrip(t *testing.T) {
	kinds := make(map[string]bool)
	for _, c := range requestCases() {
		kinds[c.req.Kind()] = true
		// A non-empty prefix checks that Append really appends.
		prefix := []byte{0xAA, 0xBB}
		enc, err := AppendRequest(prefix, c.from, c.trace, c.req)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
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
	if len(kinds) != len(KindOps) {
		t.Fatalf("table covers %d request kinds, KindOps prices %d", len(kinds), len(KindOps))
	}
}

func TestResponseRoundTrip(t *testing.T) {
	kinds := make(map[string]bool)
	for _, c := range responseCases() {
		if c.resp != nil {
			kinds[c.resp.RespKind()] = true
		}
		enc, err := AppendResponse(nil, c.resp, c.code, c.text)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
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
	if len(kinds) != 8 {
		t.Fatalf("table covers %d response kinds, want 8", len(kinds))
	}
}

// TestDecodeAliasing pins the ownership rule both ways: request payloads
// and alias=true response payloads share memory with the frame,
// alias=false response payloads do not.
func TestDecodeAliasing(t *testing.T) {
	enc, err := AppendRequest(nil, 1, SpanContext{}, PutRequest{Block: 1, Data: []byte("abcd"), Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, req, err := DecodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	data := req.(PutRequest).Data
	enc[len(enc)-1] = 'X'
	if string(data) != "abcX" {
		t.Fatalf("request payload %q does not alias the frame", data)
	}

	enc, err = AppendResponse(nil, FetchReply{Data: []byte("abcd"), Version: 1}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
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

type unknownMsg struct{}

func (unknownMsg) Kind() string     { return "unknown" }
func (unknownMsg) RespKind() string { return "unknown-reply" }

func TestAppendRejectsUnknownTypes(t *testing.T) {
	dst := []byte{1, 2, 3}
	if out, err := AppendRequest(dst, 0, SpanContext{}, unknownMsg{}); err == nil || !bytes.Equal(out, dst) {
		t.Fatalf("AppendRequest(unknown) = %v, %v; want dst back and an error", out, err)
	}
	if out, err := AppendResponse(dst, unknownMsg{}, 0, ""); err == nil || !bytes.Equal(out, dst) {
		t.Fatalf("AppendResponse(unknown) = %v, %v; want dst back and an error", out, err)
	}
	// Pointers to message types are not messages: handlers switch on values.
	if _, err := AppendRequest(nil, 0, SpanContext{}, &VoteRequest{}); err == nil {
		t.Fatal("AppendRequest accepted a pointer")
	}
}

// retiredKinds are the tags of the deleted background-repair summary and
// fetch messages (requests and replies alike).
var retiredKinds = []byte{15, 16, 17, 18}

func TestDecodeRejectsMalformed(t *testing.T) {
	put, err := AppendRequest(nil, 1, SpanContext{}, PutRequest{Block: 1, Data: []byte("abcd"), Version: 1, HasW: true})
	if err != nil {
		t.Fatal(err)
	}
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

	fetch, err := AppendResponse(nil, FetchReply{Data: []byte("abcd"), Version: 1}, 1, "oops")
	if err != nil {
		t.Fatal(err)
	}
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
func TestDecodeChecksCountsBeforeAllocating(t *testing.T) {
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
		// The error value itself is the only allocation expected.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096 {
			t.Errorf("%s: decoding allocated %d bytes before refusing the count", name, grew)
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
		enc, err := AppendRequest(nil, c.from, c.trace, c.req)
		if err != nil {
			f.Fatal(err)
		}
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
		enc, err := AppendRequest(nil, from, trace, req)
		if err != nil {
			t.Fatalf("decoded %#v cannot be encoded: %v", req, err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted a second encoding of %#v:\n got  %x\n want %x", req, b, enc)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the other direction, and
// also holds the two ownership modes to the same answer.
func FuzzDecodeResponse(f *testing.F) {
	for _, c := range responseCases() {
		enc, err := AppendResponse(nil, c.resp, c.code, c.text)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	for _, b := range retiredKindFrames(6) {
		f.Add(b)
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
		enc, err := AppendResponse(nil, resp, code, text)
		if err != nil {
			t.Fatalf("decoded %#v cannot be encoded: %v", resp, err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted a second encoding of %#v:\n got  %x\n want %x", resp, b, enc)
		}
	})
}

var benchSink []byte

// BenchmarkCodecPut prices one 4 KiB put through the codec: the message
// voting pays 2(n-1) times per write.
func BenchmarkCodecPut(b *testing.B) {
	put := PutRequest{Block: 7, Data: make([]byte, 4096), Version: 9, HasW: true, WasAvail: FullSet(3)}
	enc, err := AppendRequest(nil, 0, SpanContext{}, put)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		buf := make([]byte, 0, len(enc))
		for i := 0; i < b.N; i++ {
			benchSink, _ = AppendRequest(buf[:0], 0, SpanContext{}, put)
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
