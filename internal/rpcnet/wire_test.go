package rpcnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/site"
	"relidev/internal/store"
)

// frameOf wraps a body in the length header.
func frameOf(body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

func requestFrame(t *testing.T, req protocol.Request) []byte {
	t.Helper()
	body, err := protocol.AppendRequest(nil, 0, protocol.SpanContext{}, req)
	if err != nil {
		t.Fatal(err)
	}
	return frameOf(body)
}

// oldPeerStream is what a pre-frame rpcnet client put on the wire: a gob
// stream of its request envelope.
func oldPeerStream(t *testing.T) []byte {
	t.Helper()
	type rpcRequest struct {
		From  protocol.SiteID
		Req   protocol.Request
		Trace protocol.SpanContext
	}
	protocol.RegisterGob()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rpcRequest{From: 0, Req: protocol.StatusRequest{}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectClosed asserts the peer closes conn: reads drain to an error
// that is not our own deadline.
func expectClosed(t *testing.T, name string, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := io.Copy(io.Discard, conn)
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatalf("%s: server kept the connection open", name)
	}
}

// TestServerSurvivesHostileWire feeds the server byte streams that are
// not frame streams. Each must cost exactly its own connection: the
// server closes it, keeps answering well-formed clients, and Close
// still joins every goroutine.
func TestServerSurvivesHostileWire(t *testing.T) {
	rep := newReplica(t, 1)
	srv, err := Serve("127.0.0.1:0", rep)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(0, map[protocol.SiteID]string{1: srv.Addr()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	status := requestFrame(t, protocol.StatusRequest{})
	garbage := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(garbage)
	unknownKind := frameOf(append([]byte{200}, make([]byte, 20)...))
	overLimit := binary.LittleEndian.AppendUint32(nil, maxFrame+1)

	cases := []struct {
		name string
		send []byte
		// replies is how many well-formed answers precede the close.
		replies int
		// hangUp half-closes our side after sending: the stream is a
		// prefix of something legal, so the server may rightly wait for
		// the rest and only the end of input proves it is not coming.
		hangUp bool
	}{
		{name: "truncated frame", send: status[:len(status)-3], hangUp: true},
		{name: "truncated header", send: status[:2], hangUp: true},
		{name: "length above the limit", send: overLimit},
		{name: "largest length", send: []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}},
		{name: "random garbage", send: garbage, hangUp: true},
		{name: "well-framed garbage", send: frameOf(garbage)},
		{name: "unknown kind", send: unknownKind},
		{name: "empty body", send: frameOf(nil)},
		{name: "gob stream from an old peer", send: oldPeerStream(t), hangUp: true},
		{name: "valid frame then half a frame", send: append(append([]byte(nil), status...), status[:7]...), replies: 1, hangUp: true},
		{name: "valid frame then garbage frame", send: append(append([]byte(nil), status...), unknownKind...), replies: 1},
	}
	for _, c := range cases {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("%s: dial: %v", c.name, err)
		}
		if _, err := conn.Write(c.send); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
		if c.hangUp {
			conn.(*net.TCPConn).CloseWrite()
		}
		w := newWireConn(conn)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := 0; i < c.replies; i++ {
			body, _, err := w.readFrame()
			if err != nil {
				t.Fatalf("%s: reply %d: %v", c.name, i, err)
			}
			resp, code, _, err := protocol.DecodeResponse(body, false)
			if _, ok := resp.(protocol.StatusReply); !ok || code != errNone || err != nil {
				t.Fatalf("%s: reply %d = %#v code %d err %v", c.name, i, resp, code, err)
			}
		}
		if _, _, err := w.readFrame(); err == nil {
			t.Fatalf("%s: server answered a malformed frame", c.name)
		}
		expectClosed(t, c.name, conn)
		conn.Close()

		resp, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{})
		if err != nil {
			t.Fatalf("well-formed call after %q: %v", c.name, err)
		}
		if s := resp.(protocol.StatusReply); s.State != protocol.StateAvailable {
			t.Fatalf("after %q: status = %+v", c.name, s)
		}
	}

	// A peer that stops mid-frame and never hangs up holds a serving
	// goroutine in a read; Close must still join it.
	stuck, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	if _, err := stuck.Write(status[:len(status)-3]); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return: a serving goroutine is stranded")
	}
	expectClosed(t, "stuck peer", stuck)
}

// fakeServer accepts connections and lets answer decide, per connection
// and per request on it, what bytes go back and whether to hang up after
// sending them. It returns the address and a counter of accepted
// connections.
func fakeServer(t *testing.T, answer func(conn, nth int) (out []byte, hangUp bool)) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			id := int(conns.Add(1))
			go func() {
				defer conn.Close()
				w := newWireConn(conn)
				for nth := 1; ; nth++ {
					if _, _, err := w.readFrame(); err != nil {
						return
					}
					out, hangUp := answer(id, nth)
					if _, err := conn.Write(out); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &conns
}

func statusReplyFrame(t *testing.T) []byte {
	t.Helper()
	body, err := protocol.AppendResponse(nil, protocol.StatusReply{State: protocol.StateAvailable}, errNone, "")
	if err != nil {
		t.Fatal(err)
	}
	return frameOf(body)
}

// TestGarbageResponseClassification is the client-side twin: a response
// that is not a well-formed frame is a wire error like any other. On a
// freshly dialed connection the exchange was established and then
// broke, so it is severed (and transient on a first failure); on a
// pooled connection it is retried once on a fresh dial and the caller
// sees nothing.
func TestGarbageResponseClassification(t *testing.T) {
	good := statusReplyFrame(t)
	garbage := make([]byte, 64)
	rand.New(rand.NewSource(2)).Read(garbage)
	truncated := good[:len(good)-2]
	bad := map[string][]byte{
		"unknown kind":           frameOf(append([]byte{200, 0}, make([]byte, 4)...)),
		"request kind":           requestFrame(t, protocol.StatusRequest{}),
		"well-framed garbage":    frameOf(garbage),
		"length above the limit": binary.LittleEndian.AppendUint32(nil, maxFrame+1),
		"gob stream":             oldPeerStream(t),
		"trailing bytes":         frameOf(append(append([]byte(nil), good[frameHeader:]...), 0)),
		"cut short then closed":  truncated,
	}
	for name, reply := range bad {
		reply := reply
		t.Run("fresh dial/"+name, func(t *testing.T) {
			// Hanging up after the reply makes the failure prompt for the
			// replies that are a prefix of a longer frame.
			addr, _ := fakeServer(t, func(conn, nth int) ([]byte, bool) { return reply, true })
			cli, err := NewClient(0, map[protocol.SiteID]string{1: addr}, 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			_, err = cli.Call(context.Background(), 0, 1, protocol.StatusRequest{})
			if err == nil {
				t.Fatal("call answered with garbage succeeded")
			}
			if !errors.Is(err, protocol.ErrSevered) || !errors.Is(err, protocol.ErrTransient) {
				t.Fatalf("err = %v, want ErrSevered and ErrTransient", err)
			}
			if errors.Is(err, ErrRemote) || !scheme.IsTransportError(err) {
				t.Fatalf("err = %v, want a transport error, not a remote one", err)
			}
			if cli.Suspected(1) {
				t.Fatal("one garbage response put the peer on the suspect list")
			}
		})
		t.Run("pooled/"+name, func(t *testing.T) {
			// Connection 1 answers its first request properly (so it gets
			// pooled) and its second with garbage; connection 2 is the
			// retry's fresh dial and answers properly.
			addr, conns := fakeServer(t, func(conn, nth int) ([]byte, bool) {
				if conn == 1 && nth == 2 {
					return reply, true
				}
				return good, false
			})
			cli, err := NewClient(0, map[protocol.SiteID]string{1: addr}, 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			ctx := context.Background()
			if _, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{}); err != nil {
				t.Fatalf("first call: %v", err)
			}
			resp, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{})
			if err != nil {
				t.Fatalf("garbage on a pooled connection = %v, want a transparent retry", err)
			}
			if _, ok := resp.(protocol.StatusReply); !ok {
				t.Fatalf("retry answered %#v", resp)
			}
			if got := conns.Load(); got != 2 {
				t.Fatalf("server saw %d connections, want 2 (pooled, then one fresh dial)", got)
			}
			if cli.Suspected(1) {
				t.Fatal("peer suspected after a retried exchange")
			}
		})
	}
}

// TestOversizedReplyIsARemoteError: an answer that does not fit a frame
// is reported to the caller as an error from the peer, over a
// connection that stays usable.
func TestOversizedReplyIsARemoteError(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a frame limit's worth of memory twice over")
	}
	huge := handlerFunc(func(req protocol.Request) (protocol.Response, error) {
		if _, ok := req.(protocol.TelemetryPullRequest); ok {
			return protocol.TelemetryPullReply{Snap: make([]byte, maxFrame)}, nil
		}
		return protocol.StatusReply{State: protocol.StateAvailable}, nil
	})
	srv, err := Serve("127.0.0.1:0", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewClient(0, map[protocol.SiteID]string{1: srv.Addr()}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	_, err = cli.Call(ctx, 0, 1, protocol.TelemetryPullRequest{})
	if !errors.Is(err, ErrRemote) || scheme.IsTransportError(err) {
		t.Fatalf("oversized reply = %v, want ErrRemote", err)
	}
	if _, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("call after an oversized reply: %v", err)
	}
}

type handlerFunc func(req protocol.Request) (protocol.Response, error)

func (f handlerFunc) Handle(_ context.Context, _ protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return f(req)
}

// TestLargeFramesRoundTrip sends bodies beyond the per-connection read
// buffer in both directions — the path that allocates per frame — and
// checks that the connection's write buffer is let go afterwards.
func TestLargeFramesRoundTrip(t *testing.T) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 64}
	st, err := store.NewMem(geom)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := site.New(site.Config{ID: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", rep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewClient(0, map[protocol.SiteID]string{1: srv.Addr()}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	want := make(map[block.Index][]byte)
	for i := 0; i < geom.NumBlocks; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, geom.BlockSize)
		want[block.Index(i)] = data
		if _, err := cli.Call(ctx, 0, 1, protocol.PutRequest{Block: block.Index(i), Data: data, Version: 3}); err != nil {
			t.Fatal(err)
		}
	}
	// A 64-entry vector request and a 256 KiB reply.
	resp, err := cli.Call(ctx, 0, 1, protocol.RecoveryRequest{Vector: block.NewVector(geom.NumBlocks)})
	if err != nil {
		t.Fatal(err)
	}
	rec := resp.(protocol.RecoveryReply)
	if len(rec.Blocks) != geom.NumBlocks {
		t.Fatalf("recovery returned %d blocks, want %d", len(rec.Blocks), geom.NumBlocks)
	}
	// The next exchange reuses the connection; the blocks must not change
	// under it. It is a 96 KiB request that asks for nothing the peer has:
	// a vector ahead of every block the peer holds.
	ahead := make(block.Vector, 12288)
	for i := range ahead {
		ahead[i] = 4
	}
	resp, err = cli.Call(ctx, 0, 1, protocol.RecoveryRequest{Vector: ahead})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(protocol.RecoveryReply); len(got.Blocks) != 0 {
		t.Fatalf("recovery against a newer vector returned %d blocks, want none", len(got.Blocks))
	}
	for _, c := range rec.Blocks {
		if c.Version != 3 || !bytes.Equal(c.Data, want[c.Index]) {
			t.Fatalf("block %v corrupted in transit", c.Index)
		}
	}
	p, err := cli.peer(1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.get()
	if w == nil {
		t.Fatal("no pooled connection after sequential calls")
	}
	defer w.close()
	if cap(w.wbuf) > maxKeptWriteBuf {
		t.Fatalf("connection kept a %d-byte write buffer after a bulk request", cap(w.wbuf))
	}
}

// TestHandlersDoNotRetainRequestPayload pins the "valid until Handle
// returns" rule from the server's side: request payloads are decoded in
// place over the connection's read buffer, so the next request on that
// connection overwrites them. A prepare-write stages X over P on block
// A and retains the pre-image; a put of Y to block B then reuses the
// buffer. A must still read X, and aborting the stage must bring back P
// — under every store the server runs on.
func TestHandlersDoNotRetainRequestPayload(t *testing.T) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 8}
	stores := map[string]func(t *testing.T) store.Store{
		"mem": func(t *testing.T) store.Store {
			st, err := store.NewMem(geom)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"seg": func(t *testing.T) store.Store {
			st, err := store.CreateSeg(t.TempDir(), geom)
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"batcher+seg": func(t *testing.T) store.Store {
			st, err := store.CreateSeg(t.TempDir(), geom)
			if err != nil {
				t.Fatal(err)
			}
			return store.NewBatcher(st, store.BatchPolicy{MaxDelay: time.Millisecond, MaxBatch: 8})
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			defer st.Close()
			rep, err := site.New(site.Config{ID: 1, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Serve("127.0.0.1:0", rep)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli, err := NewClient(0, map[protocol.SiteID]string{1: srv.Addr()}, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			ctx := context.Background()
			fill := func(c byte) []byte { return bytes.Repeat([]byte{c}, geom.BlockSize) }
			const a, b = block.Index(1), block.Index(2)

			call := func(req protocol.Request) protocol.Response {
				t.Helper()
				resp, err := cli.Call(ctx, 0, 1, req)
				if err != nil {
					t.Fatalf("%s: %v", req.Kind(), err)
				}
				return resp
			}
			fetch := func(idx block.Index) protocol.FetchReply {
				t.Helper()
				resp, err := cli.Fetch(ctx, 0, 1, protocol.FetchRequest{Block: idx})
				if err != nil {
					t.Fatalf("fetch %v: %v", idx, err)
				}
				return resp.(protocol.FetchReply)
			}

			call(protocol.PutRequest{Block: a, Data: fill('P'), Version: 1})
			if r := call(protocol.PrepareWriteRequest{Block: a, Data: fill('X'), Version: 2}).(protocol.PrepareWriteReply); !r.Staged {
				t.Fatalf("prepare-write not staged: %+v", r)
			}
			// Sequential calls ride one pooled connection, so this frame
			// lands where X's did.
			call(protocol.PutRequest{Block: b, Data: fill('Y'), Version: 1})

			if got := fetch(a); got.Version != 2 || !bytes.Equal(got.Data, fill('X')) {
				t.Fatalf("block A after the next request = %v %q..., want v2 of X", got.Version, got.Data[:4])
			}
			if got := fetch(b); got.Version != 1 || !bytes.Equal(got.Data, fill('Y')) {
				t.Fatalf("block B = %v %q..., want v1 of Y", got.Version, got.Data[:4])
			}
			call(protocol.AbortWriteRequest{Block: a, Version: 2})
			if got := fetch(a); got.Version != 1 || !bytes.Equal(got.Data, fill('P')) {
				t.Fatalf("block A after abort = %v %q..., want the pre-image v1 of P", got.Version, got.Data[:4])
			}
			// What the store itself holds, not just what the wire returns.
			if data, ver, err := st.Read(a); err != nil || ver != 1 || !bytes.Equal(data, fill('P')) {
				t.Fatalf("store block A = %v %v, want v1 of P", ver, err)
			}
			if data, ver, err := st.Read(b); err != nil || ver != 1 || !bytes.Equal(data, fill('Y')) {
				t.Fatalf("store block B = %v %v, want v1 of Y", ver, err)
			}
		})
	}
}
