package rpcnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"relidev/internal/availcopy"
	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/site"
	"relidev/internal/store"
	"relidev/internal/voting"
)

var testGeom = block.Geometry{BlockSize: 32, NumBlocks: 8}

func newReplica(t *testing.T, id protocol.SiteID) *site.Replica {
	t.Helper()
	st, err := store.NewMem(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := site.New(site.Config{ID: id, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func pad(s string) []byte {
	out := make([]byte, testGeom.BlockSize)
	copy(out, s)
	return out
}

// startCluster launches n replica servers on loopback and returns their
// replicas, addresses, and a cleanup-registered server list.
func startCluster(t *testing.T, n int) ([]*site.Replica, map[protocol.SiteID]string) {
	t.Helper()
	replicas := make([]*site.Replica, n)
	addrs := make(map[protocol.SiteID]string, n)
	for i := 0; i < n; i++ {
		id := protocol.SiteID(i)
		replicas[i] = newReplica(t, id)
		srv, err := Serve("127.0.0.1:0", replicas[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[id] = srv.Addr()
	}
	return replicas, addrs
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("accepted nil handler")
	}
	if _, err := Serve("256.256.256.256:99999", newReplica(t, 0)); err == nil {
		t.Fatal("accepted bad address")
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(0, nil, 0); err == nil {
		t.Fatal("accepted empty address map")
	}
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	replicas, addrs := startCluster(t, 2)
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	// Put, then Vote, Fetch, Status, Recovery.
	if _, err := cli.Call(ctx, 0, 1, protocol.PutRequest{Block: 2, Data: pad("tcp"), Version: 5}); err != nil {
		t.Fatalf("put: %v", err)
	}
	resp, err := cli.Call(ctx, 0, 1, protocol.VoteRequest{Block: 2})
	if err != nil {
		t.Fatalf("vote: %v", err)
	}
	if v := resp.(protocol.VoteReply); v.Version != 5 || v.Weight != 1000 {
		t.Fatalf("vote reply = %+v", v)
	}
	resp, err = cli.Fetch(ctx, 0, 1, protocol.FetchRequest{Block: 2})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if f := resp.(protocol.FetchReply); string(f.Data[:3]) != "tcp" || f.Version != 5 {
		t.Fatalf("fetch reply = %+v", f)
	}
	resp, err = cli.Call(ctx, 0, 1, protocol.StatusRequest{})
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if s := resp.(protocol.StatusReply); s.State != protocol.StateAvailable || s.VersionSum != 5 {
		t.Fatalf("status reply = %+v", s)
	}
	vec := block.NewVector(testGeom.NumBlocks)
	resp, err = cli.Call(ctx, 0, 1, protocol.RecoveryRequest{Vector: vec, JoinW: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rec := resp.(protocol.RecoveryReply)
	if len(rec.Blocks) != 1 || rec.Blocks[0].Index != 2 {
		t.Fatalf("recovery reply blocks = %v", rec.Blocks)
	}
	if !replicas[1].WasAvailable().Has(0) {
		t.Fatal("JoinW did not reach the server replica")
	}
}

func TestSentinelErrorsCrossTheWire(t *testing.T) {
	replicas, addrs := startCluster(t, 2)
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	replicas[1].SetState(protocol.StateComatose)
	_, err = cli.Call(ctx, 0, 1, protocol.PutRequest{Block: 0, Data: pad(""), Version: 1})
	if !errors.Is(err, site.ErrComatose) {
		t.Fatalf("err = %v, want ErrComatose across TCP", err)
	}
	replicas[1].SetState(protocol.StateFailed)
	_, err = cli.Call(ctx, 0, 1, protocol.StatusRequest{})
	if !errors.Is(err, site.ErrNotOperational) {
		t.Fatalf("err = %v, want ErrNotOperational across TCP", err)
	}
}

// TestDeadServerSuspectedAfterThreshold: ambiguous wire failures — here
// a listener that accepts connections and drops them mid-exchange — are
// first reported as transient; only the suspect threshold's consecutive
// failures promote the peer to ErrSiteDown (the suspect-list failure
// detector). Contrast with connection refusal, which is conclusive
// (TestConnectionRefusedIsConclusive).
func TestDeadServerSuspectedAfterThreshold(t *testing.T) {
	_, addrs := startCluster(t, 1)
	// A listener that accepts and immediately closes every connection:
	// the dial succeeds, the exchange dies — evidence, not proof.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, aerr := ln.Accept()
			if aerr != nil {
				return
			}
			conn.Close()
		}
	}()
	addrs[protocol.SiteID(1)] = ln.Addr().String()
	cli, err := NewClient(0, addrs, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cli.cfg.retryBase, cli.cfg.retryMax = time.Millisecond, 4*time.Millisecond
	defer cli.Close()
	ctx := context.Background()

	_, err = cli.Call(ctx, 0, 1, protocol.StatusRequest{})
	if !errors.Is(err, protocol.ErrTransient) {
		t.Fatalf("first failure = %v, want ErrTransient", err)
	}
	if errors.Is(err, protocol.ErrSiteDown) {
		t.Fatalf("first failure = %v, already ErrSiteDown", err)
	}
	if cli.Suspected(1) {
		t.Fatal("suspected after a single failure")
	}
	// Keep calling (waiting out the redial backoff) until the detector
	// gives up on the peer.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err = cli.Call(ctx, 0, 1, protocol.StatusRequest{})
		if errors.Is(err, protocol.ErrSiteDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never suspected down; last err = %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !cli.Suspected(1) {
		t.Fatal("Suspected(1) = false after threshold failures")
	}
	if !cli.SuspectSet().Has(1) {
		t.Fatal("SuspectSet misses site 1")
	}
	// Unknown site id is a configuration error, down immediately.
	_, err = cli.Call(ctx, 0, 9, protocol.StatusRequest{})
	if !errors.Is(err, protocol.ErrSiteDown) {
		t.Fatalf("unknown id err = %v, want ErrSiteDown", err)
	}
}

// TestConnectionRefusedIsConclusive: a refused connection means the
// host is reachable and no process listens — the fail-stop signal. The
// peer is suspected down on the very first call, no threshold needed.
func TestConnectionRefusedIsConclusive(t *testing.T) {
	_, addrs := startCluster(t, 1)
	addrs[protocol.SiteID(1)] = "127.0.0.1:1" // nobody listens here
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Call(context.Background(), 0, 1, protocol.StatusRequest{})
	if !errors.Is(err, protocol.ErrSiteDown) {
		t.Fatalf("refused call = %v, want ErrSiteDown", err)
	}
	if !cli.Suspected(1) {
		t.Fatal("refused peer not suspected")
	}
}

// TestStalePooledConnRetriesOnFreshDial is the acceptance test for the
// stale-pool bug: a pooled connection killed server-side must be
// retried once on a fresh dial, so the caller sees no error at all —
// and a consistency controller above sees neither ErrSiteDown nor a
// shrunken was-available set.
func TestStalePooledConnRetriesOnFreshDial(t *testing.T) {
	rep := newReplica(t, 1)
	srv, err := Serve("127.0.0.1:0", rep)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := NewClient(0, map[protocol.SiteID]string{1: addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	// Pool a connection, then kill it server-side by bouncing the
	// server process. The pooled client end is now stale.
	if _, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	srv.Close()
	srv2, err := Serve(addr, rep)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()

	// The next call picks the stale connection, hits a wire error, and
	// must transparently retry on a fresh dial against the live peer.
	if _, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("call over stale pooled conn = %v, want transparent retry", err)
	}
	if cli.Suspected(1) {
		t.Fatal("live peer entered the suspect list over one stale connection")
	}
}

// TestTransientFailureDoesNotShrinkWasAvailable drives an available
// copy write over a client whose pooled connection to a live peer has
// gone stale: the write must succeed and the was-available set must
// keep the peer (acceptance criterion — a single transient connection
// error must not eject a live site from W_s).
func TestTransientFailureDoesNotShrinkWasAvailable(t *testing.T) {
	replicas, addrs := startCluster(t, 2)
	localRep := replicas[0]

	// Run site 1 on a bounceable server.
	rep1 := replicas[1]
	srv1, err := Serve("127.0.0.1:0", rep1)
	if err != nil {
		t.Fatal(err)
	}
	addr1 := srv1.Addr()
	addrs[protocol.SiteID(1)] = addr1

	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ids := []protocol.SiteID{0, 1}
	ctrl, err := availcopy.New(scheme.Env{
		Self:      localRep,
		Transport: cli,
		Sites:     ids,
		Weights:   []int64{1000, 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A first write pools connections and establishes W = {0, 1}.
	if err := ctrl.Write(ctx, 0, pad("w0")); err != nil {
		t.Fatalf("write: %v", err)
	}
	full := protocol.NewSiteSet(0, 1)
	if w := localRep.WasAvailable(); w != full {
		t.Fatalf("W after first write = %v, want %v", w, full)
	}

	// Stale the pooled connection to the (live) peer.
	srv1.Close()
	srv2, err := Serve(addr1, rep1)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()

	// The next write rides the stale connection; the transparent retry
	// must keep site 1 in the write's recipient set.
	if err := ctrl.Write(ctx, 0, pad("w1")); err != nil {
		t.Fatalf("write over stale conn: %v", err)
	}
	if w := localRep.WasAvailable(); w != full {
		t.Fatalf("W after transient hiccup = %v, want %v (live site ejected)", w, full)
	}
	if ver, _ := rep1.VersionLocal(0); ver != 2 {
		t.Fatalf("peer version = %v, want 2 (retried write must land)", ver)
	}
}

// TestBroadcastStopsOnCancelledContext: a cancelled context must fail
// the remaining destinations immediately with the context error rather
// than waiting out the call timeout per destination.
func TestBroadcastStopsOnCancelledContext(t *testing.T) {
	_, addrs := startCluster(t, 1)
	// Blackhole addresses that would each eat a long dial timeout.
	addrs[protocol.SiteID(1)] = "10.255.255.1:9"
	addrs[protocol.SiteID(2)] = "10.255.255.2:9"
	addrs[protocol.SiteID(3)] = "10.255.255.3:9"
	cli, err := NewClient(0, addrs, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res := cli.Broadcast(ctx, 0, []protocol.SiteID{1, 2, 3}, protocol.StatusRequest{})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled broadcast took %v", elapsed)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for id, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("dest %v err = %v, want context.Canceled", id, r.Err)
		}
	}
}

// TestSuspectListClearsOnFirstSuccess: a peer that comes back is
// cleared from the suspect list by its first successful exchange.
func TestSuspectListClearsOnFirstSuccess(t *testing.T) {
	rep := newReplica(t, 1)
	srv, err := Serve("127.0.0.1:0", rep)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()
	cli, err := NewClient(0, map[protocol.SiteID]string{1: addr}, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cli.cfg.retryBase, cli.cfg.retryMax = time.Millisecond, 4*time.Millisecond
	// Threshold 1: the very first failure suspects the peer, which keeps
	// this test fast.
	cli.cfg.suspectThreshold = 1
	defer cli.Close()
	ctx := context.Background()

	if _, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{}); !errors.Is(err, protocol.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown at threshold 1", err)
	}
	if !cli.Suspected(1) {
		t.Fatal("peer not suspected")
	}
	srv2, err := Serve(addr, rep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never recovered: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cli.Suspected(1) {
		t.Fatal("suspicion not cleared by first success")
	}
}

func TestReconnectAfterServerRestart(t *testing.T) {
	rep := newReplica(t, 1)
	srv, err := Serve("127.0.0.1:0", rep)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := NewClient(0, map[protocol.SiteID]string{1: addr}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	if _, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	// Crash the server process (fail-stop). The stale pooled connection
	// fails, and the fresh-dial retry is refused — conclusive fail-stop
	// evidence, so the peer is down immediately.
	srv.Close()
	if _, err := cli.Call(ctx, 0, 1, protocol.StatusRequest{}); !errors.Is(err, protocol.ErrSiteDown) {
		t.Fatalf("call to crashed server = %v, want ErrSiteDown", err)
	}
	// Restart on the same address; the client must re-dial transparently.
	srv2, err := Serve(addr, rep)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err = cli.Call(ctx, 0, 1, protocol.StatusRequest{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("call after restart: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBroadcastAndNotifyOverTCP(t *testing.T) {
	replicas, addrs := startCluster(t, 3)
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	res := cli.Broadcast(ctx, 0, []protocol.SiteID{1, 2}, protocol.StatusRequest{})
	if len(res) != 2 || res[1].Err != nil || res[2].Err != nil {
		t.Fatalf("broadcast results = %+v", res)
	}
	res = cli.Notify(ctx, 0, []protocol.SiteID{1, 2}, protocol.PutRequest{Block: 1, Data: pad("n"), Version: 1})
	for id, r := range res {
		if r.Err != nil {
			t.Fatalf("notify to %v: %v", id, r.Err)
		}
	}
	for _, rep := range replicas[1:] {
		if ver, _ := rep.VersionLocal(1); ver != 1 {
			t.Fatal("notify did not install the block")
		}
	}
}

// A full voting controller working over TCP: the same scheme code that
// runs over simnet coordinates real server processes.
func TestVotingControllerOverTCP(t *testing.T) {
	replicas, addrs := startCluster(t, 3)
	localRep := replicas[0]
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ids := []protocol.SiteID{0, 1, 2}
	ctrl, err := voting.New(scheme.Env{
		Self:      localRep,
		Transport: cli,
		Sites:     ids,
		Weights:   []int64{1000, 1000, 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ctrl.Write(ctx, 3, pad("over-tcp")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ctrl.Read(ctx, 3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got[:8]) != "over-tcp" {
		t.Fatalf("read = %q", got[:8])
	}
	// Remote replicas received the quorum write.
	for i, rep := range replicas[1:] {
		if ver, _ := rep.VersionLocal(3); ver != 1 {
			t.Fatalf("remote replica %d version = %v", i+1, ver)
		}
	}
}

func TestServerCloseIsIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", newReplica(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClientCalls exercises one Client from many goroutines:
// the per-peer connection must serialise correctly and reconnect cleanly
// under contention.
func TestConcurrentClientCalls(t *testing.T) {
	replicas, addrs := startCluster(t, 3)
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			to := protocol.SiteID(1 + w%2)
			for i := 0; i < 100; i++ {
				if _, err := cli.Call(ctx, 0, to, protocol.VoteRequest{Block: 1}); err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Servers saw all the traffic and stayed healthy.
	for _, rep := range replicas[1:] {
		if rep.State() != protocol.StateAvailable {
			t.Fatal("server degraded under concurrent load")
		}
	}
}

// TestConnectionPoolBoundsIdleConns drives one peer from many goroutines
// and checks that concurrent round trips each got a stream (no queueing
// deadlock) while the idle pool stays within its bound afterwards.
func TestConnectionPoolBoundsIdleConns(t *testing.T) {
	_, addrs := startCluster(t, 2)
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := cli.Call(ctx, 0, 1, protocol.VoteRequest{Block: 1}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	p, err := cli.peer(1)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle == 0 {
		t.Fatal("pool kept no idle connection for reuse")
	}
	if idle > maxIdleConnsPerPeer {
		t.Fatalf("pool holds %d idle conns, bound is %d", idle, maxIdleConnsPerPeer)
	}
	// A sequential call must reuse a pooled connection, leaving the idle
	// count unchanged.
	if _, err := cli.Call(ctx, 0, 1, protocol.VoteRequest{Block: 1}); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	after := len(p.idle)
	p.mu.Unlock()
	if after != idle {
		t.Fatalf("idle conns changed %d -> %d on a sequential call; expected reuse", idle, after)
	}
}

// TestConcurrentWritersWithServerRestart hammers distinct blocks through
// a voting controller over TCP from many goroutines while one remote
// server process crashes and restarts repeatedly. Every worker must read
// back its own last successful write; the quorum of the two stable sites
// keeps the device available throughout.
func TestConcurrentWritersWithServerRestart(t *testing.T) {
	replicas, addrs := startCluster(t, 2) // sites 0, 1 stay up
	chaosRep := newReplica(t, 2)
	chaosSrv, err := Serve("127.0.0.1:0", chaosRep)
	if err != nil {
		t.Fatal(err)
	}
	chaosAddr := chaosSrv.Addr()
	addrs[protocol.SiteID(2)] = chaosAddr

	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ids := []protocol.SiteID{0, 1, 2}
	ctrl, err := voting.New(scheme.Env{
		Self:      replicas[0],
		Transport: cli,
		Sites:     ids,
		Weights:   []int64{1000, 1000, 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const (
		workers = 8
		rounds  = 40
	)
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		srv := chaosSrv
		for {
			select {
			case <-stop:
				srv.Close()
				return
			default:
			}
			srv.Close()
			time.Sleep(5 * time.Millisecond)
			deadline := time.Now().Add(2 * time.Second)
			for {
				next, err := Serve(chaosAddr, chaosRep)
				if err == nil {
					srv = next
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("chaos restart: %v", err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	lastOK := make([]byte, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := block.Index(w)
			for i := 1; i <= rounds; i++ {
				payload := pad("x")
				payload[1] = byte(w)
				payload[2] = byte(i)
				if err := ctrl.Write(ctx, idx, payload); err != nil {
					if errors.Is(err, scheme.ErrNoQuorum) {
						continue
					}
					t.Errorf("worker %d write %d: %v", w, i, err)
					return
				}
				lastOK[w] = byte(i)
				got, err := ctrl.Read(ctx, idx)
				if err != nil {
					if errors.Is(err, scheme.ErrNoQuorum) {
						continue
					}
					t.Errorf("worker %d read %d: %v", w, i, err)
					return
				}
				if got[1] != byte(w) || got[2] != lastOK[w] {
					t.Errorf("worker %d read back w=%d i=%d, want w=%d i=%d",
						w, got[1], got[2], w, lastOK[w])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
	if t.Failed() {
		return
	}
	for w := 0; w < workers; w++ {
		got, err := ctrl.Read(context.Background(), block.Index(w))
		if err != nil {
			t.Fatalf("final read of block %d: %v", w, err)
		}
		if got[1] != byte(w) || got[2] != lastOK[w] {
			t.Fatalf("block %d lost write: read w=%d i=%d, want w=%d i=%d",
				w, got[1], got[2], w, lastOK[w])
		}
	}
}

func TestContextDeadlineRespected(t *testing.T) {
	_, addrs := startCluster(t, 1)
	addrs[protocol.SiteID(1)] = "10.255.255.1:9" // blackhole
	cli, err := NewClient(0, addrs, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.Call(ctx, 0, 1, protocol.StatusRequest{})
	if err == nil {
		t.Fatal("call to blackhole succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("context deadline ignored: call took %v", elapsed)
	}
}
