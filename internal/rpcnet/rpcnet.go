// Package rpcnet carries the inter-site protocol over TCP, one
// length-prefixed binary frame per message (frame.go, and
// protocol/codec.go for the body), turning the reliable device into
// what the paper actually describes: "a set of server processes on
// several sites" (§1).
//
// A Server exposes one replica's protocol handler on a TCP address; a
// Client implements protocol.Transport against a map of peer addresses.
// The same consistency controllers that run over the simulated network
// run unchanged over rpcnet — transports are interchangeable.
//
// Unlike simnet, rpcnet does not meter §5 transmission counts (a real
// network's cost is measured, not modelled).
//
// A real wire, unlike the paper's reliable network, produces failures
// that do not mean the peer is down: a pooled connection gone stale, a
// router hiccup, a slow dial. The client therefore separates *transient*
// failures from *fail-stop* ones with a per-peer suspect list: a wire
// error is first retried once on a freshly dialed connection (requests
// are versioned and idempotent at the replica, so a duplicate delivery
// is harmless), then reported as protocol.ErrTransient, and only after
// three consecutive failures does the peer get reported as
// protocol.ErrSiteDown. The first successful exchange clears the
// suspicion. Redials back off exponentially with jitter up to a cap so
// a dead peer does not eat a dial timeout on every call.
package rpcnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/site"
)

// wire error codes let sentinel errors cross the process boundary so that
// scheme logic (which matches them with errors.Is) works identically over
// TCP.
const (
	errNone uint8 = iota
	errGeneric
	errComatose
	errNotOperational
)

// ErrRemote marks an error produced by the remote handler itself, as
// opposed to a transport failure: the call reached the peer and was
// answered. scheme.IsTransportError(err) is false for it by design —
// under the paper's fail-stop model (§3) only a *missing* answer may
// be treated as a site failure, never a delivered one.
var ErrRemote = errors.New("rpcnet: remote error")

func init() {
	// Teach the metering transport to bucket remote-handler failures.
	obs.RegisterErrorClassifier(func(err error) (string, bool) {
		if errors.Is(err, ErrRemote) {
			return obs.ClassRemote, true
		}
		return "", false
	})
}

// reply is one decoded response frame: the handler's answer, or the
// error it returned as a wire code plus its text.
type reply struct {
	resp protocol.Response
	code uint8
	text string
}

func encodeErr(err error) (uint8, string) {
	switch {
	case err == nil:
		return errNone, ""
	case errors.Is(err, site.ErrComatose):
		return errComatose, err.Error()
	case errors.Is(err, site.ErrNotOperational):
		return errNotOperational, err.Error()
	default:
		return errGeneric, err.Error()
	}
}

func decodeErr(code uint8, text string) error {
	switch code {
	case errNone:
		return nil
	case errComatose:
		return fmt.Errorf("%s: %w", text, site.ErrComatose)
	case errNotOperational:
		return fmt.Errorf("%s: %w", text, site.ErrNotOperational)
	default:
		return fmt.Errorf("%s: %w", text, ErrRemote)
	}
}

// Server exposes a protocol handler on a TCP listener.
type Server struct {
	ln      net.Listener
	handler protocol.Handler

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") and serving the
// handler. Close stops it.
func Serve(addr string, h protocol.Handler) (*Server, error) {
	if h == nil {
		return nil, errors.New("rpcnet: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections, then waits for the
// serving goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	w := newWireConn(conn)
	for {
		body, _, err := w.readFrame()
		if err != nil {
			return // connection closed, or not a frame stream
		}
		// req's byte payloads point into body, which readFrame reuses:
		// they are valid until Handle returns (see protocol.Handler).
		from, trace, req, err := protocol.DecodeRequest(body)
		if err != nil {
			return // malformed frame: the stream cannot be trusted further
		}
		// The caller's deadline does not cross the wire (the caller
		// abandons the exchange on its own clock); what does cross is the
		// trace context, reconstructed here so the handler's spans link to
		// the remote parent.
		//relidev:allow context: server side of the wire is a call root; the caller's deadline stays on the caller
		ctx := context.Background()
		if trace.Valid() {
			ctx = protocol.WithSpan(ctx, trace)
		}
		resp, err := s.handler.Handle(ctx, from, req)
		code, text := encodeErr(err)
		frame, err := protocol.AppendResponse(w.beginFrame(), resp, code, text)
		if err == nil {
			err = checkFrameSize(frame)
		}
		if err != nil {
			// The answer cannot travel (too large, or a type the codec
			// does not know). The stream itself is fine, so say why in an
			// error reply instead of dropping the connection.
			frame, _ = protocol.AppendResponse(w.beginFrame(), nil, errGeneric, err.Error())
		}
		if err := w.sendFrame(frame); err != nil {
			return
		}
	}
}

// maxIdleConnsPerPeer bounds the per-peer connection pool. Connections
// beyond the bound are closed when returned; concurrent round trips may
// still dial more than the bound, they just don't all linger idle.
const maxIdleConnsPerPeer = 4

// config tunes the client's failure handling. NewClient sets only
// callTimeout; the zero value of any field selects its default.
type config struct {
	// callTimeout bounds one round trip (request sent, response read).
	// Default 5s. A context deadline shorter than this wins.
	callTimeout time.Duration
	// retryBase is the redial backoff after the first failure against a
	// peer. Default 25ms.
	retryBase time.Duration
	// retryMax caps the exponential redial backoff. Default 1s.
	retryMax time.Duration
	// suspectThreshold is the number of consecutive failed exchanges
	// after which a peer is reported down (protocol.ErrSiteDown) rather
	// than transiently unreachable (protocol.ErrTransient). Default 3.
	suspectThreshold int
}

func (c config) withDefaults() config {
	if c.callTimeout == 0 {
		c.callTimeout = 5 * time.Second
	}
	if c.retryBase == 0 {
		c.retryBase = 25 * time.Millisecond
	}
	if c.retryMax == 0 {
		c.retryMax = time.Second
	}
	if c.suspectThreshold == 0 {
		c.suspectThreshold = 3
	}
	return c
}

// Client is a protocol.Transport over TCP. It keeps a small pool of
// lazily dialed connections per peer so that concurrent round trips to
// the same peer proceed in parallel instead of queueing on one stream,
// and it reconnects transparently after failures. A per-peer suspect
// list distinguishes transient wire errors from fail-stop peers.
type Client struct {
	self protocol.SiteID
	cfg  config

	mu    sync.Mutex
	addrs map[protocol.SiteID]string
	pools map[protocol.SiteID]*peerPool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// peerPool holds a peer's idle connections (LIFO: the most recently
// used connection is the least likely to have gone stale) and the
// peer's failure-detector state.
type peerPool struct {
	addr string

	mu     sync.Mutex
	idle   []*wireConn
	closed bool

	// Failure detector: fails counts consecutive failed exchanges;
	// backoff/nextDialAt gate redials so a dead peer is probed, not
	// hammered. All reset on the first successful exchange.
	fails      int
	backoff    time.Duration
	nextDialAt time.Time
}

// get pops an idle connection, or returns nil when the caller must dial.
func (p *peerPool) get() *wireConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return w
	}
	return nil
}

// put returns a healthy connection to the pool, closing it instead when
// the pool is full or the client has shut down.
func (p *peerPool) put(w *wireConn) {
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdleConnsPerPeer {
		p.mu.Unlock()
		w.close()
		return
	}
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

// close drains the pool and marks it closed.
func (p *peerPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, w := range idle {
		w.close()
	}
}

// recordFault counts one failed exchange and arms the redial backoff.
// It reports the length of the failure streak and whether the peer is
// past the suspect threshold.
func (p *peerPool) recordFault(cfg config, jitter func(time.Duration) time.Duration) (fails int, down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	if p.backoff == 0 {
		p.backoff = cfg.retryBase
	} else if p.backoff < cfg.retryMax {
		p.backoff *= 2
		if p.backoff > cfg.retryMax {
			p.backoff = cfg.retryMax
		}
	}
	p.nextDialAt = time.Now().Add(jitter(p.backoff))
	return p.fails, p.fails >= cfg.suspectThreshold
}

// markDown records conclusive fail-stop evidence against the peer: it
// jumps the failure counter straight to the suspect threshold and arms
// the redial backoff.
func (p *peerPool) markDown(cfg config, jitter func(time.Duration) time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fails < cfg.suspectThreshold {
		p.fails = cfg.suspectThreshold
	}
	if p.backoff == 0 {
		p.backoff = cfg.retryBase
	}
	p.nextDialAt = time.Now().Add(jitter(p.backoff))
}

// recordSuccess clears the failure detector: the first successful
// exchange removes the peer from the suspect list.
func (p *peerPool) recordSuccess() {
	p.mu.Lock()
	p.fails = 0
	p.backoff = 0
	p.nextDialAt = time.Time{}
	p.mu.Unlock()
}

// dialGate reports whether a redial is currently gated by backoff, and
// whether the peer is suspected down. Gated calls fail fast without
// network activity and without counting as new evidence.
func (p *peerPool) dialGate(threshold int) (gated, down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Now().Before(p.nextDialAt), p.fails >= threshold
}

func (p *peerPool) suspected(threshold int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fails >= threshold
}

var _ protocol.Transport = (*Client)(nil)

// NewClient builds a transport for the given site talking to peers at
// the given addresses. timeout bounds each remote call (zero means 5s);
// the failure detector's other knobs take their defaults.
func NewClient(self protocol.SiteID, addrs map[protocol.SiteID]string, timeout time.Duration) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rpcnet: client needs peer addresses")
	}
	m := make(map[protocol.SiteID]string, len(addrs))
	for id, a := range addrs {
		m[id] = a
	}
	return &Client{
		self:  self,
		cfg:   config{callTimeout: timeout}.withDefaults(),
		addrs: m,
		pools: make(map[protocol.SiteID]*peerPool),
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// Suspected reports whether the failure detector currently considers
// the peer down (suspectThreshold consecutive failures, no success
// since).
func (c *Client) Suspected(id protocol.SiteID) bool {
	c.mu.Lock()
	p, ok := c.pools[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	return p.suspected(c.cfg.suspectThreshold)
}

// SuspectSet returns the set of peers currently suspected down.
func (c *Client) SuspectSet() protocol.SiteSet {
	c.mu.Lock()
	pools := make(map[protocol.SiteID]*peerPool, len(c.pools))
	for id, p := range c.pools {
		pools[id] = p
	}
	c.mu.Unlock()
	var s protocol.SiteSet
	for id, p := range pools {
		if p.suspected(c.cfg.suspectThreshold) {
			s = s.Add(id)
		}
	}
	return s
}

// jitter spreads a backoff over [d/2, d) so redials against a flapping
// peer do not synchronise.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)))
}

// Close drops all idle peer connections. Connections checked out by
// in-flight round trips are closed as they are returned.
func (c *Client) Close() error {
	c.mu.Lock()
	pools := make([]*peerPool, 0, len(c.pools))
	for id, p := range c.pools {
		pools = append(pools, p)
		delete(c.pools, id)
	}
	c.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return nil
}

func (c *Client) peer(to protocol.SiteID) (*peerPool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pools[to]
	if !ok {
		addr, ok := c.addrs[to]
		if !ok {
			return nil, fmt.Errorf("rpcnet: no address for %v: %w", to, protocol.ErrSiteDown)
		}
		p = &peerPool{addr: addr}
		c.pools[to] = p
	}
	return p, nil
}

// exchange runs one request/response on an established connection. On
// success the connection returns to the pool; on a wire error —
// including a response that is not a well-formed frame — it is closed.
func (c *Client) exchange(p *peerPool, w *wireConn, deadline time.Time, req protocol.Request, trace protocol.SpanContext) (reply, error) {
	w.conn.SetDeadline(deadline)
	frame, err := protocol.AppendRequest(w.beginFrame(), c.self, trace, req)
	if err == nil {
		err = w.sendFrame(frame)
	}
	if err != nil {
		w.close()
		return reply{}, fmt.Errorf("send: %w", err)
	}
	body, inPlace, err := w.readFrame()
	if err != nil {
		w.close()
		return reply{}, fmt.Errorf("receive: %w", err)
	}
	// A body in the connection's buffer is overwritten by the next
	// exchange, so its payloads are copied out; a body that needed its
	// own allocation is simply handed over to the response.
	var rep reply
	if rep.resp, rep.code, rep.text, err = protocol.DecodeResponse(body, !inPlace); err != nil {
		w.close()
		return reply{}, fmt.Errorf("receive: %w", err)
	}
	p.put(w)
	return rep, nil
}

// dial opens a fresh connection within the call's deadline, honoring
// the backoff gate: while a redial is gated the call fails fast —
// classified by the current suspicion — without touching the network or
// counting new evidence.
func (c *Client) dial(ctx context.Context, p *peerPool, to protocol.SiteID, deadline time.Time) (*wireConn, error) {
	if gated, down := p.dialGate(c.cfg.suspectThreshold); gated {
		if down {
			return nil, fmt.Errorf("rpcnet: %v suspected down, redial backed off: %w", to, protocol.ErrSiteDown)
		}
		return nil, fmt.Errorf("rpcnet: redial of %v backed off: %w", to, protocol.ErrTransient)
	}
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, c.fault(ctx, p, to, "dial", false, err)
	}
	return newWireConn(conn), nil
}

// fault classifies one failed dial or exchange. Context cancellation is
// the caller's doing, not evidence against the peer. A connection
// refusal is conclusive: the host answered and no process listens
// there — TCP's rendition of the §2 fail-stop signal — so the peer goes
// straight onto the suspect list. Everything else (timeouts, resets,
// EOF on an established stream) is ambiguous and feeds the failure
// detector, which answers ErrSiteDown at the suspect threshold and
// ErrTransient below it.
//
// severed marks a failure of an *established* exchange — the stream
// was accepted and then died mid-request, the signature of a peer
// crashing under load. Those additionally wrap protocol.ErrSevered: the
// request may have reached the peer, so the caller cannot tell whether
// it took effect. The severity classification (transient vs down) still
// feeds the detector exactly as for any other fault.
func (c *Client) fault(ctx context.Context, p *peerPool, to protocol.SiteID, op string, severed bool, cause error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("rpcnet: %s %v: %v: %w", op, to, cause, cerr)
	}
	if errors.Is(cause, syscall.ECONNREFUSED) {
		p.markDown(c.cfg, c.jitter)
		return fmt.Errorf("rpcnet: %s %v: %v: %w", op, to, cause, protocol.ErrSiteDown)
	}
	fails, down := p.recordFault(c.cfg, c.jitter)
	sev := ""
	tail := error(protocol.ErrTransient)
	if down {
		tail = protocol.ErrSiteDown
	}
	if severed {
		sev = " (severed mid-exchange)"
		if down {
			return fmt.Errorf("rpcnet: %s %v (%d consecutive failures)%s: %v: %w: %w", op, to, fails, sev, cause, protocol.ErrSevered, tail)
		}
		return fmt.Errorf("rpcnet: %s %v%s: %v: %w: %w", op, to, sev, cause, protocol.ErrSevered, tail)
	}
	if down {
		return fmt.Errorf("rpcnet: %s %v (%d consecutive failures): %v: %w", op, to, fails, cause, tail)
	}
	return fmt.Errorf("rpcnet: %s %v: %v: %w", op, to, cause, tail)
}

// roundTrip performs one request/response over a pooled (or freshly
// dialed) peer connection. Concurrent callers each get their own
// stream. A wire error on a *pooled* connection — which may simply have
// gone stale while idle — is retried once on a freshly dialed
// connection before it counts against the peer: requests are versioned
// and idempotent at the replica, so the possible duplicate delivery of
// the first attempt is harmless.
func (c *Client) roundTrip(ctx context.Context, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	p, err := c.peer(to)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("rpcnet: call to %v: %w", to, err)
	}
	deadline := time.Now().Add(c.cfg.callTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	trace := protocol.CtxSpan(ctx)
	var rep reply
	done := false
	if w := p.get(); w != nil {
		if rep, err = c.exchange(p, w, deadline, req, trace); err == nil {
			done = true
		}
		// On error: fall through to one fresh-dial retry.
	}
	if !done {
		w, err := c.dial(ctx, p, to, deadline)
		if err != nil {
			return nil, err
		}
		if rep, err = c.exchange(p, w, deadline, req, trace); err != nil {
			// The dial above succeeded, so this stream was established
			// and then broke: classify as severed.
			return nil, c.fault(ctx, p, to, "exchange with", true, err)
		}
	}
	p.recordSuccess()
	if err := decodeErr(rep.code, rep.text); err != nil {
		return nil, err
	}
	return rep.resp, nil
}

// Call implements protocol.Transport.
func (c *Client) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return c.roundTrip(ctx, to, req)
}

// Fetch implements protocol.Transport.
func (c *Client) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return c.roundTrip(ctx, to, req)
}

// Broadcast implements protocol.Transport. TCP has no multicast; the
// logical broadcast is one Call per destination, issued concurrently so
// the slowest peer bounds latency instead of the sum of all peers. A
// cancelled context stops the fan-out before any dialing; roundTrip
// re-checks per destination for a cancellation that races it.
func (c *Client) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return protocol.FanOut(ctx, from, dests, req, c)
}

// Notify implements protocol.Transport. The underlying TCP exchange
// still returns the handler result (reliable delivery needs the stream
// anyway), so errors are reported; semantically this matches simnet's
// Notify, which reports errors but charges no reply traffic.
func (c *Client) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return c.Broadcast(ctx, from, dests, req)
}
