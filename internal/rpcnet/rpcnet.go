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
// A broadcast sends to every pooled peer from the caller's goroutine
// and reads the replies in send order (DESIGN.md §7). A server
// connection serves one request at a time through its own buffers and
// span node, so a handler's ctx and payloads are valid only until
// Handle returns.
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
	"os"
	"sync"
	"syscall"
	"time"

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
		return fmt.Errorf("%s: %w", text, protocol.ErrRemote)
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
	// One span node per connection, re-pointed for each request: a
	// handler's ctx is valid only until Handle returns (protocol.Handler).
	var span protocol.SpanNode
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
			ctx = span.Attach(ctx, trace)
		}
		resp, err := s.handler.Handle(ctx, from, req)
		code, text := encodeErr(err)
		frame := protocol.AppendResponse(w.beginFrame(), resp, code, text)
		if err := checkFrameSize(frame); err != nil {
			// The answer is too large to travel. The stream itself is
			// fine, so say why in an error reply instead of dropping the
			// connection.
			frame = protocol.AppendResponse(w.beginFrame(), nil, errGeneric, err.Error())
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
	// pools holds one pool per peer with an address, built by NewClient
	// and never changed after: nil marks a site without an address.
	pools [protocol.MaxSites]*peerPool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// peerPool holds a peer's idle connections (LIFO: the most recently
// used connection is the least likely to have gone stale) and the
// peer's failure-detector state.
type peerPool struct {
	addr string
	// downErr and backoffErr fail a backed-off dial (backedOff), built
	// once so a leg to a dead peer allocates nothing.
	downErr, backoffErr error

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

// backedOff returns the error a dial fails with while the redial is
// gated by backoff, classified by whether the peer is suspected down, or
// nil when a dial may go ahead. Gated calls fail fast without network
// activity and without counting as new evidence.
func (p *peerPool) backedOff(threshold int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case !time.Now().Before(p.nextDialAt):
		return nil
	case p.fails >= threshold:
		return p.downErr
	}
	return p.backoffErr
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
	c := &Client{
		self: self,
		cfg:  config{callTimeout: timeout}.withDefaults(),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for id, addr := range addrs {
		if id < 0 || id >= protocol.MaxSites {
			return nil, fmt.Errorf("rpcnet: peer id %d outside [0, %d)", id, protocol.MaxSites)
		}
		c.pools[id] = &peerPool{
			addr:       addr,
			downErr:    fmt.Errorf("rpcnet: %v suspected down, redial backed off: %w", id, protocol.ErrSiteDown),
			backoffErr: fmt.Errorf("rpcnet: redial of %v backed off: %w", id, protocol.ErrTransient),
		}
	}
	return c, nil
}

// SuspectSet returns the set of peers the failure detector currently
// considers down (suspectThreshold consecutive failures, no success
// since).
func (c *Client) SuspectSet() protocol.SiteSet {
	var s protocol.SiteSet
	for id, p := range c.pools {
		if p != nil && p.suspected(c.cfg.suspectThreshold) {
			s = s.Add(protocol.SiteID(id))
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
	for _, p := range c.pools {
		if p != nil {
			p.close()
		}
	}
	return nil
}

func (c *Client) peer(to protocol.SiteID) (*peerPool, error) {
	if to < 0 || to >= protocol.MaxSites || c.pools[to] == nil {
		return nil, fmt.Errorf("rpcnet: no address for %v: %w", to, protocol.ErrSiteDown)
	}
	return c.pools[to], nil
}

// exchange runs one request/response on an established connection. On
// success the connection returns to the pool; on a wire error —
// including a response that is not a well-formed frame — it is closed.
func (c *Client) exchange(p *peerPool, w *wireConn, deadline time.Time, req protocol.Request, trace protocol.SpanContext) (reply, error) {
	w.conn.SetDeadline(deadline)
	if err := w.sendFrame(protocol.AppendRequest(w.beginFrame(), c.self, trace, req)); err != nil {
		w.close()
		return reply{}, fmt.Errorf("send: %w", err)
	}
	return receive(p, w)
}

// receive reads and decodes the reply to the request last sent on w,
// then returns w to the pool, or closes it on a wire error.
func receive(p *peerPool, w *wireConn) (reply, error) {
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
	if err := p.backedOff(c.cfg.suspectThreshold); err != nil {
		return nil, err
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

// deadline is when a round trip started now must end: one call timeout
// away, or the context's deadline if that is sooner.
func (c *Client) deadline(ctx context.Context) time.Time {
	deadline := time.Now().Add(c.cfg.callTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
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
	deadline, trace := c.deadline(ctx), protocol.CtxSpan(ctx)
	if w := p.get(); w != nil {
		if rep, err := c.exchange(p, w, deadline, req, trace); err == nil {
			return answer(p, rep)
		}
		// On error: fall through to one fresh-dial retry.
	}
	return c.redial(ctx, p, to, deadline, req, trace)
}

// redial runs the exchange on a freshly dialed connection.
func (c *Client) redial(ctx context.Context, p *peerPool, to protocol.SiteID, deadline time.Time, req protocol.Request, trace protocol.SpanContext) (protocol.Response, error) {
	w, err := c.dial(ctx, p, to, deadline)
	if err != nil {
		return nil, err
	}
	rep, err := c.exchange(p, w, deadline, req, trace)
	if err != nil {
		// The dial above succeeded, so this stream was established
		// and then broke: classify as severed.
		return nil, c.fault(ctx, p, to, "exchange with", true, err)
	}
	return answer(p, rep)
}

// answer clears the peer's suspicion after a completed exchange and
// returns the handler's result.
func answer(p *peerPool, rep reply) (protocol.Response, error) {
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

// replyGrace is how long a broadcast keeps reading after a leg timed
// out: a reply already in a later leg's socket is read, not failed and
// re-sent, though the round's deadline has passed.
const replyGrace = 10 * time.Millisecond

// A leg is one destination of a broadcast, and then its outcome.
type leg struct {
	to    protocol.SiteID
	w     *wireConn // the pooled stream the request went out on
	p     *peerPool
	async bool // the leg runs in the dialing
	t0    int64
	res   protocol.Result
	dur   int64
}

// dialing runs the legs of one broadcast that must dial, each on a
// goroutine of its own, so a dial that hangs delays no leg the caller
// reads.
type dialing struct {
	wg   sync.WaitGroup
	legs []leg
}

// start runs call as leg i of n, creating d on first use.
func (d *dialing) start(n, i int, rec protocol.PhaseRecorder, call func() (protocol.Response, error)) *dialing {
	if d == nil {
		d = &dialing{legs: make([]leg, n)}
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		l := &d.legs[i]
		l.t0 = now(rec)
		l.res.Resp, l.res.Err = call()
		l.dur = now(rec) - l.t0
	}()
	return d
}

func now(rec protocol.PhaseRecorder) int64 {
	if rec == nil {
		return 0
	}
	return rec.Now()
}

// Broadcast implements protocol.Transport. TCP has no multicast; the
// logical broadcast is one exchange per destination. A leg with an idle
// pooled stream runs on the caller's goroutine: the request is encoded
// once and written to each such stream under one deadline, then the
// replies are read in send order. The exchanges still overlap on the
// wire, so the slowest peer bounds the round, not the sum over peers.
// A leg with no pooled stream (first contact, after a failure) runs
// roundTrip in the dialing, and so does a stale stream's one retry on a
// fresh dial; while the peer's redial backs off, the leg fails at once.
// A leg whose reply misses the deadline is severed, not retried. A
// cancelled context stops the fan-out before any dialing. When ctx
// carries a PhaseRecorder, each leg's round trip and the straggler
// wait are charged to it as protocol.FanOut charges them; a pooled
// leg's round trip ends when its reply is read.
func (c *Client) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	var legs [protocol.MaxSites]leg
	n := 0
	for _, to := range dests {
		if to != from {
			legs[n].to = to
			n++
		}
	}
	out := make(map[protocol.SiteID]protocol.Result, n)
	if err := ctx.Err(); err != nil || n == 0 {
		for _, l := range legs[:n] {
			out[l.to] = protocol.Result{Err: err}
		}
		return out
	}
	rec, deadline, trace := protocol.CtxPhases(ctx), c.deadline(ctx), protocol.CtxSpan(ctx)
	var d *dialing
	retry := func(i int) { // a stale pooled stream: one fresh dial
		l := &legs[i]
		l.w.close()
		l.w, l.async = nil, true
		p, to := l.p, l.to
		d = d.start(n, i, rec, func() (protocol.Response, error) { return c.redial(ctx, p, to, deadline, req, trace) })
	}
	var frame []byte // encoded once, in the first stream's buffer
	for i := range legs[:n] {
		l := &legs[i]
		if p, err := c.peer(l.to); err == nil {
			l.p, l.w = p, p.get()
		}
		if l.w == nil {
			if l.p != nil {
				if l.res.Err = l.p.backedOff(c.cfg.suspectThreshold); l.res.Err != nil {
					continue // fails at once, as roundTrip would: no goroutine
				}
			}
			l.async = true
			to := l.to
			d = d.start(n, i, rec, func() (protocol.Response, error) { return c.roundTrip(ctx, to, req) })
			continue
		}
		l.w.conn.SetDeadline(deadline)
		var err error
		if frame == nil {
			frame = protocol.AppendRequest(l.w.beginFrame(), c.self, trace, req)
			if err = l.w.sendFrame(frame); err != nil {
				frame = nil
			}
		} else {
			_, err = l.w.conn.Write(frame)
		}
		if err != nil {
			retry(i)
			continue
		}
		l.t0 = now(rec)
	}
	var grace time.Time
	for i := range legs[:n] {
		l := &legs[i]
		if l.w == nil {
			continue
		}
		if !grace.IsZero() {
			l.w.conn.SetReadDeadline(grace)
		}
		rep, err := receive(l.p, l.w)
		switch {
		case err == nil:
			l.res.Resp, l.res.Err = answer(l.p, rep)
		case errors.Is(err, os.ErrDeadlineExceeded):
			// The request went out and no reply came: the outcome is
			// unknown, and the round's time is spent.
			l.res.Err = c.fault(ctx, l.p, l.to, "exchange with", true, err)
			if grace.IsZero() {
				grace = time.Now().Add(replyGrace)
			}
		default:
			retry(i)
			continue
		}
		l.dur = now(rec) - l.t0
	}
	if d != nil {
		d.wg.Wait()
	}
	max, second := int64(-1), int64(-1)
	for i := range legs[:n] {
		l := &legs[i]
		if l.async {
			l.res, l.dur = d.legs[i].res, d.legs[i].dur
		}
		out[l.to] = l.res
		if rec == nil {
			continue
		}
		rec.RecordPeerRTT(l.to, l.dur)
		switch {
		case l.dur > max:
			second, max = max, l.dur
		case l.dur > second:
			second = l.dur
		}
	}
	if rec != nil && n > 1 {
		rec.RecordPhase(protocol.PhaseStraggler, max-second)
	}
	return out
}

// Notify implements protocol.Transport. The underlying TCP exchange
// still returns the handler result (reliable delivery needs the stream
// anyway), so errors are reported; semantically this matches simnet's
// Notify, which reports errors but charges no reply traffic.
func (c *Client) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return c.Broadcast(ctx, from, dests, req)
}
