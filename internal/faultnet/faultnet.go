// Package faultnet is a fault-injecting protocol.Transport decorator.
//
// It wraps either transport of the reliable device — the in-process
// simulated network or the TCP client — and injects, from a seeded
// deterministic decision stream, the failures the paper's reliable
// network rules out but a real deployment must survive: lost requests,
// lost replies, call timeouts, added per-link latency, and partitions.
// Crashes are not among them: a site fails and restarts through the
// network it runs on (simnet's fail-stop SetUp, or a closed and reopened
// process over TCP), which is what a chaos schedule drives. The same
// seed replays the same faults bit-identically against the same
// workload, so a chaos scenario that finds a consistency violation is a
// reproducible test case, not an anecdote.
//
// Determinism. Every ordered link (from, to) owns an independent
// decision stream: the i-th remote call on a link draws its fate from
// splitmix64(seed, from, to, i). Concurrent calls on *different* links
// never perturb each other's streams, so a workload that issues a
// deterministic sequence of operations per link sees identical faults
// on every run, regardless of goroutine scheduling.
//
// Over the simulated network the decorator installs a simnet.FaultRule
// and forwards all traffic untouched: decisions then happen inside the
// fan-out, per destination, and the §5 transmission accounting of the
// enclosing broadcast stays exact; simnet runs the legs in order, so
// delays injected into one broadcast add up instead of overlapping.
// Over any other transport (rpcnet) broadcasts are decomposed into
// concurrent per-destination calls, as a TCP "broadcast" is anyway.
package faultnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/simnet"
)

// ErrInjected marks every error produced by the decorator, so tests and
// the chaos engine can tell injected faults from organic ones.
var ErrInjected = errors.New("faultnet: injected fault")

func init() {
	// Teach the metering transport to bucket injected faults. The
	// classifier must run before the protocol sentinel checks (which
	// obs guarantees for registered classifiers) because an injected
	// fault *wraps* a protocol sentinel, and the injection is the more
	// specific fact.
	obs.RegisterErrorClassifier(func(err error) (string, bool) {
		if errors.Is(err, ErrInjected) {
			return obs.ClassInjected, true
		}
		return "", false
	})
}

// Config parameterises the probabilistic fault classes. Probabilities
// are per remote call and are cut from the same unit draw, so their sum
// must stay <= 1.
type Config struct {
	// Seed selects the deterministic decision stream.
	Seed int64
	// DropProb loses the request: the destination never sees it.
	DropProb float64
	// ReplyLossProb delivers the request but loses the reply: the
	// destination acted, the caller cannot tell.
	ReplyLossProb float64
	// TimeoutProb fails the call as a timeout before delivery.
	TimeoutProb float64
	// LatencyProb delays the delivery by a deterministic duration drawn
	// from (0, MaxLatency].
	LatencyProb float64
	// MaxLatency bounds injected delays; zero with LatencyProb > 0
	// defaults to 200µs.
	MaxLatency time.Duration
	// NoDropKinds lists request kinds whose *delivery* is guaranteed:
	// the drop and timeout classes skip them, while reply loss and
	// latency still apply. The voting chaos menu exempts "put" —
	// Gifford-style voting assumes an accepted update reaches its whole
	// quorum, and a silently dropped put leaves a sub-quorum install
	// that can alias version numbers with a later write. Losing the
	// *acknowledgement* is fair game: the coordinator then reports the
	// write indeterminate, which the scheme is built to survive.
	NoDropKinds []string
}

func (c Config) validate() error {
	for _, p := range []float64{c.DropProb, c.ReplyLossProb, c.TimeoutProb, c.LatencyProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faultnet: probability %v out of [0,1]", p)
		}
	}
	if s := c.DropProb + c.ReplyLossProb + c.TimeoutProb + c.LatencyProb; s > 1 {
		return fmt.Errorf("faultnet: fault probabilities sum to %v > 1", s)
	}
	return nil
}

// Stats counts injected faults by class.
type Stats struct {
	Drops       uint64
	ReplyLosses uint64
	Timeouts    uint64
	Delays      uint64
	Partitions  uint64
}

// Total returns the number of injected fault events (delays included).
func (s Stats) Total() uint64 {
	return s.Drops + s.ReplyLosses + s.Timeouts + s.Delays + s.Partitions
}

// ruleHost is implemented by transports (simnet) that accept an
// in-fan-out fault rule.
type ruleHost interface {
	SetFaultRule(simnet.FaultRule)
}

type linkKey struct {
	from, to protocol.SiteID
}

// Network is the decorating transport.
type Network struct {
	inner    protocol.Transport
	cfg      Config
	ruleMode bool

	mu       sync.Mutex
	seq      map[linkKey]uint64
	groups   map[protocol.SiteID]int
	noDrops  map[string]bool
	disabled atomic.Bool

	drops       atomic.Uint64
	replyLosses atomic.Uint64
	timeouts    atomic.Uint64
	delays      atomic.Uint64
	partitions  atomic.Uint64
}

var _ protocol.Transport = (*Network)(nil)

// New wraps inner with fault injection. When inner accepts a fault rule
// (simnet), injection moves inside its delivery fan-out.
func New(inner protocol.Transport, cfg Config) (*Network, error) {
	if inner == nil {
		return nil, errors.New("faultnet: nil inner transport")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxLatency == 0 {
		cfg.MaxLatency = 200 * time.Microsecond
	}
	n := &Network{
		inner:   inner,
		cfg:     cfg,
		seq:     make(map[linkKey]uint64),
		groups:  make(map[protocol.SiteID]int),
		noDrops: make(map[string]bool, len(cfg.NoDropKinds)),
	}
	for _, k := range cfg.NoDropKinds {
		n.noDrops[k] = true
	}
	if host, ok := inner.(ruleHost); ok {
		n.ruleMode = true
		host.SetFaultRule(n.rule)
	}
	return n, nil
}

// SetInjection enables or disables the probabilistic fault classes.
// Partitions keep working either way. The chaos harness turns
// injection off for its final convergence phase: "the network
// eventually behaves" is exactly the paper's §6 condition for recovery
// to complete.
func (n *Network) SetInjection(enabled bool) {
	n.disabled.Store(!enabled)
}

// Stats returns a snapshot of the injected-fault counters.
func (n *Network) Stats() Stats {
	return Stats{
		Drops:       n.drops.Load(),
		ReplyLosses: n.replyLosses.Load(),
		Timeouts:    n.timeouts.Load(),
		Delays:      n.delays.Load(),
		Partitions:  n.partitions.Load(),
	}
}

// SetPartition places a site in a partition group; sites in different
// groups cannot exchange messages. Group 0 is the default.
func (n *Network) SetPartition(id protocol.SiteID, group int) {
	n.mu.Lock()
	if group == 0 {
		delete(n.groups, id)
	} else {
		n.groups[id] = group
	}
	n.mu.Unlock()
}

// Heal returns every site to partition group 0.
func (n *Network) Heal() {
	n.mu.Lock()
	n.groups = make(map[protocol.SiteID]int)
	n.mu.Unlock()
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality mix whose output stream for counter inputs passes
// statistical tests. Deterministic by construction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// draw advances the link's decision stream and returns two independent
// uniform variates: the class selector and the latency fraction.
func (n *Network) draw(from, to protocol.SiteID) (float64, float64) {
	k := linkKey{from, to}
	n.mu.Lock()
	i := n.seq[k]
	n.seq[k] = i + 1
	n.mu.Unlock()
	base := uint64(n.cfg.Seed) ^ uint64(from)<<40 ^ uint64(to)<<20 ^ i<<1
	return unit(splitmix64(base)), unit(splitmix64(base + 1))
}

// decide classifies one remote call. It checks the partition map first,
// then the probabilistic classes, and sleeps itself for injected
// latency. Kinds with guaranteed delivery have the drop and timeout
// classes remapped to plain delivery; the stream draw still advances,
// so exempting a kind does not shift other links' fates.
func (n *Network) decide(from, to protocol.SiteID, kind string) (simnet.FaultDecision, error) {
	n.mu.Lock()
	partitioned := n.groups[from] != n.groups[to]
	n.mu.Unlock()
	if partitioned {
		n.partitions.Add(1)
		return simnet.DropRequest, fmt.Errorf("%w: partition %v->%v: %w", ErrInjected, from, to, protocol.ErrSiteUnreachable)
	}
	if n.disabled.Load() {
		return simnet.Deliver, nil
	}
	u, v := n.draw(from, to)
	guaranteed := n.noDrops[kind]
	switch {
	case u < n.cfg.DropProb:
		if guaranteed {
			return simnet.Deliver, nil
		}
		n.drops.Add(1)
		return simnet.DropRequest, fmt.Errorf("%w: dropped request %v->%v: %w", ErrInjected, from, to, protocol.ErrTransient)
	case u < n.cfg.DropProb+n.cfg.ReplyLossProb:
		n.replyLosses.Add(1)
		return simnet.DropReply, fmt.Errorf("%w: lost reply %v->%v: %w", ErrInjected, from, to, protocol.ErrTransient)
	case u < n.cfg.DropProb+n.cfg.ReplyLossProb+n.cfg.TimeoutProb:
		if guaranteed {
			return simnet.Deliver, nil
		}
		n.timeouts.Add(1)
		return simnet.DropRequest, fmt.Errorf("%w: call timeout %v->%v: %w", ErrInjected, from, to, protocol.ErrTransient)
	case u < n.cfg.DropProb+n.cfg.ReplyLossProb+n.cfg.TimeoutProb+n.cfg.LatencyProb:
		n.delays.Add(1)
		d := time.Duration(v * float64(n.cfg.MaxLatency))
		if d > 0 {
			//relidev:allow nondeterminism: the *duration* is drawn from the seeded per-link stream; the sleep only paces real goroutines and never feeds the replay digest
			time.Sleep(d)
		}
		return simnet.Deliver, nil
	default:
		return simnet.Deliver, nil
	}
}

// rule adapts decide to the simnet fault-rule signature.
func (n *Network) rule(from, to protocol.SiteID, req protocol.Request) (simnet.FaultDecision, error) {
	return n.decide(from, to, req.Kind())
}

// roundTrip decides one Call or Fetch's fate (wrap mode only: in rule
// mode the inner transport asks per delivery) and forwards it.
func (n *Network) roundTrip(ctx context.Context, from, to protocol.SiteID, req protocol.Request,
	do func(context.Context, protocol.SiteID, protocol.SiteID, protocol.Request) (protocol.Response, error)) (protocol.Response, error) {
	if n.ruleMode || from == to {
		return do(ctx, from, to, req)
	}
	dec, ferr := n.decide(from, to, req.Kind())
	if dec == simnet.DropRequest {
		return nil, ferr
	}
	resp, err := do(ctx, from, to, req)
	if dec == simnet.DropReply {
		return nil, ferr
	}
	return resp, err
}

// Call implements protocol.Transport.
func (n *Network) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return n.roundTrip(ctx, from, to, req, n.inner.Call)
}

// Fetch implements protocol.Transport.
func (n *Network) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return n.roundTrip(ctx, from, to, req, n.inner.Fetch)
}

// Broadcast implements protocol.Transport. In rule mode the inner
// transport consults the decorator per destination; in wrap mode the
// broadcast decomposes into per-destination Calls so each destination
// gets its own fault decision.
func (n *Network) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	if n.ruleMode {
		return n.inner.Broadcast(ctx, from, dests, req)
	}
	return protocol.FanOut(ctx, from, dests, req, n)
}

// Notify implements protocol.Transport.
func (n *Network) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	if n.ruleMode {
		return n.inner.Notify(ctx, from, dests, req)
	}
	return protocol.FanOut(ctx, from, dests, req, n)
}
