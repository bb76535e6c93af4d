package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"relidev/internal/clock"
	"relidev/internal/protocol"
)

// Trace event kinds. Each names the protocol moment it records; the
// paper quantity every kind observes is tabulated in DESIGN.md §10.
const (
	// EvOpStart / EvOpEnd bracket one controller operation (an §5
	// cost-table row: write, read, or recovery).
	EvOpStart = "op_start"
	EvOpEnd   = "op_end"
	// EvQuorumAssembled records a voting quorum collection (Figures 3
	// and 4): how many sites answered and the weight gathered.
	EvQuorumAssembled = "quorum_assembled"
	// EvVersionResolved records the version-resolution step: the
	// maximal version among the collected votes (the MCV rule).
	EvVersionResolved = "version_resolved"
	// EvLazyRefresh records a voting read repairing a stale local copy
	// with one block fetch (§5.1's "at most U_V+1" read).
	EvLazyRefresh = "lazy_refresh"
	// EvWTransition records a change of a site's was-available set W_s
	// (§3.2): coordinator resets, piggyback merges, recovery joins.
	EvWTransition = "w_transition"
	// EvClosureRecomputed records an available copy recovery evaluating
	// the closure C*(W_s) (Figure 5 / Definition 3.2).
	EvClosureRecomputed = "closure_recomputed"
	// EvRPC records the client side of one remote call: a child span the
	// metering transport opens under the operation span before the
	// request leaves the site.
	EvRPC = "rpc"
	// EvHandle records the server side: the remote replica serving a
	// request under the caller's wire-propagated span context.
	EvHandle = "handle"
	// EvPhase records one critical-path phase of a closed operation
	// span (DESIGN.md §15): a child span whose Detail carries
	// "phase=<name> dur_ns=<n>". Emitted at op close, so the phase
	// spans of an op sit under its op span in the stitched tree.
	EvPhase = "phase"
)

// An Event is one structured trace record. Block is -1 when the event
// is not about a particular block.
//
// TraceID/SpanID/ParentID place the event in a cluster-wide span tree
// (zero when tracing is off or the caller is untraced): every event of
// one span shares a SpanID, the root span's SpanID doubles as the
// TraceID, and ParentID names the span one level up — on a remote site
// that parent lives in another process's ring, linked via the span
// context carried by the wire (rpcnet) or the shared context (simnet).
type Event struct {
	Seq      uint64 `json:"seq"`
	At       int64  `json:"at_ns"`
	TraceID  uint64 `json:"trace_id,omitempty"`
	SpanID   uint64 `json:"span_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	Site     int    `json:"site"`
	Op       string `json:"op,omitempty"`
	Kind     string `json:"kind"`
	Block    int64  `json:"block"`
	Detail   string `json:"detail,omitempty"`
	// Lane is peer+1 on events a site may emit from several goroutines
	// at once, one per peer (round-trip rpc spans), and 0 on its
	// sequential path; Tail puts a concurrent section in lane order
	// instead of scheduler order.
	Lane int `json:"-"`
	// d holds Detail as fields, set by this package's hot-path emitters
	// instead of Detail; Events renders it.
	d detail
}

// A detail is an event's Detail as the ring keeps it: a form plus up to
// two integers and two strings that already exist (a request kind, a
// phase name, an error class). Events, the ring's only reader, renders
// the text, so an operation pays a ring write per event and nobody
// formats a string that is never read.
type detail struct {
	form detailForm
	a, b int64
	s, t string // t, when set, is an error class appended as " err=<t>"
}

type detailForm uint8

const (
	detailText detailForm = iota // Event.Detail, as emitted
	detailHandle
	detailErr
	detailParticipants
	detailQuorum
	detailVersion
	detailRefresh
	detailPhase
	detailRPC // + the MeteredTransport method index
)

// detailFormats is the text of each form: [1] and [2] are a and b, [3]
// is s, [4] is a as a site, [5] is b unsigned (a version).
var detailFormats = [...]string{
	detailHandle:           "req=%[3]s from=%[4]v",
	detailErr:              "err=%[3]s",
	detailParticipants:     "participants=%[1]d",
	detailQuorum:           "participants=%[1]d weight=%[2]d",
	detailVersion:          "version=%[5]d",
	detailRefresh:          "from=%[4]v version=%[5]d",
	detailPhase:            "phase=%[3]s dur_ns=%[1]d",
	detailRPC + mCall:      "call to=%[4]v req=%[3]s",
	detailRPC + mFetch:     "fetch to=%[4]v req=%[3]s",
	detailRPC + mBroadcast: "broadcast dests=%[1]d req=%[3]s",
	detailRPC + mNotify:    "notify dests=%[1]d req=%[3]s",
}

// render returns the Detail text of an event emitted with d.
func (d detail) render(text string) string {
	if d.form != detailText {
		text = fmt.Sprintf(detailFormats[d.form], d.a, d.b, d.s, protocol.SiteID(d.a), uint64(d.b))
	}
	if d.t != "" {
		text += " err=" + d.t
	}
	return text
}

// A Tracer collects events into a bounded ring buffer; when full, the
// oldest events are overwritten (Dropped counts them). Timestamps come
// from the injected clock and sequence numbers from an atomic counter,
// so on a clock.Manual each site's own events are deterministic; only
// the ring order (and Seq) of concurrently emitting sites is the
// scheduler's, which a stable sort by (At, Site) removes — and the
// ring never feeds replay digests. A nil *Tracer discards events.
type Tracer struct {
	clock clock.Clock
	seq   atomic.Uint64

	mu      sync.Mutex
	ring    []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewTracer returns a tracer holding the last capacity events
// (capacity <= 0 means 4096), stamped by clk.
func NewTracer(capacity int, clk clock.Clock) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{clock: clk, ring: make([]Event, capacity)}
}

// Emit records one event, filling Seq and At.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	e.At = t.clock.Now().UnixNano()
	t.mu.Lock()
	e.Seq = t.seq.Add(1) // under the lock, so ring order is Seq order
	if t.wrapped {
		t.dropped++
	}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next, t.wrapped = 0, true
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first, with Detail
// rendered.
func (t *Tracer) Events() []Event {
	return rendered(t.retained())
}

// retained copies the ring, oldest first, Detail still unrendered.
func (t *Tracer) retained() []Event {
	if t == nil {
		return nil
	}
	// Copy under the lock, render outside it: emitters never wait for a
	// formatter.
	t.mu.Lock()
	defer t.mu.Unlock()
	var older []Event
	if t.wrapped {
		older = t.ring[t.next:]
	}
	return append(append(make([]Event, 0, len(older)+t.next), older...), t.ring[:t.next]...)
}

func rendered(evs []Event) []Event {
	for i := range evs {
		e := &evs[i]
		e.Detail, e.d = e.d.render(e.Detail), detail{}
	}
	return evs
}

// Tail returns the last n retained events in schedule order, rendered.
// The ring holds concurrent emitters' events in scheduler order, so the
// tail is taken after a stable sort by (At, Site) — the merge of
// per-site logs that ClusterTraces implies for separate processes,
// which keeps each site's own order — and, within one site and instant,
// each run of consecutive per-peer lane events (round trips issued
// from several goroutines) is put in peer order. On a clock.Manual the
// result is then replayable; only the n events kept are rendered.
func (t *Tracer) Tail(n int) []Event {
	evs := t.retained()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		return evs[i].Site < evs[j].Site
	})
	for i := 0; i < len(evs); i++ {
		j := i
		for j < len(evs) && evs[j].Lane != 0 && evs[j].At == evs[i].At && evs[j].Site == evs[i].Site {
			j++
		}
		if run := evs[i:j]; len(run) > 1 {
			sort.SliceStable(run, func(a, b int) bool { return run[a].Lane < run[b].Lane })
			i = j - 1
		}
	}
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return rendered(evs)
}

// Dropped returns how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
