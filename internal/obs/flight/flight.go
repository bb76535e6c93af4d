// Package flight is the black-box recorder: when something goes wrong
// — a chaos invariant violation, a critical alert, an exhausted error
// budget, an explicit /debug/flight request — it seals a diagnostic
// dump of what the host already keeps: the newest steps of the tsdb
// ring, the tail of the trace ring and the host's own probes. It holds
// no history of its own, so between seals it costs nothing. The
// recorder is strictly an observer: it never feeds replay digests, and
// on a clock.Manual its dumps are deterministic given a deterministic
// workload (DESIGN.md "Alerts").
package flight

import (
	"fmt"
	"net/http"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/tsdb"
	"relidev/internal/protocol"
)

// What a dump keeps of each ring.
const (
	Steps       = 64 // newest tsdb samples
	TraceEvents = 64 // newest trace events
)

// A Source is one named probe of host state the registry does not
// carry (a failure detector's suspect set, a harness's site states),
// read when a dump is sealed. Collect returns a JSON-serialisable
// value; a source that needs determinism must return deterministically
// ordered data (sorted slices, not bare maps iterated into strings).
type Source struct {
	Name    string
	Collect func() any
}

// Suspects probes a failure detector's suspect set (e.g. the rpcnet
// client's SuspectSet), rendered via SiteSet's sorted String form.
func Suspects(fn func() protocol.SiteSet) Source {
	return Source{Name: "suspects", Collect: func() any { return fn().String() }}
}

// An Observation is one source's value, kept in an ordered list
// (registration order) rather than a map so dumps serialise identically
// run to run.
type Observation struct {
	Source string `json:"source"`
	Value  any    `json:"value"`
}

// A Dump is the artifact a trigger seals. Its JSON is byte-for-byte
// deterministic for deterministic contents (encoding/json sorts map
// keys; series, events and probes are ordered lists).
type Dump struct {
	Trigger    string `json:"trigger"`
	SealedAtNs int64  `json:"sealed_at_ns"`
	// Timeseries is the ring's newest Steps samples — every series'
	// deltas and levels leading up to the trigger.
	Steps      int              `json:"steps"`
	Timeseries tsdb.QueryResult `json:"timeseries"`
	// TraceTail is the newest TraceEvents trace events in schedule order
	// (obs.Tracer.Tail), one line each; absent with tracing off.
	TraceTail []string `json:"trace_tail,omitempty"`
	// Probes are the host's sources, read at the seal: how each got to
	// its state is in the timeseries (per-peer transport errors) and the
	// trace tail.
	Probes []Observation `json:"probes,omitempty"`
}

// A Recorder seals dumps over one ring, one tracer and a set of probes.
// Seal is safe for concurrent use and nil-safe, so wiring layers can
// thread an optional recorder without guards.
type Recorder struct {
	clk    clock.Clock
	db     *tsdb.DB
	tracer *obs.Tracer // nil with tracing off
	probes []Source
}

// New builds a recorder; clk stamps the seal (a *clock.Manual makes
// dumps replayable).
func New(clk clock.Clock, db *tsdb.DB, tracer *obs.Tracer, probes ...Source) *Recorder {
	return &Recorder{clk: clk, db: db, tracer: tracer, probes: probes}
}

// Seal builds a dump tagged with the trigger. It changes nothing: a
// later seal sees whatever the rings hold then. Keeping a trigger's
// dump is the caller's business (plane.Seal retains the first).
func (r *Recorder) Seal(trigger string) *Dump {
	if r == nil {
		return nil
	}
	d := &Dump{Trigger: trigger, SealedAtNs: r.clk.Now().UnixNano()}
	d.Timeseries, d.Steps = r.db.Tail(Steps)
	for _, e := range r.tracer.Tail(TraceEvents) {
		d.TraceTail = append(d.TraceTail, fmt.Sprintf("at=%d site=%d kind=%s op=%s block=%d %s",
			e.At, e.Site, e.Kind, e.Op, e.Block, e.Detail))
	}
	for _, src := range r.probes {
		d.Probes = append(d.Probes, Observation{Source: src.Name, Value: src.Collect()})
	}
	return d
}

// Handler serves the recorder at /debug/flight: each GET seals with
// trigger "http request" and returns the dump as JSON. A nil recorder
// answers 404.
func Handler(r *Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		obs.WriteJSON(w, http.StatusOK, r.Seal("http request"))
	}
}
