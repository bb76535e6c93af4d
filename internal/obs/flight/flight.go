// Package flight implements a black-box flight recorder: a bounded
// in-memory ring of periodic system snapshots (metrics deltas, trace
// tail, suspect lists, repair lag, batcher occupancy) that is sealed
// into a diagnostic dump when something goes wrong — a chaos invariant
// violation, an SLO breach from the health engine, or an explicit
// /debug/flight request. The recorder is strictly an observer: it
// never feeds replay digests, and on a clock.Manual its dumps are
// deterministic given a deterministic workload (DESIGN.md §15).
package flight

import (
	"net/http"
	"sync"

	"relidev/internal/clock"
	"relidev/internal/obs"
)

// A Source is one named probe collected into every frame. Collect
// returns a JSON-serialisable value; sources that need determinism
// must return deterministically ordered data (sorted slices, not
// bare maps iterated into strings).
type Source struct {
	Name    string
	Collect func() any
}

// An Observation is one source's value inside a frame, kept as an
// ordered list (registration order) rather than a map so frames
// serialise identically run to run.
type Observation struct {
	Source string `json:"source"`
	Value  any    `json:"value"`
}

// A Frame is one snapshot of every source at a single instant.
type Frame struct {
	Seq          int64         `json:"seq"`
	AtNs         int64         `json:"at_ns"`
	Reason       string        `json:"reason"`
	Observations []Observation `json:"observations"`
}

// A Dump is a sealed copy of the recorder's ring: the artifact written
// out when a trigger fires. Frames are ordered oldest first. Its JSON is
// byte-for-byte deterministic for deterministic frames (encoding/json
// sorts map keys; frame observations are ordered lists).
type Dump struct {
	Trigger    string  `json:"trigger"`
	SealedAtNs int64   `json:"sealed_at_ns"`
	Dropped    int64   `json:"dropped_frames"`
	Frames     []Frame `json:"frames"`
}

// A Recorder keeps the last capacity frames in a ring and seals them
// into Dumps on demand. All methods are safe for concurrent use and
// no-ops on a nil receiver, so wiring layers can thread an optional
// recorder without guards.
type Recorder struct {
	// collect serialises Snapshot: frames come from a poller and from
	// HTTP handlers at once, sources may keep state between frames
	// (MetricsDelta), and ring order must be collection order.
	collect sync.Mutex

	mu      sync.Mutex // the ring
	clk     clock.Clock
	cap     int
	sources []Source

	seq     int64
	dropped int64
	frames  []Frame // ring storage
	head    int     // index of the oldest frame
	count   int
}

// New builds a recorder over the given sources. clk is the frame
// timestamp source (a *clock.Manual makes dumps replayable);
// capacity bounds the ring (minimum 1).
func New(clk clock.Clock, capacity int, sources ...Source) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{
		clk:     clk,
		cap:     capacity,
		sources: sources,
		frames:  make([]Frame, capacity),
	}
}

// Snapshot collects every source into a new frame tagged with reason
// ("checkpoint", "health", ...). When the ring is full the oldest
// frame is evicted and counted in the next dump's Dropped.
func (r *Recorder) Snapshot(reason string) {
	if r == nil {
		return
	}
	r.collect.Lock()
	defer r.collect.Unlock()
	// Collect outside the ring lock: sources take registry or tracer
	// locks of their own, and a seal must not wait for them.
	obs := make([]Observation, len(r.sources))
	for i, src := range r.sources {
		obs[i] = Observation{Source: src.Name, Value: src.Collect()}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	f := Frame{Seq: r.seq, AtNs: r.clk.Now().UnixNano(), Reason: reason, Observations: obs}
	if r.count < r.cap {
		r.frames[(r.head+r.count)%r.cap] = f
		r.count++
		return
	}
	r.frames[r.head] = f
	r.head = (r.head + 1) % r.cap
	r.dropped++
}

// Seal copies the ring into a Dump tagged with the trigger, without
// clearing it — later frames keep accumulating and a later seal sees
// them. Keeping a trigger's dump is the caller's business (plane.Seal
// retains the first).
func (r *Recorder) Seal(trigger string) *Dump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d := &Dump{
		Trigger:    trigger,
		SealedAtNs: r.clk.Now().UnixNano(),
		Dropped:    r.dropped,
		Frames:     make([]Frame, r.count),
	}
	for i := 0; i < r.count; i++ {
		d.Frames[i] = r.frames[(r.head+i)%r.cap]
	}
	return d
}

// Len reports how many frames the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Handler serves the recorder at /debug/flight: each GET snapshots
// once more (reason "http"), seals with trigger "http request", and
// returns the dump as JSON. A nil recorder answers 404.
func Handler(r *Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		r.Snapshot("http")
		obs.WriteJSON(w, http.StatusOK, r.Seal("http request"))
	}
}
