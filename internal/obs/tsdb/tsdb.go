// Package tsdb is the telemetry plane's time dimension (DESIGN.md
// §16): a fixed-step, bounded-memory time-series ring over an obs
// registry. Every sample reads the registry through an injected
// source, stamps it with the injected clock.Clock, and stores only the
// per-series deltas since the previous sample — counters and histogram
// totals are cumulative, so delta encoding keeps a frame proportional
// to the series that actually moved, and any trailing window
// reconstructs exactly by summing deltas.
//
// The package never reads the wall clock and never ranges a map into
// its output: sampling rides the caller's clock (the chaos harness
// drives it from its clock.Manual, so replays are bit-identical) and
// every emission walks the series table in insertion order or sorts
// first. Memory is bounded by retain × live series.
package tsdb

import (
	"sync"

	"relidev/internal/clock"
	"relidev/internal/obs"
)

// Series kinds.
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindHist    = "histogram"
)

// Config parameterises a DB.
type Config struct {
	// Clock stamps samples; required (chaos injects its clock.Manual,
	// live servers pass the observer's clock).
	Clock clock.Clock
	// Source reads the registry being retained (typically
	// Observer.Snapshot or Registry.Snapshot).
	Source func() obs.Snapshot
	// StepNs is the nominal sampling step: the cadence the caller
	// promises to drive Sample at, and the default resolution served by
	// Query. The DB records whatever timestamps the clock yields, so a
	// jittery caller degrades resolution, never correctness. Zero is a
	// ring with no cadence, sampled whenever somebody wants to read it.
	StepNs int64
	// Retain bounds the ring: at most Retain samples are kept, oldest
	// evicted first.
	Retain int
}

// A DB is the bounded time-series ring. All methods are safe for
// concurrent use.
type DB struct {
	mu     sync.Mutex
	clock  clock.Clock
	source func() obs.Snapshot
	stepNs int64

	// series is the append-only series table; frames reference series
	// by index. index maps the canonical series key to its table slot.
	series []seriesInfo
	index  map[string]int

	// prev holds each series' cumulative totals at the last sample, so
	// the next sample stores deltas. Indexed like series.
	prevCounter []uint64
	prevHist    []histTotals

	frames []frame // ring of len Retain
	head   int     // next write slot
	count  int     // live frames
}

type seriesInfo struct {
	key    string
	name   string
	labels map[string]string
	kind   string
}

type histTotals struct {
	count, sum uint64
	buckets    map[int64]uint64
}

// A frame is one delta-encoded sample. Entries are ordered by series
// id, so replaying frames is deterministic.
type frame struct {
	atNs     int64
	counters []delta
	gauges   []gaugeVal
	hists    []histDelta
}

type delta struct {
	id int
	d  uint64
}

type gaugeVal struct {
	id int
	v  int64
}

type histDelta struct {
	id           int
	dCount, dSum uint64
	dBuckets     []obs.BucketCount
}

// New builds an empty DB. Nil clock or source, a negative step, or a
// non-positive retention yield a DB that records nothing (Sample is a
// no-op), so a disabled telemetry plane costs one nil check.
func New(cfg Config) *DB {
	if cfg.Clock == nil || cfg.Source == nil || cfg.StepNs < 0 || cfg.Retain <= 0 {
		return &DB{}
	}
	return &DB{
		clock:  cfg.Clock,
		source: cfg.Source,
		stepNs: cfg.StepNs,
		index:  make(map[string]int),
		frames: make([]frame, cfg.Retain),
	}
}

// StepNs returns the nominal sampling step (0 for a disabled DB).
func (db *DB) StepNs() int64 {
	if db == nil {
		return 0
	}
	return db.stepNs
}

// sid resolves, interning on first sight, a series' slot under its key.
func (db *DB) sid(key, name string, labels map[string]string, kind string) int {
	key = obs.KeyOf(key, name, labels)
	if id, ok := db.index[key]; ok {
		return id
	}
	id := len(db.series)
	db.series = append(db.series, seriesInfo{key: key, name: name, labels: labels, kind: kind})
	db.index[key] = id
	db.prevCounter = append(db.prevCounter, 0)
	db.prevHist = append(db.prevHist, histTotals{})
	return id
}

// Sample reads the source registry, stamps it with the clock, and
// appends one delta-encoded frame, evicting the oldest when the ring is
// full; a no-op on a disabled DB. The caller owns the cadence (a
// server's poller, a chaos checkpoint, a GET on a host with neither).
// The source is read under the lock: a delta is against the previous
// sample, so overlapping samplers must commit in the order they read.
func (db *DB) Sample() {
	if db == nil || db.source == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	snap := db.source()
	f := frame{atNs: db.clock.Now().UnixNano()}
	for _, p := range snap.Counters {
		id := db.sid(p.Key, p.Name, p.Labels, KindCounter)
		if d := p.Value - db.prevCounter[id]; d != 0 {
			f.counters = append(f.counters, delta{id: id, d: d})
		}
		db.prevCounter[id] = p.Value
	}
	for _, p := range snap.Gauges {
		id := db.sid(p.Key, p.Name, p.Labels, KindGauge)
		f.gauges = append(f.gauges, gaugeVal{id: id, v: p.Value})
	}
	for _, p := range snap.Histograms {
		id := db.sid(p.Key, p.Name, p.Labels, KindHist)
		prev := &db.prevHist[id]
		hd := histDelta{id: id, dCount: p.Count - prev.count, dSum: p.Sum - prev.sum}
		if prev.buckets == nil {
			prev.buckets = make(map[int64]uint64)
		}
		for _, b := range p.Buckets {
			if d := b.Count - prev.buckets[b.UpperNs]; d != 0 {
				hd.dBuckets = append(hd.dBuckets, obs.BucketCount{UpperNs: b.UpperNs, Count: d})
			}
			prev.buckets[b.UpperNs] = b.Count
		}
		prev.count, prev.sum = p.Count, p.Sum
		if hd.dCount != 0 || hd.dSum != 0 {
			f.hists = append(f.hists, hd)
		}
	}
	db.frames[db.head] = f
	db.head = (db.head + 1) % len(db.frames)
	if db.count < len(db.frames) {
		db.count++
	}
}

// Newest, as a window, is the newest sample alone, picked by position:
// samples sharing its stamp (a clock.Manual nobody advanced) stay out.
const Newest int64 = 1

// at returns the i-th live frame, oldest first. Caller holds db.mu.
func (db *DB) at(i int) *frame {
	return &db.frames[(db.head-db.count+i+len(db.frames))%len(db.frames)]
}

// window returns the index range [from, db.count) of the live frames
// stamped in (toNs-windowNs, toNs], toNs being the newest frame's stamp;
// windowNs <= 0 is every live frame and Newest the last one. Frames are
// in time order, so it walks back from the newest to the boundary.
// Caller holds db.mu and reads the frames in place.
func (db *DB) window(windowNs int64) (from int) {
	switch {
	case windowNs <= 0 || db.count == 0:
		return 0
	case windowNs == Newest:
		return db.count - 1
	}
	from = db.count
	for cut := db.at(db.count-1).atNs - windowNs; from > 0 && db.at(from-1).atNs > cut; {
		from--
	}
	return from
}

// Len returns the number of retained samples.
func (db *DB) Len() int {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.count
}

// scan is every windowed query: under the lock it selects the series
// called name that carry every match label — once, by table slot, so
// the walk compares integers — and calls fn on each live frame of the
// trailing window, oldest first. A nil DB has none.
func (db *DB) scan(name string, windowNs int64, match []obs.Label, fn func(f *frame, sel []bool)) {
	if db == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	sel := make([]bool, len(db.series))
series:
	for id, s := range db.series {
		if s.name != name {
			continue
		}
		for _, l := range match {
			if s.labels[l.Key] != l.Value {
				continue series
			}
		}
		sel[id] = true
	}
	for i := db.window(windowNs); i < db.count; i++ {
		fn(db.at(i), sel)
	}
}

// WindowTotal sums the selected counter series' deltas over the
// trailing window (all retained samples when windowNs <= 0) — one side
// of an event ratio.
func (db *DB) WindowTotal(name string, windowNs int64, match ...obs.Label) (total uint64) {
	db.scan(name, windowNs, match, func(f *frame, sel []bool) {
		for _, d := range f.counters {
			if sel[d.id] {
				total += d.d
			}
		}
	})
	return total
}

// HistAbove counts, over the trailing window, the selected histogram
// series' observations that landed in buckets above thresholdNs, and
// all of them — the two sides of a latency objective.
func (db *DB) HistAbove(name string, thresholdNs, windowNs int64, match ...obs.Label) (above, count uint64) {
	db.scan(name, windowNs, match, func(f *frame, sel []bool) {
		for _, hd := range f.hists {
			if !sel[hd.id] {
				continue
			}
			count += hd.dCount
			above += hd.dCount
			for _, b := range hd.dBuckets {
				if b.UpperNs >= 0 && b.UpperNs <= thresholdNs {
					above -= b.Count
				}
			}
		}
	})
	return above, count
}

// GaugeMax returns the largest level any selected gauge series took
// over the trailing window and the labels of the series that took it;
// ok is false when the window holds no such series.
func (db *DB) GaugeMax(name string, windowNs int64, match ...obs.Label) (max int64, labels map[string]string, ok bool) {
	db.scan(name, windowNs, match, func(f *frame, sel []bool) {
		for _, g := range f.gauges {
			if sel[g.id] && (!ok || g.v > max) {
				max, labels, ok = g.v, db.series[g.id].labels, true
			}
		}
	})
	return max, labels, ok
}
