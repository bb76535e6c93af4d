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
	"sort"
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
	// jittery caller degrades resolution, never correctness.
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

// New builds an empty DB. Nil clock or source, a non-positive step, or
// a non-positive retention yield a DB that records nothing (Sample is
// a no-op), so a disabled telemetry plane costs one nil check.
func New(cfg Config) *DB {
	if cfg.Clock == nil || cfg.Source == nil || cfg.StepNs <= 0 || cfg.Retain <= 0 {
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

// sid resolves (interning on first sight) the table slot for a series.
func (db *DB) sid(name string, labels map[string]string, kind string) int {
	key := pointKey(name, labels)
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
// appends one delta-encoded frame, evicting the oldest frame when the
// ring is full. The caller owns the cadence (a poller on live servers,
// the checkpoint hook under chaos). No-op on a disabled DB.
func (db *DB) Sample() {
	if db == nil || db.source == nil {
		return
	}
	snap := db.source()
	db.mu.Lock()
	defer db.mu.Unlock()
	f := frame{atNs: db.clock.Now().UnixNano()}
	for _, p := range snap.Counters {
		id := db.sid(p.Name, p.Labels, KindCounter)
		if d := p.Value - db.prevCounter[id]; d != 0 {
			f.counters = append(f.counters, delta{id: id, d: d})
		}
		db.prevCounter[id] = p.Value
	}
	for _, p := range snap.Gauges {
		id := db.sid(p.Name, p.Labels, KindGauge)
		f.gauges = append(f.gauges, gaugeVal{id: id, v: p.Value})
	}
	for _, p := range snap.Histograms {
		id := db.sid(p.Name, p.Labels, KindHist)
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

// window returns the live frames whose timestamps fall in
// (toNs-windowNs, toNs], oldest first, where toNs is the newest
// frame's timestamp. Caller holds db.mu.
func (db *DB) windowLocked(windowNs int64) []frame {
	if db.count == 0 {
		return nil
	}
	out := make([]frame, 0, db.count)
	start := (db.head - db.count + len(db.frames)) % len(db.frames)
	newest := db.frames[(db.head-1+len(db.frames))%len(db.frames)].atNs
	for i := 0; i < db.count; i++ {
		f := db.frames[(start+i)%len(db.frames)]
		if windowNs > 0 && f.atNs <= newest-windowNs {
			continue
		}
		out = append(out, f)
	}
	return out
}

// LastNs returns the newest sample's timestamp, false when empty.
func (db *DB) LastNs() (int64, bool) {
	if db == nil {
		return 0, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.count == 0 {
		return 0, false
	}
	return db.frames[(db.head-1+len(db.frames))%len(db.frames)].atNs, true
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

// WindowTotal sums the deltas of every counter series called name
// whose labels include match, over the trailing window (all retained
// samples when windowNs <= 0) — the numerator of a burn-rate ratio.
func (db *DB) WindowTotal(name string, windowNs int64, match ...obs.Label) uint64 {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var total uint64
	for _, f := range db.windowLocked(windowNs) {
		for _, d := range f.counters {
			s := db.series[d.id]
			if s.name == name && labelsMatch(s.labels, match) {
				total += d.d
			}
		}
	}
	return total
}

// WindowHist merges the histogram deltas of every series called name
// whose labels include match, over the trailing window, into one
// distribution — windowed latency, ready for Quantile.
func (db *DB) WindowHist(name string, windowNs int64, match ...obs.Label) obs.HistogramPoint {
	if db == nil {
		return obs.HistogramPoint{Name: name}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	out := obs.HistogramPoint{Name: name}
	buckets := make(map[int64]uint64)
	for _, f := range db.windowLocked(windowNs) {
		for _, hd := range f.hists {
			s := db.series[hd.id]
			if s.name != name || !labelsMatch(s.labels, match) {
				continue
			}
			out.Count += hd.dCount
			out.Sum += hd.dSum
			for _, b := range hd.dBuckets {
				buckets[b.UpperNs] += b.Count
			}
		}
	}
	uppers := make([]int64, 0, len(buckets))
	for u := range buckets {
		uppers = append(uppers, u)
	}
	sort.Slice(uppers, func(i, j int) bool {
		if uppers[i] < 0 {
			return false
		}
		if uppers[j] < 0 {
			return true
		}
		return uppers[i] < uppers[j]
	})
	for _, u := range uppers {
		out.Buckets = append(out.Buckets, obs.BucketCount{UpperNs: u, Count: buckets[u]})
	}
	return out
}

// GaugeWindow returns the per-sample sums of every gauge series called
// name whose labels include match, over the trailing window, oldest
// first — a gauge's trajectory, for threshold-dwell checks.
func (db *DB) GaugeWindow(name string, windowNs int64, match ...obs.Label) []Point {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Point
	for _, f := range db.windowLocked(windowNs) {
		var v int64
		seen := false
		for _, g := range f.gauges {
			s := db.series[g.id]
			if s.name == name && labelsMatch(s.labels, match) {
				v += g.v
				seen = true
			}
		}
		if seen {
			out = append(out, Point{AtNs: f.atNs, Value: float64(v)})
		}
	}
	return out
}

// labelsMatch reports whether have includes every want label.
func labelsMatch(have map[string]string, want []obs.Label) bool {
	for _, l := range want {
		if have[l.Key] != l.Value {
			return false
		}
	}
	return true
}

// pointKey reconstructs the canonical series key from a label map
// (sorted keys, name{k="v",...}), matching the obs registry identity.
func pointKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ls := make([]obs.Label, 0, len(keys))
	for _, k := range keys {
		ls = append(ls, obs.L(k, labels[k]))
	}
	return obs.SeriesKey(name, ls)
}
