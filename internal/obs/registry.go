// Package obs is the reliable device's observability layer: a
// dependency-free registry of contention-free counters, gauges, and
// sharded latency histograms; a structured trace-event stream with an
// injectable clock; a metering protocol.Transport decorator; HTTP
// exposition (JSON, Prometheus text, pprof); and a conformance checker
// that holds the observed per-operation message counts against the §5
// analytical cost model (internal/analysis).
//
// Everything is nil-safe: a nil *Observer, *SchemeObs, *Counter, or
// *Tracer accepts every call as a no-op, so instrumented code paths
// carry no conditionals and an unobserved cluster pays (almost)
// nothing.
package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing metric, striped like a
// Histogram: an add goes to the shard of the adder's stack address, so
// clients on different cores bumping one series share no cache line,
// and Value sums the shards. The zero value is ready to use; a nil
// pointer discards updates.
type Counter struct {
	shards [histShards]struct {
		v atomic.Uint64
		_ [56]byte
	}
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.shards[shardIndex()].v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	var v uint64
	if c != nil {
		for i := range c.shards {
			v += c.shards[i].v.Load()
		}
	}
	return v
}

// A Gauge is a metric that can go up and down. The zero value is ready
// to use; a nil pointer discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Label is one key=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey renders name plus sorted labels into the canonical series
// identity, e.g. `relidev_ops_total{op="write",scheme="voting"}`.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	// The labels and the key are built on the stack, so the key string
	// is the one allocation.
	var lbuf [8]Label
	sorted := append(lbuf[:0], labels...)
	slices.SortFunc(sorted, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	var kbuf [256]byte
	b := append(append(kbuf[:0], name...), '{')
	for i, l := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(append(b, l.Key...), '='), l.Value)
	}
	return string(append(b, '}'))
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// A series is one metric series of handle type H. Its label map is
// built once and shared with every snapshot point of the series, so
// nothing may write to a point's Labels.
type series[H any] struct {
	key, name string
	labels    map[string]string
	h         *H
}

// A family is the series of one metric kind, by canonical key and in
// key order — the order Snapshot emits, kept at insertion so a snapshot
// sorts nothing.
type family[H any] struct {
	byKey  map[string]*series[H]
	sorted []*series[H]
}

// get returns the handle of the series under key, creating it on first
// use. Caller holds the registry lock.
func (f *family[H]) get(key, name string, labels []Label) *H {
	s, ok := f.byKey[key]
	if !ok {
		s = &series[H]{key: key, name: name, labels: labelMap(labels), h: new(H)}
		if f.byKey == nil {
			f.byKey = make(map[string]*series[H])
		}
		f.byKey[key] = s
		i, _ := slices.BinarySearchFunc(f.sorted, key, func(s *series[H], k string) int { return strings.Compare(s.key, k) })
		f.sorted = slices.Insert(f.sorted, i, s)
	}
	return s.h
}

// A Registry holds metric series keyed by name and labels. Series
// creation takes a mutex; the returned Counter/Gauge/Histogram handles
// are lock-free, so hot paths resolve their series once (at controller
// or transport construction) and update through atomics only.
//
// A nil *Registry hands out nil handles, which discard updates.
type Registry struct {
	mu       sync.Mutex
	counters family[Counter]
	gauges   family[Gauge]
	hists    family[Histogram]
	// snapshots counts full reads of the registry, the unit a telemetry
	// step's cost is budgeted in.
	snapshots atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// Counter returns the counter series for name+labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters.get(key, name, labels)
}

// Gauge returns the gauge series for name+labels, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges.get(key, name, labels)
}

// Histogram returns the histogram series for name+labels, creating it
// on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists.get(key, name, labels)
}

// A CounterPoint is one counter series in a snapshot. Key, on every
// point kind, is the registry's canonical series key when the point
// came from Registry.Snapshot or MergeSnapshots and empty when it was
// decoded or built by hand; read it through KeyOf.
type CounterPoint struct {
	Key    string            `json:"-"`
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// A GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Key    string            `json:"-"`
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// A HistogramPoint is one histogram series in a snapshot, with
// per-bucket (non-cumulative) counts merged across shards.
type HistogramPoint struct {
	Key    string            `json:"-"`
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    uint64            `json:"sum_ns"`
	// Buckets lists only non-empty buckets.
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Quantiles summarises the latency distribution at p50/p95/p99,
	// estimated by rank interpolation inside the exponential buckets.
	Quantiles []QuantileValue `json:"quantiles,omitempty"`
}

// A QuantileValue is one estimated quantile of a histogram series.
type QuantileValue struct {
	Q       float64 `json:"q"`
	ValueNs float64 `json:"value_ns"`
}

// Mean returns the average observation in nanoseconds.
func (h HistogramPoint) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// snapshotQuantiles is the summary set attached to every histogram
// point in a snapshot.
var snapshotQuantiles = []float64{0.5, 0.95, 0.99}

// Quantile estimates the q-th quantile (0 < q <= 1) in nanoseconds by
// locating the bucket holding the target rank and interpolating
// linearly inside it. The overflow bucket has no upper bound, so ranks
// landing there report its lower bound. Returns 0 for an empty series.
func (h HistogramPoint) Quantile(q float64) float64 {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for _, b := range h.Buckets {
		prev := cum
		cum += float64(b.Count)
		if cum < rank {
			continue
		}
		lower, upper := bucketBounds(b.UpperNs)
		if upper < 0 {
			return lower // overflow bucket: no finite upper bound
		}
		frac := (rank - prev) / float64(b.Count)
		return lower + frac*(upper-lower)
	}
	if n := len(h.Buckets); n > 0 {
		lower, upper := bucketBounds(h.Buckets[n-1].UpperNs)
		if upper >= 0 {
			return upper
		}
		return lower
	}
	return 0
}

// bucketBounds recovers a bucket's (lower, upper] bounds from its
// snapshot upper bound; the overflow bucket (-1) reports upper = -1
// and the largest finite bound as lower.
func bucketBounds(upperNs int64) (lower, upper float64) {
	if upperNs < 0 {
		return float64(int64(bucketBase) << uint(histBuckets-2)), -1
	}
	if upperNs <= bucketBase {
		return 0, bucketBase
	}
	return float64(upperNs) / 2, float64(upperNs)
}

// A Snapshot is a point-in-time copy of a registry, ordered by series
// identity so JSON output is deterministic. Counters advance
// independently, so a snapshot taken while operations are in flight
// may split an operation's updates; quiesce for exact cross-series
// arithmetic.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot copies every series out of the registry.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.snapshots.Add(1)
	r.mu.Lock()
	counters := slices.Clone(r.counters.sorted)
	gauges := slices.Clone(r.gauges.sorted)
	hists := slices.Clone(r.hists.sorted)
	r.mu.Unlock()

	// Grow keeps an empty kind nil, which is what the JSON goldens hold.
	snap.Counters = slices.Grow(snap.Counters, len(counters))
	snap.Gauges = slices.Grow(snap.Gauges, len(gauges))
	snap.Histograms = slices.Grow(snap.Histograms, len(hists))
	for _, s := range counters {
		snap.Counters = append(snap.Counters, CounterPoint{Key: s.key, Name: s.name, Labels: s.labels, Value: s.h.Value()})
	}
	for _, s := range gauges {
		snap.Gauges = append(snap.Gauges, GaugePoint{Key: s.key, Name: s.name, Labels: s.labels, Value: s.h.Value()})
	}
	for _, s := range hists {
		p := s.h.snapshotPoint()
		p.Key, p.Name, p.Labels = s.key, s.name, s.labels
		if p.Count > 0 {
			for _, q := range snapshotQuantiles {
				p.Quantiles = append(p.Quantiles, QuantileValue{Q: q, ValueNs: p.Quantile(q)})
			}
		}
		snap.Histograms = append(snap.Histograms, p)
	}
	return snap
}

// Snapshots returns how many times Snapshot has read the registry.
func (r *Registry) Snapshots() uint64 { return r.snapshots.Load() }

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// CounterTotal sums every counter series called name whose labels
// include all of match.
func (s Snapshot) CounterTotal(name string, match ...Label) uint64 {
	var total uint64
	for _, p := range s.Counters {
		if p.Name != name || !labelsMatch(p.Labels, match) {
			continue
		}
		total += p.Value
	}
	return total
}

func labelsMatch(have map[string]string, want []Label) bool {
	for _, l := range want {
		if have[l.Key] != l.Value {
			return false
		}
	}
	return true
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). Counter and gauge series map
// directly; histograms emit cumulative _bucket/_sum/_count series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, p := range s.Counters {
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(p.Name, p.Labels, nil), p.Value); err != nil {
			return err
		}
	}
	for _, p := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(p.Name, p.Labels, nil), p.Value); err != nil {
			return err
		}
	}
	for _, p := range s.Histograms {
		// Buckets snapshots list only non-empty buckets, so the
		// mandatory +Inf bucket must be synthesised whenever the
		// overflow bucket recorded nothing: the exposition format
		// requires a cumulative le="+Inf" series equal to _count on
		// every histogram (scrapers reject it otherwise).
		var cum uint64
		sawInf := false
		for _, b := range p.Buckets {
			cum += b.Count
			le := fmt.Sprintf("%g", float64(b.UpperNs))
			if b.UpperNs < 0 {
				le = "+Inf"
				sawInf = true
				cum = p.Count // overflow closes the distribution
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(p.Name+"_bucket", p.Labels, &le), cum); err != nil {
				return err
			}
		}
		if !sawInf {
			le := "+Inf"
			if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(p.Name+"_bucket", p.Labels, &le), p.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(p.Name+"_sum", p.Labels, nil), p.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", promSeries(p.Name+"_count", p.Labels, nil), p.Count); err != nil {
			return err
		}
	}
	return nil
}

// promSeries renders name{k="v",...} with sorted label keys, adding an
// le label when given.
func promSeries(name string, labels map[string]string, le *string) string {
	keys := make([]string, 0, len(labels)+1)
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if le != nil {
		keys = append(keys, "le")
	}
	if len(keys) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := labels[k]
		if le != nil && k == "le" && i == len(keys)-1 {
			v = *le
		}
		fmt.Fprintf(&b, "%s=%q", k, v)
	}
	b.WriteByte('}')
	return b.String()
}
