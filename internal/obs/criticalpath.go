package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Critical-path analysis (DESIGN.md §15): fold the phase histograms
// into a per-scheme/op breakdown of where operation latency goes. A
// stitched tree's EvPhase spans carry the same partition for single
// traces; TestTreePhasesMatchRegistry and TestSpanPhases read them
// back. The top-level phases partition each op's wall time (lock wait
// + fanout + rpc + local == end-to-end, by construction of
// OpSpan.closePhases), so shares are exact, not sampled.

// A PhaseStat summarises one phase of one scheme/op aggregate.
type PhaseStat struct {
	Phase string `json:"phase"`
	// Sub marks re-sliced phases (straggler ⊂ fanout) that are excluded
	// from the partition sum.
	Sub     bool    `json:"sub,omitempty"`
	Count   uint64  `json:"count"`
	TotalNs uint64  `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P95Ns   float64 `json:"p95_ns"`
	P99Ns   float64 `json:"p99_ns"`
	// Share is this phase's fraction of the op aggregate's total wall
	// time (sub-phases report their share of the same total).
	Share float64 `json:"share"`
}

// An OpProfile is the critical-path breakdown of one scheme/op pair,
// merged across sites.
type OpProfile struct {
	Scheme  string  `json:"scheme"`
	Op      string  `json:"op"`
	Count   uint64  `json:"count"`
	TotalNs uint64  `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P95Ns   float64 `json:"p95_ns"`
	P99Ns   float64 `json:"p99_ns"`
	// PartitionNs sums the partition phases; Coverage is PartitionNs /
	// TotalNs — 1.0 up to clock quantisation for sequential ops, above
	// 1 for pipelined ops that overlap wire time.
	PartitionNs uint64      `json:"partition_ns"`
	Coverage    float64     `json:"coverage"`
	Phases      []PhaseStat `json:"phases"`
}

// A StorePhaseStat is one site's store-side phase aggregate (queue
// wait per batched request; apply/fsync per group-commit flush). Store
// phases sit beside the op partition: one fsync covers a whole batch,
// so charging it to each rider would double-count.
type StorePhaseStat struct {
	Site    string  `json:"site"`
	Phase   string  `json:"phase"`
	Count   uint64  `json:"count"`
	TotalNs uint64  `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
	P95Ns   float64 `json:"p95_ns"`
}

// A Profile is the full critical-path report served at /profile.
type Profile struct {
	Ops   []OpProfile      `json:"ops"`
	Store []StorePhaseStat `json:"store,omitempty"`
}

// CriticalPath folds the observer's registry into a Profile: per
// scheme/op latency and phase histograms merged across sites, plus the
// store-side phases. Nil observer yields an empty profile.
func (o *Observer) CriticalPath() *Profile {
	if o == nil {
		return &Profile{}
	}
	return CriticalPathOf(o.Snapshot())
}

// CriticalPathOf builds the critical-path profile from an existing
// metrics snapshot (so collectors can analyse remote snapshots too).
func CriticalPathOf(snap Snapshot) *Profile {
	type opKey struct{ scheme, op string }
	lat := make(map[opKey]HistogramPoint)
	phase := make(map[opKey]map[string]HistogramPoint)
	type storeKey struct{ site, phase string }
	storePh := make(map[storeKey]HistogramPoint)
	for _, h := range snap.Histograms {
		switch h.Name {
		case MetricOpLatency:
			k := opKey{h.Labels["scheme"], h.Labels["op"]}
			lat[k] = mergeHist(lat[k], h)
		case MetricOpPhase:
			k := opKey{h.Labels["scheme"], h.Labels["op"]}
			m := phase[k]
			if m == nil {
				m = make(map[string]HistogramPoint)
				phase[k] = m
			}
			p := h.Labels["phase"]
			m[p] = mergeHist(m[p], h)
		case MetricStorePhase:
			k := storeKey{h.Labels["site"], h.Labels["phase"]}
			storePh[k] = mergeHist(storePh[k], h)
		}
	}

	keys := make([]opKey, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].scheme != keys[j].scheme {
			return keys[i].scheme < keys[j].scheme
		}
		return opRank(keys[i].op) < opRank(keys[j].op)
	})

	p := &Profile{}
	for _, k := range keys {
		l := lat[k]
		if l.Count == 0 {
			continue
		}
		op := OpProfile{
			Scheme: k.scheme, Op: k.op,
			Count: l.Count, TotalNs: l.Sum, MeanNs: l.Mean(),
			P50Ns: l.Quantile(0.5), P95Ns: l.Quantile(0.95), P99Ns: l.Quantile(0.99),
		}
		for i, name := range phases {
			ph, ok := phase[k][name]
			if !ok || ph.Count == 0 {
				continue
			}
			st := PhaseStat{
				Phase: name, Sub: i >= phasePartition,
				Count: ph.Count, TotalNs: ph.Sum, MeanNs: ph.Mean(),
				P50Ns: ph.Quantile(0.5), P95Ns: ph.Quantile(0.95), P99Ns: ph.Quantile(0.99),
			}
			if l.Sum > 0 {
				st.Share = float64(ph.Sum) / float64(l.Sum)
			}
			if !st.Sub {
				op.PartitionNs += ph.Sum
			}
			op.Phases = append(op.Phases, st)
		}
		if l.Sum > 0 {
			op.Coverage = float64(op.PartitionNs) / float64(l.Sum)
		}
		p.Ops = append(p.Ops, op)
	}

	sKeys := make([]storeKey, 0, len(storePh))
	for k := range storePh {
		sKeys = append(sKeys, k)
	}
	sort.Slice(sKeys, func(i, j int) bool {
		if sKeys[i].site != sKeys[j].site {
			return sKeys[i].site < sKeys[j].site
		}
		return sKeys[i].phase < sKeys[j].phase
	})
	for _, k := range sKeys {
		h := storePh[k]
		if h.Count == 0 {
			continue
		}
		p.Store = append(p.Store, StorePhaseStat{
			Site: k.site, Phase: k.phase,
			Count: h.Count, TotalNs: h.Sum, MeanNs: h.Mean(), P95Ns: h.Quantile(0.95),
		})
	}
	return p
}

// opRank orders ops write, read, recovery (then unknowns).
func opRank(op string) int {
	if i := opIndex(op); i >= 0 {
		return i
	}
	return len(ops)
}

// mergeHist merges two histogram points of one logical series: counts
// and sums add, buckets merge by upper bound (finite bounds ascending,
// overflow last) so quantile estimation works on the result.
func mergeHist(a, b HistogramPoint) HistogramPoint {
	out := HistogramPoint{Name: b.Name, Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	counts := make(map[int64]uint64, len(a.Buckets)+len(b.Buckets))
	for _, bk := range a.Buckets {
		counts[bk.UpperNs] += bk.Count
	}
	for _, bk := range b.Buckets {
		counts[bk.UpperNs] += bk.Count
	}
	uppers := make([]int64, 0, len(counts))
	for u := range counts {
		uppers = append(uppers, u)
	}
	sort.Slice(uppers, func(i, j int) bool {
		// -1 is the overflow bucket: it sorts after every finite bound.
		if uppers[i] < 0 {
			return false
		}
		if uppers[j] < 0 {
			return true
		}
		return uppers[i] < uppers[j]
	})
	for _, u := range uppers {
		out.Buckets = append(out.Buckets, BucketCount{UpperNs: u, Count: counts[u]})
	}
	return out
}

// Flame renders the profile as an indented text flamegraph: one block
// per scheme/op, phases as share-scaled bars, sub-phases indented
// under their parent. Deterministic for a given profile.
func (p *Profile) Flame() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path — phase attribution (lock_wait+fanout+rpc+local = end-to-end)\n")
	for _, op := range p.Ops {
		fmt.Fprintf(&b, "\n%s/%s  n=%d mean=%s p50=%s p95=%s p99=%s coverage=%.3f\n",
			op.Scheme, op.Op, op.Count, fmtNs(op.MeanNs),
			fmtNs(op.P50Ns), fmtNs(op.P95Ns), fmtNs(op.P99Ns), op.Coverage)
		for _, ph := range op.Phases {
			indent, note := "  ", ""
			if ph.Sub {
				indent, note = "    ", " (within fanout)"
			}
			fmt.Fprintf(&b, "%s%-10s %6.1f%% %-32s mean=%s p95=%s%s\n",
				indent, ph.Phase, 100*ph.Share, flameBar(ph.Share), fmtNs(ph.MeanNs), fmtNs(ph.P95Ns), note)
		}
	}
	if len(p.Store) > 0 {
		fmt.Fprintf(&b, "\nstore phases (per batched request / per group-commit flush)\n")
		for _, s := range p.Store {
			fmt.Fprintf(&b, "  site=%s %-10s n=%d mean=%s p95=%s\n",
				s.Site, s.Phase, s.Count, fmtNs(s.MeanNs), fmtNs(s.P95Ns))
		}
	}
	return b.String()
}

// flameBar renders a share in [0,1] as a 32-column bar.
func flameBar(share float64) string {
	const cols = 32
	n := int(share*cols + 0.5)
	if n > cols {
		n = cols
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n)
}

// fmtNs renders nanoseconds compactly (duration formatting only; no
// clock is read).
func fmtNs(ns float64) string {
	return time.Duration(int64(ns)).Round(time.Microsecond / 10).String()
}
