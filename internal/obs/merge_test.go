package obs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"relidev/internal/protocol"
)

// randHist draws a histogram over the registry's geometric bound
// ladder (plus the overflow bucket), with Count the sum of its bucket
// counts and Sum a plausible latency total — the shape every registry
// histogram has.
func randHist(rng *rand.Rand) HistogramPoint {
	bounds := []int64{bucketBase, 2 * bucketBase, 4 * bucketBase, 8 * bucketBase, -1}
	h := HistogramPoint{Name: "h"}
	for _, b := range bounds {
		if rng.Intn(2) == 0 {
			continue
		}
		c := uint64(rng.Intn(50) + 1)
		h.Buckets = append(h.Buckets, BucketCount{UpperNs: b, Count: c})
		h.Count += c
		if b > 0 {
			h.Sum += c * uint64(b) / 2
		} else {
			h.Sum += c * uint64(16*bucketBase)
		}
	}
	return h
}

func histEqual(a, b HistogramPoint) bool {
	return a.Count == b.Count && a.Sum == b.Sum && reflect.DeepEqual(a.Buckets, b.Buckets)
}

// TestMergeHistProperties drives mergeHist through seeded random
// distributions and pins the algebra the aggregation plane relies on:
// commutative, associative, count/sum/bucket-preserving, and quantile
// monotonicity of the merged distribution.
func TestMergeHistProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b, c := randHist(rng), randHist(rng), randHist(rng)

		ab, ba := mergeHist(a, b), mergeHist(b, a)
		if !histEqual(ab, ba) {
			t.Fatalf("trial %d: merge not commutative:\n%+v\n%+v", trial, ab, ba)
		}
		if l, r := mergeHist(ab, c), mergeHist(a, mergeHist(b, c)); !histEqual(l, r) {
			t.Fatalf("trial %d: merge not associative:\n%+v\n%+v", trial, l, r)
		}

		if ab.Count != a.Count+b.Count || ab.Sum != a.Sum+b.Sum {
			t.Fatalf("trial %d: count/sum not preserved: %d/%d + %d/%d -> %d/%d",
				trial, a.Count, a.Sum, b.Count, b.Sum, ab.Count, ab.Sum)
		}
		perBound := map[int64]uint64{}
		for _, in := range [][]BucketCount{a.Buckets, b.Buckets} {
			for _, bk := range in {
				perBound[bk.UpperNs] += bk.Count
			}
		}
		var total uint64
		for i, bk := range ab.Buckets {
			if bk.Count != perBound[bk.UpperNs] {
				t.Fatalf("trial %d: bucket %v = %d, want %d", trial, bk.UpperNs, bk.Count, perBound[bk.UpperNs])
			}
			if i > 0 && bk.UpperNs >= 0 && ab.Buckets[i-1].UpperNs >= 0 && ab.Buckets[i-1].UpperNs >= bk.UpperNs {
				t.Fatalf("trial %d: bounds out of order: %+v", trial, ab.Buckets)
			}
			total += bk.Count
		}
		if total != ab.Count {
			t.Fatalf("trial %d: buckets sum to %d, count says %d", trial, total, ab.Count)
		}

		if ab.Count > 0 {
			qs := []float64{0.1, 0.5, 0.9, 0.99}
			prev := -1.0
			for _, q := range qs {
				v := ab.Quantile(q)
				if v < prev {
					t.Fatalf("trial %d: quantiles not monotone: q%.2f=%v after %v", trial, q, v, prev)
				}
				prev = v
			}
			// The merged quantiles stay within the distribution's
			// support: no estimate below the smallest or above the
			// largest populated bound (overflow estimates excepted).
			if last := ab.Buckets[len(ab.Buckets)-1]; last.UpperNs >= 0 {
				if v := ab.Quantile(0.99); v > float64(last.UpperNs) {
					t.Fatalf("trial %d: q0.99=%v above largest bound %d", trial, v, last.UpperNs)
				}
			}
		}
	}
}

// TestMergeSnapshotsPartition: merging any partition of a snapshot's
// series reconstructs the snapshot exactly — here the per-site slices
// plus the site-less residue.
func TestMergeSnapshotsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var full Snapshot
	for i := 0; i < 3; i++ {
		site := fmt.Sprintf("site%d", i)
		full.Counters = append(full.Counters, CounterPoint{
			Name: "relidev_op_attempts_total", Labels: map[string]string{"site": site},
			Value: uint64(rng.Intn(1000))})
		full.Gauges = append(full.Gauges, GaugePoint{
			Name: "relidev_group_commit_batch_occupancy", Labels: map[string]string{"site": site},
			Value: int64(rng.Intn(50))})
		h := randHist(rng)
		h.Name, h.Labels = "relidev_op_latency_ns", map[string]string{"site": site}
		full.Histograms = append(full.Histograms, h)
	}
	full.Counters = append(full.Counters, CounterPoint{Name: "residue_total", Value: 42})
	// Canonicalise through the merge itself so ordering and quantile
	// conventions match Registry.Snapshot's.
	full = MergeSnapshots(full)

	// parts[i] is site i's slice; parts[3] the residue.
	parts := make([]Snapshot, 4)
	part := func(labels map[string]string) *Snapshot {
		i := 3
		fmt.Sscanf(labels["site"], "site%d", &i)
		return &parts[i]
	}
	for _, p := range full.Counters {
		part(p.Labels).Counters = append(part(p.Labels).Counters, p)
	}
	for _, p := range full.Gauges {
		part(p.Labels).Gauges = append(part(p.Labels).Gauges, p)
	}
	for _, p := range full.Histograms {
		part(p.Labels).Histograms = append(part(p.Labels).Histograms, p)
	}
	if got := MergeSnapshots(parts...); !reflect.DeepEqual(got, full) {
		t.Fatalf("partition merge diverged:\nwant %+v\ngot  %+v", full, got)
	}
}

// pullTransport fakes the RPC plane for ClusterPull: each peer either
// answers with an encoded snapshot or fails.
type pullTransport struct {
	t     *testing.T
	snaps map[protocol.SiteID]Snapshot
	down  map[protocol.SiteID]bool
}

func (p *pullTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	res := p.Broadcast(ctx, from, []protocol.SiteID{to}, req)[to]
	return res.Resp, res.Err
}

func (p *pullTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return p.Call(ctx, from, to, req)
}

func (p *pullTransport) Notify(ctx context.Context, from protocol.SiteID, to []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return p.Broadcast(ctx, from, to, req)
}

func (p *pullTransport) Broadcast(ctx context.Context, from protocol.SiteID, to []protocol.SiteID, m protocol.Request) map[protocol.SiteID]protocol.Result {
	if op := protocol.CtxOp(ctx); op != protocol.OpTelemetry {
		p.t.Errorf("scrape rode op class %q, want %q", op, protocol.OpTelemetry)
	}
	if _, ok := m.(protocol.TelemetryPullRequest); !ok {
		p.t.Errorf("scrape sent %T, want TelemetryPullRequest", m)
	}
	out := make(map[protocol.SiteID]protocol.Result, len(to))
	for _, id := range to {
		if p.down[id] {
			out[id] = protocol.Result{Err: errors.New("connection refused")}
			continue
		}
		out[id] = protocol.Result{Resp: protocol.TelemetryPullReply{Snap: EncodeSnapshot(p.snaps[id])}}
	}
	return out
}

// TestClusterPullMergesAndDegrades: the aggregate equals the
// element-wise merge of the local registry and every reachable peer's,
// and a down peer yields exactly one error entry, not a failed view.
func TestClusterPullMergesAndDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(site string) Snapshot {
		h := randHist(rng)
		h.Name, h.Labels = "relidev_op_latency_ns", map[string]string{"site": site}
		return MergeSnapshots(Snapshot{
			Counters: []CounterPoint{{
				Name: "relidev_op_attempts_total", Labels: map[string]string{"site": site},
				Value: uint64(rng.Intn(1000) + 1)}},
			Histograms: []HistogramPoint{h},
		})
	}
	local := mk("site0")
	tr := &pullTransport{
		t:     t,
		snaps: map[protocol.SiteID]Snapshot{1: mk("site1"), 2: mk("site2")},
		down:  map[protocol.SiteID]bool{},
	}
	peers := []protocol.SiteID{1, 2}

	got, errs := ClusterPull(context.Background(), tr, 0, peers, func() Snapshot { return local })
	if len(errs) != 0 {
		t.Fatalf("healthy pull degraded: %v", errs)
	}
	want := MergeSnapshots(local, tr.snaps[1], tr.snaps[2])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate != element-wise merge:\nwant %+v\ngot  %+v", want, got)
	}

	tr.down[2] = true
	got, errs = ClusterPull(context.Background(), tr, 0, peers, func() Snapshot { return local })
	if len(errs) != 1 || errs[2] == nil {
		t.Fatalf("degraded pull errors = %v, want exactly site 2", errs)
	}
	want = MergeSnapshots(local, tr.snaps[1])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded aggregate != merge of survivors:\nwant %+v\ngot  %+v", want, got)
	}
}
