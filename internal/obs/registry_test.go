package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		r *Registry
		c *Counter
		g *Gauge
		h *Histogram
	)
	// Every method must accept a nil receiver without panicking.
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d, want 0", c.Value())
	}
	g.Set(7)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d, want 0", g.Value())
	}
	h.Observe(123)
	if p := h.snapshotPoint(); p.Count != 0 {
		t.Fatalf("nil histogram count = %d, want 0", p.Count)
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestCounterStripedConcurrentAdds: goroutines adding to one counter
// land on its stripes, and Value sums them exactly, also while the adds
// run. Under -race this also proves the stripes share no plain state.
func TestCounterStripedConcurrentAdds(t *testing.T) {
	const goroutines, perG = 8, 10000
	var c Counter
	var wg sync.WaitGroup
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := c.Value()
			if v < last {
				t.Errorf("counter went back from %d to %d", last, v)
				return
			}
			last = v
		}
	}()
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(uint64(g + 1))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-read
	var want uint64
	for g := range goroutines {
		want += perG/2 + perG/2*uint64(g+1)
	}
	if got := c.Value(); got != want {
		t.Fatalf("Value = %d, want %d", got, want)
	}
}

func TestSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	// Same name+labels (any order) resolve to the same series; different
	// labels resolve to different series.
	a := r.Counter("relidev_test_total", L("op", "write"), L("scheme", "voting"))
	b := r.Counter("relidev_test_total", L("scheme", "voting"), L("op", "write"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
	c := r.Counter("relidev_test_total", L("scheme", "naive"), L("op", "write"))
	if a == c {
		t.Fatal("distinct labels resolved to the same series")
	}
	a.Add(2)
	b.Inc()
	if got := a.Value(); got != 3 {
		t.Fatalf("shared series value = %d, want 3", got)
	}
}

func TestSnapshotAndCounterTotal(t *testing.T) {
	r := NewRegistry()
	r.Counter("relidev_ops_total", L("scheme", "voting"), L("site", "site0")).Add(4)
	r.Counter("relidev_ops_total", L("scheme", "voting"), L("site", "site1")).Add(6)
	r.Counter("relidev_ops_total", L("scheme", "naive"), L("site", "site0")).Add(9)
	r.Gauge("relidev_up", L("site", "site0")).Set(1)
	r.Histogram("relidev_lat_ns").Observe(2048)

	snap := r.Snapshot()
	if len(snap.Counters) != 3 || len(snap.Gauges) != 1 || len(snap.Histograms) != 1 {
		t.Fatalf("snapshot shape = %d/%d/%d, want 3/1/1",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	}
	// Sorted by series identity: naive sorts before voting.
	if snap.Counters[0].Labels["scheme"] != "naive" {
		t.Fatalf("snapshot not sorted: first counter labels %v", snap.Counters[0].Labels)
	}
	if got := snap.CounterTotal("relidev_ops_total", L("scheme", "voting")); got != 10 {
		t.Fatalf("CounterTotal(voting) = %d, want 10", got)
	}
	if got := snap.CounterTotal("relidev_ops_total"); got != 19 {
		t.Fatalf("CounterTotal(all) = %d, want 19", got)
	}
	if got := snap.CounterTotal("relidev_ops_total", L("scheme", "paxos")); got != 0 {
		t.Fatalf("CounterTotal(absent) = %d, want 0", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("relidev_ops_total", L("op", "write")).Add(5)
	r.Gauge("relidev_sites").Set(3)
	h := r.Histogram("relidev_lat_ns", L("op", "read"))
	h.Observe(100)     // bucket 0 (<= 1024)
	h.Observe(2000)    // bucket 1 (<= 2048)
	h.Observe(1 << 62) // overflow bucket
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`relidev_ops_total{op="write"} 5`,
		`relidev_sites 3`,
		`relidev_lat_ns_bucket{op="read",le="1024"} 1`,
		`relidev_lat_ns_bucket{op="read",le="2048"} 2`,
		`relidev_lat_ns_bucket{op="read",le="+Inf"} 3`,
		`relidev_lat_ns_count{op="read"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals the count.
	if strings.Count(out, `le="+Inf"`) != 1 {
		t.Errorf("want exactly one +Inf bucket:\n%s", out)
	}
}

// TestQuantileEstimates checks the p50/p95/p99 summaries: exact
// interpolation for a single-bucket distribution, bucket containment
// and monotonicity for a mixed one, and edge cases.
func TestQuantileEstimates(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_single")
	for i := 0; i < 100; i++ {
		h.Observe(500) // bucket 0: (0, 1024]
	}
	p := r.Snapshot().Histograms[0]
	if got := p.Quantile(0.5); got != 512 {
		t.Fatalf("p50 of uniform bucket-0 fill = %v, want 512", got)
	}
	if got := p.Quantile(1); got != 1024 {
		t.Fatalf("p100 = %v, want 1024", got)
	}
	if len(p.Quantiles) != 3 || p.Quantiles[0].Q != 0.5 || p.Quantiles[2].Q != 0.99 {
		t.Fatalf("snapshot quantiles = %+v", p.Quantiles)
	}

	r2 := NewRegistry()
	h2 := r2.Histogram("q_mixed")
	// 90 fast observations (~2µs), 9 medium (~1ms), 1 slow (~50ms).
	for i := 0; i < 90; i++ {
		h2.Observe(2_000)
	}
	for i := 0; i < 9; i++ {
		h2.Observe(1_000_000)
	}
	h2.Observe(50_000_000)
	p2 := r2.Snapshot().Histograms[0]
	p50, p95, p99 := p2.Quantile(0.5), p2.Quantile(0.95), p2.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: %v %v %v", p50, p95, p99)
	}
	if p50 <= 1024 || p50 > 2048 {
		t.Fatalf("p50 = %v, want in (1024, 2048]", p50)
	}
	if p95 <= 524288 || p95 > 1048576 {
		t.Fatalf("p95 = %v, want in 1ms bucket (524288, 1048576]", p95)
	}
	// Rank 99 of 100 is the last medium observation: p99 tops out its
	// bucket; only a higher quantile reaches the slow outlier.
	if p99 != 1048576 {
		t.Fatalf("p99 = %v, want 1048576", p99)
	}
	if p999 := p2.Quantile(0.999); p999 <= 33554432 || p999 > 67108864 {
		t.Fatalf("p99.9 = %v, want in 50ms bucket", p999)
	}

	var empty HistogramPoint
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	if p2.Quantile(0) != 0 {
		t.Fatal("q=0 != 0")
	}
}

// TestWritePrometheusSynthesizesInfBucket: snapshots carry only
// non-empty buckets, so a histogram whose observations all landed in
// finite buckets has no overflow entry — the exposition must still end
// the cumulative series with le="+Inf" equal to _count, or Prometheus
// clients reject the histogram as malformed.
func TestWritePrometheusSynthesizesInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("relidev_small_ns", L("op", "read"))
	h.Observe(100)
	h.Observe(200) // both within the first finite bucket; no overflow
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`relidev_small_ns_bucket{op="read",le="+Inf"} 2`,
		`relidev_small_ns_count{op="read"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, `le="+Inf"`) != 1 {
		t.Errorf("want exactly one synthesized +Inf bucket:\n%s", out)
	}
	// The synthesized bucket must come before _sum/_count, after the
	// finite buckets — cumulative order is part of the exposition
	// contract.
	inf := strings.Index(out, `le="+Inf"`)
	fin := strings.Index(out, `relidev_small_ns_bucket{op="read",le="`)
	sum := strings.Index(out, "relidev_small_ns_sum")
	if !(fin < inf && inf < sum) {
		t.Errorf("bucket ordering wrong (finite=%d inf=%d sum=%d):\n%s", fin, inf, sum, out)
	}
}
