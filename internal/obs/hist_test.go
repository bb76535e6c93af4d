package obs

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{1024, 0},
		{1025, 1},
		{2048, 1},
		{2049, 2},
		{1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(-5) // clamped to 0
	h.Observe(500)
	h.Observe(3000)
	p := h.snapshotPoint()
	if p.Count != 3 {
		t.Fatalf("count = %d, want 3", p.Count)
	}
	if p.Sum != 3500 {
		t.Fatalf("sum = %d, want 3500", p.Sum)
	}
	var total uint64
	for _, b := range p.Buckets {
		total += b.Count
	}
	if total != p.Count {
		t.Fatalf("bucket total %d != count %d", total, p.Count)
	}
	if p.Mean() != 3500.0/3.0 {
		t.Fatalf("mean = %v", p.Mean())
	}
}

// TestHistogramCountIsBucketSum: a snapshot's count is the sum of its
// buckets, and a zero observation counts in bucket 0 without moving the
// sum (it costs one atomic add, a non-zero one two).
func TestHistogramCountIsBucketSum(t *testing.T) {
	var h Histogram
	h.Observe(700)
	h.Observe(5000)
	before := h.snapshotPoint()
	h.Observe(0)
	h.Observe(-3)
	p := h.snapshotPoint()
	if p.Sum != before.Sum || p.Sum != 5700 {
		t.Fatalf("sum = %d after two zero observations, want %d", p.Sum, before.Sum)
	}
	var buckets uint64
	for _, b := range p.Buckets {
		buckets += b.Count
	}
	if p.Count != 4 || buckets != p.Count {
		t.Fatalf("count = %d, buckets sum to %d: want 4 and 4", p.Count, buckets)
	}
	if p.Buckets[0].UpperNs != bucketBase || p.Buckets[0].Count != 3 {
		t.Fatalf("bucket 0 = %+v, want 3 observations up to %d ns", p.Buckets[0], bucketBase)
	}
}

// TestHistogramConcurrentMerge is the record+merge property test: with
// G goroutines each recording K observations concurrently with
// snapshot readers, every observation must land in exactly one shard,
// and the merged snapshot must equal the sum over shards — no loss, no
// double count. Run under -race this also proves the record path and
// the merge never touch non-atomic shared state.
func TestHistogramConcurrentMerge(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
	)
	var h Histogram
	var wantSum uint64
	sums := make([]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			var local uint64
			for i := 0; i < perG; i++ {
				ns := rng.Int63n(1 << 30)
				local += uint64(ns)
				h.Observe(ns)
			}
			sums[g] = local
		}(g)
	}
	// Concurrent readers: merged totals are monotone and internally
	// consistent even mid-record.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var lastCount uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := h.snapshotPoint()
			if p.Count < lastCount {
				t.Errorf("merged count went backwards: %d -> %d", lastCount, p.Count)
				return
			}
			lastCount = p.Count
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	for _, s := range sums {
		wantSum += s
	}
	p := h.snapshotPoint()
	if p.Count != goroutines*perG {
		t.Fatalf("merged count = %d, want %d", p.Count, goroutines*perG)
	}
	if p.Sum != wantSum {
		t.Fatalf("merged sum = %d, want %d", p.Sum, wantSum)
	}
	// The merge is a pure addition over shards: per-shard totals must
	// add up to the merged point exactly.
	counts, shardSums := h.shardTotals()
	var cTot, sTot uint64
	for i := range counts {
		cTot += counts[i]
		sTot += shardSums[i]
	}
	if cTot != p.Count || sTot != p.Sum {
		t.Fatalf("shard totals (%d, %d) != merged (%d, %d)", cTot, sTot, p.Count, p.Sum)
	}
	var bTot uint64
	for _, b := range p.Buckets {
		bTot += b.Count
	}
	if bTot != p.Count {
		t.Fatalf("bucket total %d != merged count %d", bTot, p.Count)
	}
}

// shardTotals exposes per-shard (count, sum) pairs for the merge
// property test.
func (h *Histogram) shardTotals() (counts, sums [histShards]uint64) {
	for i := range h.shards {
		for b := range h.shards[i].buckets {
			counts[i] += h.shards[i].buckets[b].Load()
		}
		sums[i] = h.shards[i].sum.Load()
	}
	return counts, sums
}
