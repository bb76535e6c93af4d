package tsdb

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relidev/internal/clock"
	"relidev/internal/obs"
)

// harness drives a DB from a hand-built snapshot and a manual clock
// that sample moves 10ns per sample.
type harness struct {
	clk  *clock.Manual
	snap obs.Snapshot
}

// sample takes the next sample, one nominal step after the last.
func (h *harness) sample(db *DB) {
	h.clk.Advance(10)
	db.Sample()
}

func (h *harness) db(retain int) *DB {
	h.clk = clock.NewManual()
	return New(Config{
		Clock:  h.clk,
		Source: func() obs.Snapshot { return h.snap },
		StepNs: 10,
		Retain: retain,
	})
}

func (h *harness) set(counter uint64, gauge int64, hCount, hSum, hBucket uint64) {
	h.snap = obs.Snapshot{
		Counters: []obs.CounterPoint{
			{Name: "c", Labels: map[string]string{"site": "site0"}, Value: counter},
		},
		Gauges: []obs.GaugePoint{{Name: "g", Value: gauge}},
		Histograms: []obs.HistogramPoint{
			{Name: "h", Count: hCount, Sum: hSum,
				Buckets: []obs.BucketCount{{UpperNs: 100, Count: hBucket}}},
		},
	}
}

func TestDeltaEncodingAndWindows(t *testing.T) {
	h := &harness{}
	db := h.db(8)
	h.set(5, 1, 2, 20, 2)
	h.sample(db) // t=10: +5, g=1, h +2/+20
	h.set(9, 3, 5, 60, 5)
	h.sample(db) // t=20: +4, g=3, h +3/+40
	h.set(9, 2, 5, 60, 5)
	h.sample(db) // t=30: counter and hist unchanged, g=2

	if got := db.WindowTotal("c", 0); got != 9 {
		t.Fatalf("full-retention counter total = %d, want 9 (deltas must sum back to the cumulative value)", got)
	}
	// A 15ns trailing window keeps only the t=20 and t=30 frames.
	if got := db.WindowTotal("c", 15); got != 4 {
		t.Fatalf("windowed counter total = %d, want 4", got)
	}
	if got := db.WindowTotal("c", 0, obs.L("site", "site0")); got != 9 {
		t.Fatalf("label-matched total = %d, want 9", got)
	}
	if got := db.WindowTotal("c", 0, obs.L("site", "site1")); got != 0 {
		t.Fatalf("mismatched label total = %d, want 0", got)
	}

	// All five observations sit in the <=100ns bucket: none is above a
	// 100ns threshold, all are above a 50ns one; the last 15ns saw three.
	if above, count := db.HistAbove("h", 100, 0); above != 0 || count != 5 {
		t.Fatalf("HistAbove(100ns) = %d of %d, want 0 of 5", above, count)
	}
	if above, count := db.HistAbove("h", 50, 15); above != 3 || count != 3 {
		t.Fatalf("windowed HistAbove(50ns) = %d of %d, want 3 of 3", above, count)
	}

	// The newest-sample window is the t=30 frame alone.
	if got := db.WindowTotal("c", Newest); got != 0 {
		t.Fatalf("newest-sample counter total = %d, want 0 (nothing moved at t=30)", got)
	}
	if max, labels, ok := db.GaugeMax("g", Newest); !ok || max != 2 || labels != nil {
		t.Fatalf("newest gauge level = %d %v %v, want 2", max, labels, ok)
	}
	if max, _, _ := db.GaugeMax("g", 0); max != 3 {
		t.Fatalf("gauge maximum over the retention = %d, want 3", max)
	}
	if _, _, ok := db.GaugeMax("absent", 0); ok {
		t.Fatal("GaugeMax found a family nobody recorded")
	}

	// Newest goes by position, not by stamp: two more samples at one
	// instant (a manual clock nobody advanced) are still two windows.
	h.set(12, 2, 5, 60, 5)
	db.Sample() // t=30 again: +3
	db.Sample() // t=30 again: nothing moved
	if got := db.WindowTotal("c", Newest); got != 0 {
		t.Fatalf("newest-sample counter total = %d, want 0: the +3 belongs to the sample before, stamped alike", got)
	}
}

// TestTailIsTheNewestSamples: Tail(n) reconstructs exactly the newest n
// samples whatever their stamps, all of them when fewer are held, at
// the nominal step: samples a jittery caller took within one step share
// its point.
func TestTailIsTheNewestSamples(t *testing.T) {
	h := &harness{}
	db := h.db(8)
	if q, n := db.Tail(4); n != 0 || len(q.Series) != 0 {
		t.Fatalf("empty ring tail = %d samples, %+v", n, q)
	}
	for i, gap := range []int64{3, 40, 1, 7, 7, 100} { // nothing like the 10ns step
		h.set(uint64(i+1), 0, 0, 0, 0)
		h.clk.Advance(time.Duration(gap))
		db.Sample()
	}
	q, n := db.Tail(4)
	if n != 4 || q.FromNs != 44 || q.ToNs != 158 || q.StepNs != 10 {
		t.Fatalf("tail = %d samples %d..%d step %d, want 4 samples 44..158 step 10", n, q.FromNs, q.ToNs, q.StepNs)
	}
	var total float64
	var stamps []int64
	for _, s := range q.Series {
		if s.Name == "c" {
			for _, p := range s.Points {
				total += p.Value
				stamps = append(stamps, p.AtNs)
			}
		}
	}
	if total != 4 {
		t.Fatalf("tail counter deltas sum to %v, want the 4 newest +1 steps", total)
	}
	if want := []int64{54, 64, 164}; !slices.Equal(stamps, want) {
		t.Fatalf("tail points stamped %v, want %v (44 and 51 share a step)", stamps, want)
	}
	if _, n := db.Tail(64); n != 6 {
		t.Fatalf("oversized tail = %d samples, want all 6", n)
	}
}

func TestRingEvictsOldestFrames(t *testing.T) {
	h := &harness{}
	db := h.db(4)
	for i := uint64(1); i <= 10; i++ {
		h.set(i, 0, 0, 0, 0)
		h.sample(db)
	}
	if db.Len() != 4 {
		t.Fatalf("Len = %d, want retention 4", db.Len())
	}
	// Only the last four +1 deltas survive eviction.
	if got := db.WindowTotal("c", 0); got != 4 {
		t.Fatalf("total after eviction = %d, want 4", got)
	}
	if q := db.Query(0, 0); q.FromNs != 70 || q.ToNs != 100 {
		t.Fatalf("retained %d..%d, want 70..100", q.FromNs, q.ToNs)
	}
}

func TestQueryDownsamplesExactly(t *testing.T) {
	h := &harness{}
	db := h.db(16)
	for i := 1; i <= 6; i++ {
		h.set(uint64(i), int64(2*i), uint64(i), uint64(10*i), uint64(i))
		h.sample(db) // t=10..60, counter +1 per sample
	}
	q := db.Query(0, 20)
	if q.FromNs != 10 || q.ToNs != 60 || q.StepNs != 20 {
		t.Fatalf("query bounds = %+v", q)
	}
	byName := map[string]Series{}
	for _, s := range q.Series {
		byName[s.Name] = s
	}
	// Counters re-aggregate exactly: three coarse steps of +2 each sum
	// to the same 6 the fine ring recorded.
	c := byName["c"]
	if c.Kind != KindCounter || len(c.Points) != 3 {
		t.Fatalf("counter series = %+v", c)
	}
	var sum float64
	for _, p := range c.Points {
		if p.Value != 2 {
			t.Fatalf("coarse counter step = %+v, want 2 per step", c.Points)
		}
		sum += p.Value
	}
	if sum != 6 {
		t.Fatalf("downsampled counter sum = %v, want 6", sum)
	}
	// Gauges are last-value-wins within a step.
	g := byName["g"]
	wantG := []float64{4, 8, 12}
	if len(g.Points) != len(wantG) {
		t.Fatalf("gauge points = %+v, want %d steps", g.Points, len(wantG))
	}
	for i, p := range g.Points {
		if p.Value != wantG[i] {
			t.Fatalf("gauge points = %+v, want %v", g.Points, wantG)
		}
	}
	// Histograms carry both count and sum through downsampling.
	hs := byName["h"]
	var hc, hsum float64
	for _, p := range hs.Points {
		hc += p.Value
		hsum += p.SumNs
	}
	if hc != 6 || hsum != 60 {
		t.Fatalf("downsampled hist totals = %v/%v, want 6/60", hc, hsum)
	}

	// A finer-than-nominal step clamps to the ring's resolution.
	if q := db.Query(0, 1); q.StepNs != 10 {
		t.Fatalf("sub-step query served step %d, want clamp to 10", q.StepNs)
	}
}

// TestConcurrentSamplersCommitInReadOrder: samplers that overlap each
// store the delta against the sample before theirs, so the ring always
// sums to the counter. A sampler that read the source outside the lock
// could commit after a later one and store an underflowed delta of
// about 2^64. The source dawdles after its read, unevenly, to invite
// exactly that overlap.
func TestConcurrentSamplersCommitInReadOrder(t *testing.T) {
	var ops atomic.Uint64
	clk := clock.NewManual()
	db := New(Config{
		Clock: clk,
		Source: func() obs.Snapshot {
			n := ops.Load()
			clk.Advance(1) // a frame per instant, so Query keeps them apart
			for i := n % 3; i < 3; i++ {
				runtime.Gosched()
			}
			return obs.Snapshot{
				Counters:   []obs.CounterPoint{{Name: "c", Value: n}},
				Histograms: []obs.HistogramPoint{{Name: "h", Count: n, Sum: 3 * n}},
			}
		},
		StepNs: 1,
		Retain: 1 << 12,
	})
	const samplers, rounds = 4, 200
	var wg sync.WaitGroup
	for s := 0; s < samplers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ops.Add(1)
				db.Sample()
			}
		}()
	}
	wg.Wait()
	db.Sample()
	// The whole ring telescopes to the counter even around an
	// underflowed frame (the sums wrap back), so judge every frame.
	const total = samplers * rounds
	for _, s := range db.Query(0, 0).Series {
		var sum float64
		for _, p := range s.Points {
			if p.Value > total {
				t.Fatalf("series %s: the frame at %d holds a delta of %g, the series only ever reached %d", s.Name, p.AtNs, p.Value, total)
			}
			sum += p.Value
		}
		if sum != total {
			t.Fatalf("series %s: the ring sums to %g, the source reads %d", s.Name, sum, total)
		}
	}
}
