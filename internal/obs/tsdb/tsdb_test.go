package tsdb

import (
	"reflect"
	"testing"

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

	hist := db.WindowHist("h", 0)
	if hist.Count != 5 || hist.Sum != 60 {
		t.Fatalf("merged hist = %d obs / %dns, want 5/60", hist.Count, hist.Sum)
	}
	if len(hist.Buckets) != 1 || hist.Buckets[0] != (obs.BucketCount{UpperNs: 100, Count: 5}) {
		t.Fatalf("merged buckets = %+v", hist.Buckets)
	}

	gw := db.GaugeWindow("g", 0)
	want := []Point{{AtNs: 10, Value: 1}, {AtNs: 20, Value: 3}, {AtNs: 30, Value: 2}}
	if !reflect.DeepEqual(gw, want) {
		t.Fatalf("gauge trajectory = %+v, want %+v", gw, want)
	}

	if last, ok := db.LastNs(); !ok || last != 30 {
		t.Fatalf("LastNs = %d,%v, want 30,true", last, ok)
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
	if last, _ := db.LastNs(); last != 100 {
		t.Fatalf("LastNs = %d, want 100", last)
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

func TestDisabledAndNilDBsAreInert(t *testing.T) {
	for _, db := range []*DB{nil, New(Config{})} {
		db.Sample()
		if db.Len() != 0 || db.StepNs() != 0 {
			t.Fatal("disabled DB retained state")
		}
		if got := db.WindowTotal("c", 0); got != 0 {
			t.Fatal("disabled DB returned data")
		}
		if _, ok := db.LastNs(); ok {
			t.Fatal("disabled DB has a timestamp")
		}
		if q := db.Query(0, 0); len(q.Series) != 0 {
			t.Fatal("disabled DB served series")
		}
	}
}
