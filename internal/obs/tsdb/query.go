package tsdb

import "sort"

// Query reconstruction: a trailing window of the ring, downsampled to
// a coarser step. Counters and histograms re-aggregate exactly —
// summing deltas over a coarse step equals sampling at that step —
// and gauges report their last value per step, the usual lossy gauge
// downsampling.

// A Point is one reconstructed sample. Value is the counter delta,
// gauge level, or histogram observation count of the step; SumNs
// carries the histogram's latency sum for rate/mean arithmetic.
type Point struct {
	AtNs  int64   `json:"at_ns"`
	Value float64 `json:"value"`
	SumNs float64 `json:"sum_ns,omitempty"`
}

// A Series is one reconstructed series.
type Series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Points []Point           `json:"points"`
}

// A QueryResult is a downsampled window of the ring, as served by
// /timeseries.
type QueryResult struct {
	FromNs int64    `json:"from_ns"`
	ToNs   int64    `json:"to_ns"`
	StepNs int64    `json:"step_ns"`
	Series []Series `json:"series,omitempty"`
}

// Query reconstructs the trailing window at the given resolution.
// windowNs <= 0 means the whole retention; stepNs <= the nominal step
// means no downsampling. Points are bucketed by ceil division from the
// window start, stamped with their bucket's end. Series are ordered by
// canonical key; empty buckets emit no point.
func (db *DB) Query(windowNs, stepNs int64) QueryResult {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.query(db.window(windowNs), stepNs)
}

// Tail reconstructs the newest n samples at the sampling resolution —
// what a flight dump keeps of the ring — and reports how many it found.
func (db *DB) Tail(n int) (res QueryResult, samples int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	from := max(db.count-n, 0)
	return db.query(from, 0), db.count - from
}

// query reconstructs the live frames from index from on. Caller holds
// db.mu.
func (db *DB) query(from int, stepNs int64) QueryResult {
	var res QueryResult
	if stepNs < db.stepNs {
		stepNs = db.stepNs
	}
	res.StepNs = stepNs
	if from >= db.count {
		return res
	}
	res.ToNs = db.at(db.count - 1).atNs
	res.FromNs = db.at(from).atNs
	// bucketEnd stamps a frame with the end of its coarse step,
	// counting steps forward from the window start.
	bucketEnd := func(atNs int64) int64 {
		n := (atNs - res.FromNs) / stepNs
		return res.FromNs + (n+1)*stepNs
	}

	points := make([][]Point, len(db.series)) // nil: the series has none in the window
	add := func(id int, atNs int64, dv, dsum float64, gauge bool) {
		end := bucketEnd(atNs)
		if n := len(points[id]); n > 0 && points[id][n-1].AtNs == end {
			last := &points[id][n-1]
			if gauge {
				last.Value = dv // last value wins within a step
			} else {
				last.Value += dv
				last.SumNs += dsum
			}
			return
		}
		points[id] = append(points[id], Point{AtNs: end, Value: dv, SumNs: dsum})
	}
	for i := from; i < db.count; i++ {
		f := db.at(i)
		for _, d := range f.counters {
			add(d.id, f.atNs, float64(d.d), 0, false)
		}
		for _, g := range f.gauges {
			add(g.id, f.atNs, float64(g.v), 0, true)
		}
		for _, hd := range f.hists {
			add(hd.id, f.atNs, float64(hd.dCount), float64(hd.dSum), false)
		}
	}

	ids := make([]int, 0, len(db.series))
	for id := range db.series {
		if points[id] != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return db.series[ids[i]].key < db.series[ids[j]].key })
	for _, id := range ids {
		s := db.series[id]
		res.Series = append(res.Series, Series{
			Name:   s.name,
			Labels: s.labels,
			Kind:   s.kind,
			Points: points[id],
		})
	}
	return res
}
