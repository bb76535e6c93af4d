// Fixtures for detcheck in the availability observatory: the
// estimator's timeline is the simulation schedule (or an injected
// epoch-relative clock), its conformance verdicts land in replayable
// chaos reports, and its snapshots serialize per-op tables — so wall
// clocks, the global rand source, and unsorted map emission are all
// forbidden here.
package avail

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

type Estimator struct {
	now   float64
	clock func() float64
	ops   map[string]uint64
}

// ok: transitions are stamped from the explicit simulation timeline.
func (e *Estimator) SiteDown(site int, at float64) {
	if at > e.now {
		e.now = at
	}
}

// ok: live deployments feed an epoch-relative injected clock.
func (e *Estimator) ObserveLive(site int) {
	e.SiteDown(site, e.clock())
}

func BadObserve(e *Estimator, site int, epoch time.Time) {
	at := time.Since(epoch).Seconds() // want "time.Since in a replay-deterministic package"
	e.SiteDown(site, at)
}

func JitteredRepair(mu float64) float64 {
	return rand.ExpFloat64() / mu // want "global rand.ExpFloat64 draws from the process-seeded source"
}

// ok: repair draws come from a per-estimator seeded stream.
func SeededRepair(seed int64, mu float64) float64 {
	return rand.New(rand.NewSource(seed)).ExpFloat64() / mu
}

func WriteOps(w fmt.Writer, ops map[string]uint64) {
	for op, n := range ops { // want "map iteration order is nondeterministic"
		fmt.Fprintf(w, "%s=%d\n", op, n)
	}
}

// ok: the snapshot sorts op labels before the table is emitted, so the
// conformance report digests identically across runs.
func WriteOpsSorted(w fmt.Writer, ops map[string]uint64) {
	keys := make([]string, 0, len(ops))
	for op := range ops {
		keys = append(keys, op)
	}
	sort.Strings(keys)
	for _, op := range keys {
		fmt.Fprintf(w, "%s=%d\n", op, ops[op])
	}
}

// ok: pooled-rate aggregation has no output inside the loop.
func TotalSamples(ops map[string]uint64) uint64 {
	var total uint64
	for _, n := range ops {
		total += n
	}
	return total
}

// ok: the sanctioned default epoch for live wiring, with a reason.
func DefaultEpoch() time.Time {
	//relidev:allow nondeterminism: live deployments anchor the estimator timeline at process start; tests pass a fixed epoch
	return time.Now()
}
