package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"relidev"
)

// Set-up is repeated and its median reported: one set-up of a second or
// two moves by a fifth from run to run on a shared machine.
const setupReps = 3

// instance is a cluster that has been set up: every block written once,
// one warm-up segment run.
type instance struct {
	cl *cluster
	cs []*client
	sh *shadow
}

type opener func(sp *spec, e env, sh *shadow) (*cluster, error)

func setUp(ctx context.Context, sp *spec, e env, open opener) (*instance, error) {
	sh := newShadow(e.clients)
	cl, err := open(sp, e, sh)
	if err != nil {
		return nil, err
	}
	in := &instance{cl: cl, cs: newClients(e, cl.devs, sh), sh: sh}
	if !sp.storeDir {
		prefill(ctx, in.cs)
	}
	in.segment(ctx, e)
	if sp.restart {
		// The first cycle after open also pays for the first dial of
		// every connection; two leave the steady pattern.
		in.segment(ctx, e)
	}
	return in, nil
}

func (in *instance) segment(ctx context.Context, e env) sample {
	if in.cl.spec.restart {
		return restartCycle(ctx, in, e)
	}
	return steadySegment(ctx, in.cl.spec, e, in.cs)
}

// counts sums the clients' attempted and failed ops.
func (in *instance) counts() (attempted, failed int, first error) {
	for _, c := range in.cs {
		attempted += c.attempted
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	return
}

// restartCycle is one segment of tcp_ac_n3_restart: the last site stops,
// the clients overwrite 2×segOps distinct blocks through the surviving
// sites, the site reopens from its log in the comatose state, runs the
// available-copy recovery of Figure 5, and every block it missed is read
// back from it.
func restartCycle(ctx context.Context, in *instance, e env) sample {
	cl, sp := in.cl, in.cl.spec
	victim := sp.sites - 1
	n := e.scaled(sp.segOps)
	if n > len(in.cs[0].owned) {
		n = len(in.cs[0].owned)
	}
	picks := make([][]int, len(in.cs))
	for i, c := range in.cs {
		perm := c.rng.Perm(len(c.owned))[:n]
		for _, p := range perm {
			picks[i] = append(picks[i], c.owned[p])
		}
	}
	s := sample{}
	before := readUsage()

	// A site that could not be reopened stays down; what follows then
	// fails op by op and the run ends with an error count.
	if node := cl.nodes[victim]; node != nil {
		if err := node.Close(); err != nil {
			in.cs[0].fail(fmt.Errorf("close site %d: %w", victim, err))
		}
		cl.nodes[victim] = nil
	}
	together(in.cs, func(c *client) {
		for _, idx := range picks[c.id] {
			c.write(ctx, idx)
		}
	})

	cfg := cl.cfgs[victim]
	cfg.Comatose = true
	in.cs[0].attempted++
	t0 := time.Now()
	var back node
	err := bindRetry(func() (err error) {
		back, err = cl.open(cfg)
		return err
	})
	t1 := time.Now()
	if err == nil {
		cl.nodes[victim], cl.devs[victim] = back, back.Device()
		err = back.Recover(ctx)
	}
	t2 := time.Now()
	if err != nil {
		in.cs[0].fail(fmt.Errorf("restart site %d: %w", victim, err))
	}

	together(in.cs, func(c *client) {
		for _, idx := range picks[c.id] {
			c.read(ctx, cl.devs[victim], idx)
		}
	})
	after := readUsage()

	blocks := n * len(in.cs)
	s["recover.open_ms"] = t1.Sub(t0).Seconds() * 1e3
	s["recover.exchange_ms"] = t2.Sub(t1).Seconds() * 1e3
	s["recover.ms"] = t2.Sub(t0).Seconds() * 1e3
	s["ops_per_s"] = float64(blocks) / t2.Sub(t0).Seconds()
	s.perOp(before, after, blocks)
	s.latencies(in.cs)
	return s
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measured is everything one run observed, before it is cut down to the
// metrics BENCHMARK.json names.
type measured struct {
	values            map[string]float64
	attempted, failed int
	firstErr          error
}

func (m *measured) fail(n int, err error) {
	m.failed += n
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// medians folds the segments of a run into one value per metric.
func medians(segs []sample) map[string]float64 {
	byKey := map[string][]float64{}
	for _, s := range segs {
		for k, v := range s {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := make(map[string]float64, len(byKey))
	for k, xs := range byKey {
		out[k] = median(xs)
	}
	return out
}

// runSegments measures fixed-size segments until the time is up. Fixed
// sizes make every segment the same work; the count adapts to the
// machine. before, if given, runs ahead of every segment and ends the
// measurement by returning false.
func runSegments(ctx context.Context, in *instance, e env, seconds float64, before func(*instance) bool) []sample {
	var segs []sample
	start := time.Now()
	for len(segs) < 3 || time.Since(start).Seconds() < seconds {
		if before != nil && !before(in) {
			break
		}
		segs = append(segs, in.segment(ctx, e))
	}
	return segs
}

// runEndToEnd is the untraced pass: the public API, nothing recorded
// that a user of the device would not see.
func runEndToEnd(ctx context.Context, sp *spec, e env, seconds float64) (*measured, error) {
	m := &measured{}
	if sp.storeDir {
		var err error
		if e.aged, err = newAgedLog(e.workDir, sp, e); err != nil {
			return nil, fmt.Errorf("age the log: %w", err)
		}
	}
	var setups []float64
	var in *instance
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		next, err := setUp(ctx, sp, e, openPublic)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		in = next
		if i < setupReps-1 {
			m.absorb(in)
			if err := in.cl.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			// Hand the memory back so the next set-up starts like the first.
			in = nil
			debug.FreeOSMemory()
		}
	}
	defer in.cl.close()

	var traffic0 relidev.TrafficStats
	reads0, writes0 := in.opsDone()
	if in.cl.traffic != nil {
		traffic0 = in.cl.traffic()
	}
	m.values = medians(runSegments(ctx, in, e, seconds, nil))
	m.values["setup_s"] = median(setups)
	if in.cl.traffic != nil {
		reads, writes := in.opsDone()
		m.checkTraffic(sp, in.cl.traffic().Transmissions-traffic0.Transmissions, reads-reads0, writes-writes0)
	}
	m.verify(ctx, in)
	m.absorb(in)
	m.values["peak_rss_mb"] = peakRSSMiB()
	return m, nil
}

// absorb adds an instance's op counts to the run's.
func (m *measured) absorb(in *instance) {
	a, f, err := in.counts()
	m.attempted += a
	m.fail(f, err)
}

// opsDone returns how many reads and writes the clients have completed.
func (in *instance) opsDone() (reads, writes int) {
	for _, c := range in.cs {
		reads += c.reads
		writes += c.writes
	}
	return
}

// verify checks the final state of the device against the shadow.
func (m *measured) verify(ctx context.Context, in *instance) {
	if in.cl.copyAt == nil {
		verifyThrough(ctx, in.cl, in.cs)
		return
	}
	checked, bad, err := verifyCopies(in.cl, in.sh)
	m.attempted += checked
	m.fail(bad, err)
}

// checkTraffic holds simnet's transmission count to the §5 cost model:
// on a multicast network with every site up a voting read costs U = n
// transmissions and a write 1 + U; the single-round write path
// (DESIGN.md §12) merges the vote request into the block multicast and
// so saves exactly one.
func (m *measured) checkTraffic(sp *spec, got uint64, reads, writes int) {
	costs, err := relidev.TrafficCosts(sp.scheme, sp.sites, 0, true)
	m.attempted++
	if err != nil {
		m.fail(1, err)
		return
	}
	want := uint64(reads)*uint64(costs.Read) + uint64(writes)*uint64(costs.Write-1)
	if got != want {
		m.fail(1, fmt.Errorf("simnet carried %d transmissions for %d reads and %d writes, §5 prices them at %d", got, reads, writes, want))
	}
}
