package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// The traced pass keeps at most this many spans (32 bytes each) and,
// where a segment is a count of ops, runs its traced segments at a
// quarter of the usual size so that several fit.
const (
	spanCapacity = 1 << 20
	tracedScale  = 0.25
)

// lane is one of the three clusters the traced pass measures in turn.
type lane struct {
	in   *instance
	e    env
	segs []sample
}

// runTraced is the second pass. It sets the workload up three times:
// through the public API (the reference throughput and the informational
// client, cpu and gc numbers), through this package's assembly of the
// same parts with decorators off (the assembly gap), and with decorators
// on (the spans). The three take turns, one segment each, so that a slow
// spell of the machine falls on all of them. Then the ladder runs.
func runTraced(ctx context.Context, sp *spec, e env, seconds float64, outDir string) (*measured, error) {
	m := &measured{values: map[string]float64{}}
	v := m.values
	if sp.storeDir {
		var err error
		if e.aged, err = newAgedLog(e.workDir, sp, e); err != nil {
			return nil, fmt.Errorf("age the log: %w", err)
		}
	}
	rec := newRecorder(spanCapacity, sp.sites, e.clients)
	rec.stop() // set-up is not traced
	te := e
	if !sp.restart {
		te.scale *= tracedScale
	}
	lanes := []*lane{{e: e}, {e: e}, {e: te}}
	for i, open := range []opener{openPublic, openAssembled(nil), openAssembled(rec)} {
		in, err := setUp(ctx, sp, lanes[i].e, open)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer in.cl.close()
		lanes[i].in = in
	}
	pub, asm, traced := lanes[0], lanes[1], lanes[2]

	traffic0, reads0, writes0 := trafficOf(asm.in)
	_, _, tracedWrites0 := trafficOf(traced.in)
	files0 := fileSizes(traced.in.cl.dir)
	var spins []float64
	lastUsed, full := 0, false
	rec.start()
	start := time.Now()
	for len(pub.segs) < 3 || time.Since(start).Seconds() < seconds {
		for _, l := range lanes {
			if l == traced {
				// Stop tracing before a segment that might not fit.
				used := rec.used()
				full = full || used+(used-lastUsed)*3/2 >= len(rec.spans)
				lastUsed = used
				if full {
					continue
				}
				spins = append(spins, memSpin().Seconds()*1e3)
			}
			l.segs = append(l.segs, l.in.segment(ctx, l.e))
		}
	}
	rec.stop()

	pubV, asmV, tracedV := medians(pub.segs), medians(asm.segs), medians(traced.segs)
	for _, k := range []string{"cpu.user_us_per_op", "cpu.sys_us_per_op", "gc.cycles_per_kop", "gc.pause_ms", "alloc_kb_per_op",
		"client.read_p90_us", "client.write_p90_us", "client.read_p99_us", "client.write_p99_us", "client.samples",
		"recover.open_ms", "recover.exchange_ms"} {
		v[k] = pubV[k]
	}
	if sp.restart {
		v["client.degraded_write_p50_us"] = pubV["write_p50_us"]
		var recovers []float64
		for _, s := range pub.segs {
			recovers = append(recovers, s["recover.ms"])
		}
		sort.Float64s(recovers)
		v["recover.p50_ms"], v["recover.p90_ms"] = quantile(recovers, 0.5), quantile(recovers, 0.9)
	}
	v["trace.assembly_gap_pct"] = (pubV["ops_per_s"] - asmV["ops_per_s"]) / pubV["ops_per_s"] * 100
	v["trace.overhead_pct"] = (asmV["ops_per_s"] - tracedV["ops_per_s"]) / asmV["ops_per_s"] * 100

	if traffic1, reads1, writes1 := trafficOf(asm.in); reads1 > reads0 && writes1 > writes0 {
		v["simnet.msgs_per_read"] = float64(traffic1[0]-traffic0[0]) / float64(reads1-reads0)
		v["simnet.msgs_per_write"] = float64(traffic1[1]-traffic0[1]) / float64(writes1-writes0)
		v["simnet.bytes_per_op"] = float64(traffic1[2]-traffic0[2]) / float64(reads1-reads0+writes1-writes0)
	}

	an := rec.analyse()
	for k, x := range an.values {
		v[k] = x
	}
	m.attempted++
	if an.violations > 0 {
		m.fail(1, fmt.Errorf("%d child spans reach outside their parent", an.violations))
	}
	obsShares(traced.in, v)
	v["trace.obs_disagreement_pts"] = 100 * math.Max(
		math.Abs(v["obs.share_fanout"]-v["span.share_fanout"]), math.Abs(v["obs.share_rpc"]-v["span.share_rpc"]))
	v["calib.spin_mem_ms"] = median(spins)
	v["calib.drift_pct"] = spreadOf(spins) * 100
	if dir := traced.in.cl.dir; dir != "" {
		_, _, writes := trafficOf(traced.in)
		files := fileSizes(dir)
		var total, appended int64
		for name, size := range files {
			total += size
			if grown := size - files0[name]; grown > 0 {
				appended += grown
			}
		}
		v["store.log_bytes_per_live_byte"] = float64(total) / float64(sp.sites) / float64(geometry.BlockSize*geometry.NumBlocks)
		if writes > tracedWrites0 {
			v["store.disk_bytes_per_user_byte"] = float64(appended) / float64((writes-tracedWrites0)*geometry.BlockSize)
		}
	}

	for _, l := range lanes {
		m.verify(ctx, l.in)
		m.absorb(l.in)
	}
	if err := rec.writeTo(filepath.Join(outDir, "trace-"+sp.name+".json"), sp.name); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := runLadder(ctx, e, v); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return m, nil
}

// trafficOf reads simnet's counters (read transmissions, write
// transmissions, bytes; zero on a TCP cluster) and the clients'
// completed reads and writes.
func trafficOf(in *instance) (traffic [3]uint64, reads, writes int) {
	if in.cl.trafficByOp != nil {
		traffic = [3]uint64{in.cl.trafficByOp("read"), in.cl.trafficByOp("write"), in.cl.traffic().Bytes}
	}
	reads, writes = in.opsDone()
	return
}

// obsShares reads the partition of op time the program's own obs layer
// keeps (CriticalPath): a cross-check of the spans, not a new signal.
func obsShares(in *instance, v map[string]float64) {
	var total float64
	byPhase := map[string]float64{}
	for _, p := range in.cl.profiles() {
		for _, op := range p.Ops {
			if op.Op != "read" && op.Op != "write" {
				continue
			}
			total += float64(op.TotalNs)
			for _, ph := range op.Phases {
				if !ph.Sub {
					byPhase[ph.Phase] += float64(ph.TotalNs)
				}
			}
		}
	}
	for _, name := range []string{"lock_wait", "fanout", "rpc", "local"} {
		if total > 0 {
			v["obs.share_"+name] = byPhase[name] / total
		}
	}
}

// fileSizes maps every regular file under dir to its size. Segment logs
// only grow at their end or disappear, so the growth of the files that
// are still there is what was appended.
func fileSizes(dir string) map[string]int64 {
	sizes := map[string]int64{}
	if dir == "" {
		return sizes
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				sizes[path] = info.Size()
			}
		}
		return nil
	})
	return sizes
}
