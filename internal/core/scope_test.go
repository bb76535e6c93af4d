package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"relidev/internal/block"
	"relidev/internal/obs"
	"relidev/internal/protocol"
)

// TestOpScopesStayTheirOps: an op's scope is the slot of the lock
// stripe it holds, reused by the next op on that stripe, and the
// recovery exclusion's slot is shared by every recovery. On a traced
// available-copy cluster two clients hammer blocks b and b+64 (one
// stripe), and a third block b+1 (the next stripe), while a restarted
// site recovers through a paged exchange,
// whose next-page request runs on a goroutine of its own. Every op's
// phase partition must sum to its latency, and every span must sit in
// its own op's trace. Run it under -race (make obs-race): a slot
// touched outside the lock that owns it is a data race.
func TestOpScopesStayTheirOps(t *testing.T) {
	geom := block.Geometry{BlockSize: 32 << 10, NumBlocks: 96} // three 1 MiB recovery pages
	o := obs.New(obs.WithTracing(1 << 16))
	spy := &pageSpy{}
	cl, err := NewCluster(ClusterConfig{Sites: 3, Geometry: geom, Scheme: AvailableCopy, Observer: o,
		WrapTransport: func(inner protocol.Transport) protocol.Transport {
			spy.Transport = inner
			return spy
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dev, err := cl.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Fail(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < geom.NumBlocks; i++ {
		if err := dev.WriteBlock(ctx, block.Index(i), bytes.Repeat([]byte{byte(i)}, geom.BlockSize)); err != nil {
			t.Fatal(err)
		}
	}

	const b = 5
	var wg sync.WaitGroup
	for _, idx := range []block.Index{b, b + 64, b + 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(idx)}, geom.BlockSize)
			for range 40 {
				if err := dev.WriteBlock(ctx, idx, data); err != nil {
					t.Error(err)
					return
				}
				if got, err := dev.ReadBlock(ctx, idx); err != nil || !bytes.Equal(got, data) {
					t.Errorf("block %d read back wrong (err=%v)", idx, err)
					return
				}
			}
		}()
	}
	if err := cl.Restart(ctx, 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if spy.pages < 2 {
		t.Fatalf("recovery took %d page(s); the test needs a paged exchange", spy.pages)
	}

	// Per op, the partition phases are at least its latency (the local
	// residual is clamped at zero), so equal sums over all ops mean
	// every op's partition equals its latency.
	snap := o.Snapshot()
	for _, op := range []string{protocol.OpWrite, protocol.OpRead, protocol.OpRecovery} {
		var lat, part obs.HistogramPoint
		for _, h := range snap.Histograms {
			if h.Labels["op"] != op {
				continue
			}
			switch {
			case h.Name == obs.MetricOpLatency:
				lat.Count += h.Count
				lat.Sum += h.Sum
			case h.Name == obs.MetricOpPhase && h.Labels["phase"] != protocol.PhaseStraggler:
				part.Count += h.Count
				part.Sum += h.Sum
			}
		}
		if lat.Count == 0 || part.Count != 4*lat.Count || part.Sum != lat.Sum {
			t.Errorf("%s: %d ops, %d ns; partition phases %d observations, %d ns",
				op, lat.Count, lat.Sum, part.Count, part.Sum)
		}
	}

	if d := o.Tracer().Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	var inTrace func(tr uint64, sp *obs.Span)
	inTrace = func(tr uint64, sp *obs.Span) {
		if sp.TraceID != tr {
			t.Errorf("%s span %d of trace %d parents into trace %d", sp.Kind, sp.SpanID, sp.TraceID, tr)
		}
		for _, c := range sp.Children {
			inTrace(tr, c)
		}
	}
	ops := 0
	for _, tree := range obs.Stitch(o.Tracer().Events()) {
		if !tree.Complete() {
			t.Errorf("trace %d: root %v, %d orphans", tree.TraceID, tree.Root != nil, len(tree.Orphans))
			continue
		}
		ops++
		inTrace(tree.TraceID, tree.Root)
	}
	if want := 3*40*2 + geom.NumBlocks + 1; ops < want {
		t.Errorf("%d op traces, want at least %d", ops, want)
	}
}
