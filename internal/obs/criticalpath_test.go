package obs

import (
	"context"
	"strings"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/protocol"
)

// TestPhasePartitionExact pins the partition invariant at its source:
// lock_wait + fanout + rpc + local equals the measured end-to-end
// latency exactly, with the straggler sub-phase re-slicing fanout
// rather than adding to the sum.
func TestPhasePartitionExact(t *testing.T) {
	clk := clock.NewManual()
	o := New(WithClock(clk), WithTracing(256))
	s := o.SchemeSite("voting", 0)

	ctx, sp := s.StartOp(context.Background(), protocol.OpWrite, 3)
	sp.AddLockWait(40) // backdates the span start
	rec := protocol.CtxPhases(ctx)
	if rec == nil {
		t.Fatal("StartOp did not attach a phase recorder to the context")
	}
	rec.RecordPhase(protocol.PhaseFanout, 100)
	rec.RecordPhase(protocol.PhaseRPC, 25)
	rec.RecordPhase(protocol.PhaseStraggler, 60)
	rec.RecordPeerRTT(1, 90)
	clk.Advance(200) // end-to-end = 200 - (0 - 40) = 240
	sp.Done(3, nil)

	p := o.CriticalPath()
	if len(p.Ops) != 1 {
		t.Fatalf("profile has %d op aggregates, want 1", len(p.Ops))
	}
	op := p.Ops[0]
	if op.Scheme != "voting" || op.Op != protocol.OpWrite || op.Count != 1 {
		t.Fatalf("op aggregate = %s/%s n=%d, want voting/%s n=1", op.Scheme, op.Op, op.Count, protocol.OpWrite)
	}
	if op.TotalNs != 240 {
		t.Fatalf("TotalNs = %d, want 240 (lock wait must backdate the span start)", op.TotalNs)
	}
	if op.PartitionNs != op.TotalNs {
		t.Fatalf("PartitionNs = %d, TotalNs = %d: partition phases must sum to end-to-end latency exactly", op.PartitionNs, op.TotalNs)
	}
	if op.Coverage != 1.0 {
		t.Fatalf("Coverage = %v, want exactly 1.0", op.Coverage)
	}

	want := map[string]struct {
		ns  uint64
		sub bool
	}{
		protocol.PhaseLockWait:  {40, false},
		protocol.PhaseFanout:    {100, false},
		protocol.PhaseRPC:       {25, false},
		protocol.PhaseLocal:     {75, false}, // residual: 240 - 40 - 100 - 25
		protocol.PhaseStraggler: {60, true},
	}
	if len(op.Phases) != len(want) {
		t.Fatalf("op has %d phases, want %d: %+v", len(op.Phases), len(want), op.Phases)
	}
	for _, ph := range op.Phases {
		w, ok := want[ph.Phase]
		if !ok {
			t.Errorf("unexpected phase %q", ph.Phase)
			continue
		}
		if ph.TotalNs != w.ns {
			t.Errorf("phase %s TotalNs = %d, want %d", ph.Phase, ph.TotalNs, w.ns)
		}
		if ph.Sub != w.sub {
			t.Errorf("phase %s Sub = %v, want %v", ph.Phase, ph.Sub, w.sub)
		}
		if wantShare := float64(w.ns) / 240; ph.Share != wantShare {
			t.Errorf("phase %s Share = %v, want %v", ph.Phase, ph.Share, wantShare)
		}
	}

	// The per-peer RTT series sees the fan-out destination.
	snap := o.Snapshot()
	foundRTT := false
	for _, h := range snap.Histograms {
		if h.Name == MetricPeerRTT && h.Labels["peer"] == "site1" {
			foundRTT = true
			if h.Sum != 90 || h.Count != 1 {
				t.Errorf("peer RTT histogram = n=%d sum=%d, want n=1 sum=90", h.Count, h.Sum)
			}
		}
	}
	if !foundRTT {
		t.Error("no fanout peer RTT series for peer 1")
	}
}

// TestPhasePartitionClampsPipelinedOverlap: when attributed wire time
// exceeds wall time (pipelined fetches under one span), the local
// residual clamps at zero instead of going negative, and Coverage
// reports the overshoot honestly (> 1).
func TestPhasePartitionClampsPipelinedOverlap(t *testing.T) {
	clk := clock.NewManual()
	o := New(WithClock(clk))
	s := o.SchemeSite("ac", 1)

	ctx, sp := s.StartOp(context.Background(), protocol.OpRecovery, NoBlock)
	rec := protocol.CtxPhases(ctx)
	rec.RecordPhase(protocol.PhaseRPC, 300) // three overlapped 100ns fetches
	clk.Advance(120)
	sp.Done(2, nil)

	p := o.CriticalPath()
	if len(p.Ops) != 1 {
		t.Fatalf("profile has %d op aggregates, want 1", len(p.Ops))
	}
	op := p.Ops[0]
	if op.TotalNs != 120 {
		t.Fatalf("TotalNs = %d, want 120", op.TotalNs)
	}
	for _, ph := range op.Phases {
		if ph.Phase == protocol.PhaseLocal && ph.TotalNs != 0 {
			t.Errorf("local residual = %d, want 0 (clamped)", ph.TotalNs)
		}
	}
	if op.Coverage <= 1.0 {
		t.Errorf("Coverage = %v, want > 1 for pipelined overlap", op.Coverage)
	}
}

// TestFailedOpsRecordNoPhases: error outcomes skip latency and phase
// observation entirely, so the partition invariant is never diluted by
// half-measured operations.
func TestFailedOpsRecordNoPhases(t *testing.T) {
	clk := clock.NewManual()
	o := New(WithClock(clk))
	s := o.SchemeSite("naive", 0)
	ctx, sp := s.StartOp(context.Background(), protocol.OpRead, 1)
	protocol.CtxPhases(ctx).RecordPhase(protocol.PhaseRPC, 50)
	clk.Advance(80)
	sp.Done(0, context.DeadlineExceeded)

	p := o.CriticalPath()
	if len(p.Ops) != 0 {
		t.Fatalf("failed op produced %d profile entries, want 0", len(p.Ops))
	}
}

// TestMergeHist merges bucket sets with disjoint and shared bounds and
// keeps the overflow bucket last.
func TestMergeHist(t *testing.T) {
	a := HistogramPoint{Name: "h", Count: 3, Sum: 90, Buckets: []BucketCount{
		{UpperNs: 10, Count: 1}, {UpperNs: 100, Count: 2},
	}}
	b := HistogramPoint{Name: "h", Count: 4, Sum: 5000, Buckets: []BucketCount{
		{UpperNs: 100, Count: 1}, {UpperNs: 1000, Count: 2}, {UpperNs: -1, Count: 1},
	}}
	m := mergeHist(a, b)
	if m.Count != 7 || m.Sum != 5090 {
		t.Fatalf("merged count/sum = %d/%d, want 7/5090", m.Count, m.Sum)
	}
	want := []BucketCount{
		{UpperNs: 10, Count: 1}, {UpperNs: 100, Count: 3},
		{UpperNs: 1000, Count: 2}, {UpperNs: -1, Count: 1},
	}
	if len(m.Buckets) != len(want) {
		t.Fatalf("merged buckets = %+v, want %+v", m.Buckets, want)
	}
	for i, bk := range m.Buckets {
		if bk != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, bk, want[i])
		}
	}
}

// TestFlameRendering: the text flamegraph is deterministic, carries
// the partition header, and indents sub-phases under their parent.
func TestFlameRendering(t *testing.T) {
	clk := clock.NewManual()
	o := New(WithClock(clk))
	s := o.SchemeSite("voting", 0)
	ctx, sp := s.StartOp(context.Background(), protocol.OpWrite, 0)
	rec := protocol.CtxPhases(ctx)
	rec.RecordPhase(protocol.PhaseFanout, 800)
	rec.RecordPhase(protocol.PhaseStraggler, 200)
	clk.Advance(1000)
	sp.Done(3, nil)

	p := o.CriticalPath()
	flame := p.Flame()
	if !strings.HasPrefix(flame, "critical path — phase attribution (lock_wait+fanout+rpc+local = end-to-end)") {
		t.Fatalf("flame header missing:\n%s", flame)
	}
	if !strings.Contains(flame, "voting/write") {
		t.Errorf("flame lacks the scheme/op line:\n%s", flame)
	}
	if !strings.Contains(flame, "(within fanout)") {
		t.Errorf("flame lacks the straggler sub-phase annotation:\n%s", flame)
	}
	if flame != p.Flame() {
		t.Error("Flame() is not deterministic for a fixed profile")
	}
}

func TestFlameBar(t *testing.T) {
	cases := []struct {
		share float64
		want  int
	}{{0, 0}, {0.5, 16}, {1, 32}, {1.5, 32}, {-0.2, 0}}
	for _, c := range cases {
		if got := len(flameBar(c.share)); got != c.want {
			t.Errorf("flameBar(%v) width = %d, want %d", c.share, got, c.want)
		}
	}
}

// TestSpanPhases: the EvPhase children of a traced op span carry the
// partition back out through the stitcher.
func TestSpanPhases(t *testing.T) {
	clk := clock.NewManual()
	o := New(WithClock(clk), WithTracing(256))
	s := o.SchemeSite("ac", 0)
	ctx, sp := s.StartOp(context.Background(), protocol.OpWrite, 7)
	sp.AddLockWait(10)
	protocol.CtxPhases(ctx).RecordPhase(protocol.PhaseFanout, 30)
	clk.Advance(50) // total = 60, local residual = 20
	sp.Done(2, nil)

	trees := o.TraceTrees()
	if len(trees) != 1 || trees[0].Root == nil {
		t.Fatalf("stitched %d trees (root=%v), want 1 rooted tree", len(trees), len(trees) > 0 && trees[0].Root != nil)
	}
	got := SpanPhases(trees[0].Root)
	want := map[string]int64{
		protocol.PhaseLockWait: 10,
		protocol.PhaseFanout:   30,
		protocol.PhaseLocal:    20,
	}
	if len(got) != len(want) {
		t.Fatalf("SpanPhases = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("SpanPhases[%s] = %d, want %d", k, got[k], v)
		}
	}

	byOp := TreePhases(trees[0])
	if sum := byOp["ac/write"]; sum[protocol.PhaseFanout] != 30 || sum[protocol.PhaseLocal] != 20 {
		t.Errorf("TreePhases[ac/write] = %v, want fanout=30 local=20", sum)
	}
}
