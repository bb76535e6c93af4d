package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"relidev/internal/block"
	"relidev/internal/clock"
	"relidev/internal/protocol"
)

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvOpStart})
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer retained events")
	}
}

func TestTracerRing(t *testing.T) {
	clk := clock.NewManual()
	tr := NewTracer(4, clk)
	for i := 0; i < 6; i++ {
		clk.Advance(10)
		tr.Emit(Event{Kind: EvOpStart, Block: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest first: blocks 2,3,4,5 survive the wrap.
	for i, e := range evs {
		if e.Block != int64(i+2) {
			t.Fatalf("event %d block = %d, want %d", i, e.Block, i+2)
		}
		if e.Seq != uint64(i+3) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+3)
		}
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	// Each event is stamped with the clock's reading at its emit.
	for i, e := range evs {
		if want := int64(10 * (i + 3)); e.At != want {
			t.Fatalf("event %d at = %d, want %d", i, e.At, want)
		}
	}
}

func TestTracerDefaults(t *testing.T) {
	tr := NewTracer(0, clock.Wall) // capacity defaulted
	tr.Emit(Event{Kind: EvOpEnd})
	evs := tr.Events()
	if len(evs) != 1 || evs[0].At == 0 {
		t.Fatalf("defaulted tracer events = %+v", evs)
	}
}

// TestTracerWraparoundConcurrent hammers a small ring from many
// goroutines and checks the invariants that survive wraparound: the
// ring holds exactly its capacity, retained + dropped equals emitted,
// every retained event is one of the emitted ones (no tearing: Seq and
// Detail must agree), and the retained window is the newest suffix.
func TestTracerWraparoundConcurrent(t *testing.T) {
	const (
		cap     = 64
		writers = 8
		perG    = 500
	)
	tr := NewTracer(cap, clock.NewManual())
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Event{Site: g, Kind: EvRPC, Block: int64(i), Detail: fmt.Sprintf("g%d.%d", g, i)})
			}
		}(g)
	}
	wg.Wait()

	events := tr.Events()
	if len(events) != cap {
		t.Fatalf("retained %d events, want ring capacity %d", len(events), cap)
	}
	const emitted = writers * perG
	if got := tr.Dropped() + uint64(len(events)); got != emitted {
		t.Fatalf("dropped+retained = %d, want %d emitted", got, emitted)
	}
	seen := make(map[uint64]bool, cap)
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d in ring", e.Seq)
		}
		seen[e.Seq] = true
		if want := fmt.Sprintf("g%d.%d", e.Site, e.Block); e.Detail != want {
			t.Fatalf("torn event: site %d block %d detail %q", e.Site, e.Block, e.Detail)
		}
		// The ring keeps a newest suffix: with emitted >> cap, nothing
		// from the earliest emissions can survive.
		if e.Seq <= emitted-2*cap {
			t.Fatalf("ancient seq %d survived a %d-event wrap", e.Seq, emitted)
		}
	}
}

// TestStitchPartialTreeAfterEviction models the satellite scenario:
// one site's ring wrapped and evicted the spans a remote site's handle
// spans point at. Stitching must degrade to a partial tree — the
// orphaned spans attached at the top, flagged — and never panic.
func TestStitchPartialTreeAfterEviction(t *testing.T) {
	// Trace 100: root op span (id 100) -> rpc span (id 101) -> remote
	// handle span (id 102). The rpc span's events were evicted.
	events := []Event{
		{Seq: 1, At: 10, TraceID: 100, SpanID: 100, Site: 0, Op: "write", Kind: EvOpStart},
		{Seq: 4, At: 40, TraceID: 100, SpanID: 100, Site: 0, Op: "write", Kind: EvOpEnd, Detail: "ok"},
		// span 101 (rpc, parent 100) evicted from site 0's ring.
		{Seq: 3, At: 25, TraceID: 100, SpanID: 102, ParentID: 101, Site: 2, Op: "write", Kind: EvHandle},
	}
	trees := Stitch(events)
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	tree := trees[0]
	if tree.TraceID != 100 || tree.Root == nil || tree.Root.SpanID != 100 {
		t.Fatalf("root = %+v", tree.Root)
	}
	if tree.Complete() {
		t.Fatal("tree with evicted ancestry claims completeness")
	}
	if len(tree.Orphans) != 1 || tree.Orphans[0].SpanID != 102 || !tree.Orphans[0].Orphaned {
		t.Fatalf("orphans = %+v", tree.Orphans)
	}
	if tree.Spans != 2 {
		t.Fatalf("spans = %d, want 2", tree.Spans)
	}
	if got := tree.Sites; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("sites = %v", got)
	}
	// The op span aggregated its start/end pair.
	if tree.Root.StartNs != 10 || tree.Root.EndNs != 40 || tree.Root.Kind != "op" || tree.Root.Detail != "ok" {
		t.Fatalf("root aggregation = %+v", tree.Root)
	}

	// A fully intact trace alongside stays complete.
	intact := append(events,
		Event{Seq: 5, At: 50, TraceID: 200, SpanID: 200, Site: 1, Op: "read", Kind: EvOpStart},
		Event{Seq: 6, At: 55, TraceID: 200, SpanID: 201, ParentID: 200, Site: 1, Op: "read", Kind: EvRPC},
		Event{Seq: 7, At: 60, TraceID: 200, SpanID: 200, Site: 1, Op: "read", Kind: EvOpEnd},
	)
	trees = Stitch(intact)
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2", len(trees))
	}
	if !trees[1].Complete() || trees[1].TraceID != 200 || len(trees[1].Root.Children) != 1 {
		t.Fatalf("intact tree = %+v", trees[1])
	}
}

// TestStitchDeterministicOrder: stitching the same multiset of events
// in different input orders yields identical trees.
func TestStitchDeterministicOrder(t *testing.T) {
	events := []Event{
		{At: 1, TraceID: 1, SpanID: 1, Kind: EvOpStart, Site: 0},
		{At: 2, TraceID: 1, SpanID: 2, ParentID: 1, Kind: EvRPC, Site: 0},
		{At: 2, TraceID: 1, SpanID: 3, ParentID: 1, Kind: EvRPC, Site: 0},
		{At: 3, TraceID: 1, SpanID: 4, ParentID: 2, Kind: EvHandle, Site: 1},
		{At: 9, TraceID: 1, SpanID: 1, Kind: EvOpEnd, Site: 0},
		{At: 5, TraceID: 7, SpanID: 7, Kind: EvOpStart, Site: 2},
	}
	a := Stitch(events)
	rev := make([]Event, len(events))
	for i, e := range events {
		rev[len(events)-1-i] = e
	}
	b := Stitch(rev)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("order-dependent stitch:\n%s\nvs\n%s", ja, jb)
	}
	if len(a) != 2 || a[0].TraceID != 1 || len(a[0].Root.Children) != 2 {
		t.Fatalf("trees = %s", ja)
	}
	// Equal-start children tie-break by SpanID.
	if a[0].Root.Children[0].SpanID != 2 || a[0].Root.Children[1].SpanID != 3 {
		t.Fatalf("child order = %+v", a[0].Root.Children)
	}
}

// TestTraceDetailGolden emits every event kind through the record path
// and compares what Events renders with the string the emitters used
// to build with fmt.Sprintf on the hot path — byte for byte, since
// /trace consumers and criticalpath's Sscanf parse these.
func TestTraceDetailGolden(t *testing.T) {
	clk := clock.NewManual()
	o := New(WithClock(clk), WithTracing(256))
	s := o.SchemeSite("voting", 2)
	bg := context.Background()
	bigVer := block.Version(1<<63 + 5) // must print unsigned

	var want []string // Kind + " " + Detail, in emission order
	expect := func(kind, detail string) { want = append(want, kind+" "+detail) }

	o.HandleHook("voting", 2)(bg, 4, protocol.VoteRequest{Block: 9})
	expect(EvHandle, fmt.Sprintf("req=%s from=%v", "vote", protocol.SiteID(4)))

	ctx, sp := s.StartOp(bg, protocol.OpRead, 9)
	expect(EvOpStart, "")
	sp.AddLockWait(10)
	protocol.CtxPhases(ctx).RecordPhase(protocol.PhaseFanout, 30)
	protocol.CtxPhases(ctx).RecordPhase(protocol.PhaseStraggler, 7)
	s.QuorumAssembled(protocol.OpRead, 9, 3, 3001)
	expect(EvQuorumAssembled, fmt.Sprintf("participants=%d weight=%d", 3, int64(3001)))
	s.VersionResolved(protocol.OpRead, 9, bigVer)
	expect(EvVersionResolved, fmt.Sprintf("version=%d", uint64(bigVer)))
	s.LazyRefresh(9, 4, bigVer)
	expect(EvLazyRefresh, fmt.Sprintf("from=%v version=%d", protocol.SiteID(4), uint64(bigVer)))
	clk.Advance(50) // total 60: lock_wait 10, fanout 30, local 20, straggler 7
	sp.Done(3, nil)
	for _, p := range []struct {
		name string
		ns   int64
	}{{protocol.PhaseLockWait, 10}, {protocol.PhaseFanout, 30}, {protocol.PhaseLocal, 20}, {protocol.PhaseStraggler, 7}} {
		expect(EvPhase, fmt.Sprintf("phase=%s dur_ns=%d", p.name, p.ns))
	}
	expect(EvOpEnd, fmt.Sprintf("participants=%d", 3))

	for _, err := range []error{protocol.ErrSiteDown, protocol.ErrTransient, context.Canceled, errTestInjected, errors.New("disk")} {
		_, sp := s.StartOp(bg, protocol.OpWrite, 1)
		expect(EvOpStart, "")
		sp.Done(0, err)
		expect(EvOpEnd, "err="+classifyError(err))
	}

	ft := &fakeTransport{results: map[protocol.SiteID]protocol.Result{1: {Err: protocol.ErrSiteDown}}}
	mt := WrapTransport(o, "sim", ft, nil)
	dests := []protocol.SiteID{0, 1, 3, 4}
	mt.Call(bg, 2, 3, fakeReq{})
	expect(EvRPC, fmt.Sprintf("call to=%v req=%s", protocol.SiteID(3), "fake"))
	mt.Fetch(bg, 2, 0, fakeReq{})
	expect(EvRPC, fmt.Sprintf("fetch to=%v req=%s", protocol.SiteID(0), "fake"))
	ft.callErr, ft.fetchErr = protocol.ErrSiteUnreachable, errTestExotic
	mt.Call(bg, 2, 3, fakeReq{})
	expect(EvRPC, fmt.Sprintf("call to=%v req=%s", protocol.SiteID(3), "fake")+" err="+ClassUnreachable)
	mt.Fetch(bg, 2, 63, fakeReq{})
	expect(EvRPC, fmt.Sprintf("fetch to=%v req=%s", protocol.SiteID(63), "fake")+" err=exotic")
	mt.Broadcast(bg, 2, dests, protocol.VoteRequest{})
	expect(EvRPC, fmt.Sprintf("broadcast dests=%d req=%s", 4, "vote")) // per-destination errors are not the span's
	mt.Notify(bg, 2, dests[:1], protocol.PutRequest{})
	expect(EvRPC, fmt.Sprintf("notify dests=%d req=%s", 1, "put"))

	// Off the per-op path the emitters still hand over finished text.
	s.WTransition(0b111, 0b011)
	expect(EvWTransition, "{0,1,2}->{0,1}")
	s.ClosureRecomputed(0b001, 0b011, false)
	expect(EvClosureRecomputed, "root={0} closure={0,1} complete=false")
	o.Tracer().Emit(Event{Kind: EvRPC, Detail: "free text"})
	expect(EvRPC, "free text")

	evs := o.Tracer().Events()
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i, e := range evs {
		if got := e.Kind + " " + e.Detail; got != want[i] {
			t.Errorf("event %d = %q, want %q", i, got, want[i])
		}
	}

	// The phase events still parse the way criticalpath reads them.
	trees := o.TraceTrees()
	var phases map[string]int64
	for _, tr := range trees {
		if tr.Root != nil && tr.Root.Op == protocol.OpRead {
			phases = SpanPhases(tr.Root)
		}
	}
	if len(phases) != 4 || phases[protocol.PhaseLockWait] != 10 || phases[protocol.PhaseFanout] != 30 ||
		phases[protocol.PhaseLocal] != 20 || phases[protocol.PhaseStraggler] != 7 {
		t.Errorf("SpanPhases of the read = %v", phases)
	}
}
