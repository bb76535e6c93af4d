package flight

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/protocol"
)

// TestMetricsDeltaSource: the delta probe reports every series on its
// first frame, only changed series afterwards, with sorted stable
// lines.
func TestMetricsDeltaSource(t *testing.T) {
	o := obs.New(obs.WithClock(clock.NewManual()))
	c := o.Registry().Counter("relidev_probe_total", obs.L("site", "site0"))
	g := o.Registry().Gauge("relidev_probe_depth")
	c.Add(2)
	g.Set(5)

	src := MetricsDelta(o)
	first := src.Collect().([]string)
	want := []string{
		"relidev_probe_depth 5 (+5)",
		"relidev_probe_total{site=site0} 2 (+2)",
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("first frame = %v, want %v", first, want)
	}

	// Unchanged registry → empty delta.
	if second, _ := src.Collect().([]string); len(second) != 0 {
		t.Fatalf("unchanged frame = %v, want empty", second)
	}

	c.Inc()
	g.Set(3)
	third := src.Collect().([]string)
	want = []string{
		"relidev_probe_depth 3 (-2)",
		"relidev_probe_total{site=site0} 3 (+1)",
	}
	if !reflect.DeepEqual(third, want) {
		t.Fatalf("changed frame = %v, want %v", third, want)
	}
}

// TestTraceTailSource: the tail probe renders the last n events and
// reports nil with tracing off.
func TestTraceTailSource(t *testing.T) {
	off := obs.New(obs.WithClock(clock.NewManual()))
	if v := TraceTail(off, 4).Collect(); v != nil {
		t.Fatalf("tracing off: tail = %v, want nil", v)
	}

	o := obs.New(obs.WithClock(clock.NewManual()), obs.WithTracing(64))
	s := o.SchemeSite("voting", 0)
	for i := 0; i < 3; i++ {
		_, sp := s.StartOp(context.Background(), protocol.OpWrite, int64(i))
		sp.Done(1, nil)
	}
	lines := TraceTail(o, 2).Collect().([]string)
	if len(lines) != 2 {
		t.Fatalf("tail kept %d lines, want 2", len(lines))
	}
	for _, l := range lines {
		if l == "" {
			t.Error("empty tail line")
		}
	}
}

// TestTraceTailOrderIsScheduleNotScheduler: whatever order concurrent
// emitters reached the ring in, the tail renders by (time, site) with
// each site's own order kept, and a run of per-peer lane events (a
// repairer's donor workers) in peer order with each lane's order kept.
func TestTraceTailOrderIsScheduleNotScheduler(t *testing.T) {
	render := func(arrival []obs.Event) []string {
		clk := clock.NewManual()
		o := obs.New(obs.WithClock(clk), obs.WithTracing(64))
		clk.Advance(5)
		for _, e := range arrival {
			o.Tracer().Emit(e) // stamped at=5: the schedule clock stands still inside a step
		}
		return TraceTail(o, 64).Collect().([]string)
	}
	ev := func(site, lane int, detail string) obs.Event {
		return obs.Event{Site: site, Lane: lane, Kind: obs.EvRPC, Block: obs.NoBlock, Detail: detail}
	}
	// One instant: site 0 fans out (sites 1..3 handle concurrently), then
	// site 2 repairs from donors 0 and 3 at once between two sequential
	// events of its own.
	a := render([]obs.Event{
		ev(0, 0, "start"), ev(3, 0, "h3"), ev(1, 0, "h1"), ev(2, 0, "h2"), ev(0, 0, "end"),
		ev(2, 0, "enlisted"), ev(2, 4, "d3.p1"), ev(2, 1, "d0.p1"), ev(2, 4, "d3.p2"), ev(2, 1, "d0.p2"), ev(2, 0, "done"),
	})
	b := render([]obs.Event{
		ev(0, 0, "start"), ev(1, 0, "h1"), ev(2, 0, "h2"), ev(3, 0, "h3"), ev(0, 0, "end"),
		ev(2, 0, "enlisted"), ev(2, 1, "d0.p1"), ev(2, 1, "d0.p2"), ev(2, 4, "d3.p1"), ev(2, 4, "d3.p2"), ev(2, 0, "done"),
	})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two interleavings of one schedule render differently:\n%v\n%v", a, b)
	}
	var details []string
	for _, l := range a {
		details = append(details, l[strings.LastIndex(l, " ")+1:])
	}
	want := []string{"start", "end", "h1", "h2", "enlisted", "d0.p1", "d0.p2", "d3.p1", "d3.p2", "done", "h3"}
	if !reflect.DeepEqual(details, want) {
		t.Fatalf("tail order = %v, want %v", details, want)
	}
}

// TestSuspectsSource renders the detector's suspect set.
func TestSuspectsSource(t *testing.T) {
	var set protocol.SiteSet
	set = set.Add(2).Add(0)
	got := Suspects(func() protocol.SiteSet { return set }).Collect()
	if got != set.String() {
		t.Errorf("suspects = %v, want %v", got, set.String())
	}
}
