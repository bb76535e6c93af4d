package flight

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/tsdb"
	"relidev/internal/protocol"
)

// rig is a recorder over a real observer's registry and tracer, a ring
// sampled by hand one tick apart, and one probe.
type rig struct {
	clk *clock.Manual
	o   *obs.Observer
	db  *tsdb.DB
	rec *Recorder
}

func newRig(retain int) *rig {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk), obs.WithTracing(256))
	db := tsdb.New(tsdb.Config{Clock: clk, Source: o.Snapshot, StepNs: 1, Retain: retain})
	return &rig{clk: clk, o: o, db: db,
		rec: New(clk, db, o.Tracer(), Source{Name: "static", Collect: func() any { return "s" }})}
}

func (r *rig) sample() {
	r.clk.Advance(1)
	r.db.Sample()
}

// points returns the dump's points of one series.
func points(d *Dump, name string) []tsdb.Point {
	for _, s := range d.Timeseries.Series {
		if s.Name == name {
			return s.Points
		}
	}
	return nil
}

// TestMetricsDeltaSource: the dump's timeseries is the registry's
// history as deltas — a counter's steps, a gauge's levels — of exactly
// the samples the ring took.
func TestMetricsDeltaSource(t *testing.T) {
	r := newRig(8)
	c := r.o.Registry().Counter("relidev_probe_total", obs.L("site", "site0"))
	g := r.o.Registry().Gauge("relidev_probe_depth")
	c.Add(2)
	g.Set(5)
	r.sample()
	r.sample() // nothing moved: the counter has no point here
	c.Inc()
	g.Set(3)
	r.sample()

	d := r.rec.Seal("test")
	if d.Steps != 3 || d.Timeseries.FromNs != 1 || d.Timeseries.ToNs != 3 {
		t.Fatalf("dump holds %d steps %d..%d, want 3 steps 1..3", d.Steps, d.Timeseries.FromNs, d.Timeseries.ToNs)
	}
	var deltas, levels []float64
	for _, p := range points(d, "relidev_probe_total") {
		deltas = append(deltas, p.Value)
	}
	for _, p := range points(d, "relidev_probe_depth") {
		levels = append(levels, p.Value)
	}
	if !reflect.DeepEqual(deltas, []float64{2, 1}) || !reflect.DeepEqual(levels, []float64{5, 5, 3}) {
		t.Fatalf("counter deltas %v, gauge levels %v; want [2 1] and [5 5 3]", deltas, levels)
	}
}

// TestRingEviction: a dump keeps the newest Steps samples of a longer
// ring, oldest first.
func TestRingEviction(t *testing.T) {
	r := newRig(2 * Steps)
	c := r.o.Registry().Counter("relidev_probe_total")
	for i := 0; i < Steps+10; i++ {
		c.Inc()
		r.sample()
	}
	d := r.rec.Seal("test")
	if d.Steps != Steps || d.Timeseries.FromNs != 11 || d.Timeseries.ToNs != Steps+10 {
		t.Fatalf("dump holds %d steps %d..%d, want the newest %d: 11..%d",
			d.Steps, d.Timeseries.FromNs, d.Timeseries.ToNs, Steps, Steps+10)
	}
	if got := len(points(d, "relidev_probe_total")); got != Steps {
		t.Fatalf("counter has %d points, want %d", got, Steps)
	}
}

// TestSealIsNonDestructive: sealing reads the rings; samples keep
// accumulating, a later seal sees old and new, and a dump handed out
// earlier does not change under its holder.
func TestSealIsNonDestructive(t *testing.T) {
	r := newRig(8)
	c := r.o.Registry().Counter("relidev_probe_total")
	c.Inc()
	r.sample()
	d1 := r.rec.Seal("first")
	if d1.Steps != 1 || r.db.Len() != 1 {
		t.Fatalf("first seal: %d steps, ring holds %d; want 1 and 1", d1.Steps, r.db.Len())
	}
	before, _ := json.Marshal(d1)
	c.Inc()
	r.sample()
	if d2 := r.rec.Seal("second"); d2.Steps != 2 || len(points(d2, "relidev_probe_total")) != 2 {
		t.Fatalf("second seal holds %d steps, want 2", d2.Steps)
	}
	if after, _ := json.Marshal(d1); !bytes.Equal(before, after) {
		t.Errorf("a sealed dump changed when the ring moved on:\n%s\n---\n%s", before, after)
	}
}

// TestDeterministicDump: two recorders fed the same clock, traffic and
// probes produce byte-identical JSON dumps.
func TestDeterministicDump(t *testing.T) {
	run := func() []byte {
		r := newRig(4)
		s := r.o.SchemeSite("voting", 0)
		for i := 0; i < 3; i++ {
			_, sp := s.StartOp(context.Background(), protocol.OpWrite, int64(i))
			sp.Done(3, nil)
			r.sample()
		}
		out, err := json.Marshal(r.rec.Seal("violation"))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("dumps differ between identical runs:\n%s\n---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"probes":[{"source":"static","value":"s"}]`)) {
		t.Errorf("dump lacks the probe, read at the seal:\n%s", a)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if d := r.Seal("x"); d != nil {
		t.Errorf("nil recorder sealed %v", d)
	}
	rec := httptest.NewRecorder()
	Handler(nil)(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 404 {
		t.Errorf("nil handler status = %d, want 404", rec.Code)
	}
}

// TestHandlerSnapshotsAndSeals: a GET is an on-demand dump of the rings
// as they stand, probes read then.
func TestHandlerSnapshotsAndSeals(t *testing.T) {
	r := newRig(4)
	reads := 0
	r.rec.probes = []Source{{Name: "probe", Collect: func() any { reads++; return "v" }}}
	r.o.Registry().Counter("relidev_probe_total").Inc()
	r.sample()

	rec := httptest.NewRecorder()
	Handler(r.rec)(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("dump JSON: %v", err)
	}
	if d.Trigger != "http request" || d.Steps != 1 || len(d.Probes) != 1 {
		t.Fatalf("dump = %+v, want an http-request dump of one step and one probe", d)
	}
	if reads != 1 {
		t.Errorf("probe read %d times, want once, at the seal", reads)
	}
}

// TestTraceTailSource: the dump carries the last TraceEvents events,
// one rendered line each, and no tail with tracing off.
func TestTraceTailSource(t *testing.T) {
	clk := clock.NewManual()
	off := obs.New(obs.WithClock(clk))
	if d := New(clk, nil, off.Tracer()).Seal("x"); d.TraceTail != nil {
		t.Fatalf("tracing off: tail = %v, want none", d.TraceTail)
	}

	r := newRig(4)
	s := r.o.SchemeSite("voting", 0)
	for i := 0; i < TraceEvents; i++ { // three events an op: the ring outgrows the tail
		_, sp := s.StartOp(context.Background(), protocol.OpWrite, int64(i))
		sp.Done(1, nil)
	}
	lines := r.rec.Seal("x").TraceTail
	if len(lines) != TraceEvents {
		t.Fatalf("tail kept %d lines, want %d", len(lines), TraceEvents)
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, fmt.Sprintf("kind=op_end op=write block=%d participants=1", TraceEvents-1)) {
		t.Errorf("tail does not end with the newest event, rendered: %q", last)
	}
}

// TestTraceTailOrderIsScheduleNotScheduler: whatever order concurrent
// emitters reached the ring in, the tail renders by (time, site) with
// each site's own order kept, and a run of per-peer lane events (round
// trips in flight at once) in peer order with each lane's order kept.
func TestTraceTailOrderIsScheduleNotScheduler(t *testing.T) {
	render := func(arrival []obs.Event) []string {
		r := newRig(4)
		r.clk.Advance(5)
		for _, e := range arrival {
			r.o.Tracer().Emit(e) // stamped at=5: the schedule clock stands still inside a step
		}
		return r.rec.Seal("x").TraceTail
	}
	ev := func(site, lane int, detail string) obs.Event {
		return obs.Event{Site: site, Lane: lane, Kind: obs.EvRPC, Block: obs.NoBlock, Detail: detail}
	}
	// One instant: site 0 fans out (sites 1..3 handle concurrently), then
	// site 2 has round trips to sites 0 and 3 in flight at once between
	// two sequential events of its own.
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

// TestConcurrentHTTPSealDuringWraparound hammers one recorder from
// three directions at once — samplers wrapping the ring continuously
// while ops emit into the trace ring, HTTP readers sealing through the
// /debug/flight handler, and direct sealers (the alert engine's hook) —
// and checks every dump stays coherent. Run under -race this is the
// recorder's concurrency contract: a seal taken mid-wraparound is a
// well-formed window of consecutive samples.
func TestConcurrentHTTPSealDuringWraparound(t *testing.T) {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk), obs.WithTracing(32))
	db := tsdb.New(tsdb.Config{Clock: clk, Source: o.Snapshot, StepNs: 1, Retain: 8})
	rec := New(clk, db, o.Tracer(), Source{Name: "load", Collect: func() any { return db.Len() }})
	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()

	const writers, sealers, rounds = 4, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := o.SchemeSite("voting", protocol.SiteID(w))
			for i := 0; i < rounds; i++ {
				_, sp := s.StartOp(context.Background(), protocol.OpWrite, int64(i))
				sp.Done(1, nil)
				clk.Advance(1)
				db.Sample() // far more samples than the ring holds
			}
		}(w)
	}
	errs := make(chan error, sealers*2)
	for s := 0; s < sealers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				resp, err := srv.Client().Get(srv.URL)
				if err != nil {
					errs <- err
					return
				}
				var d Dump
				err = json.NewDecoder(resp.Body).Decode(&d)
				resp.Body.Close()
				if err == nil {
					err = checkDump(&d, 8)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				if err := checkDump(rec.Seal(fmt.Sprintf("slo sealer%d budget exhausted", s)), 8); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if last := rec.Seal("final"); last.Steps != 8 {
		t.Fatalf("final dump holds %d steps, want a full ring", last.Steps)
	}
}

// checkDump verifies a sealed dump is internally consistent: no more
// steps than the ring holds, every series' points in strictly
// increasing time inside the dump's window (no torn read of a frame
// mid-overwrite), and the probe present.
func checkDump(d *Dump, retain int) error {
	if d == nil {
		return fmt.Errorf("nil dump")
	}
	if d.Steps > retain || len(d.TraceTail) > TraceEvents {
		return fmt.Errorf("dump holds %d steps and %d events, ring holds %d and the tail %d", d.Steps, len(d.TraceTail), retain, TraceEvents)
	}
	for _, s := range d.Timeseries.Series {
		prev := d.Timeseries.FromNs - 1
		for _, p := range s.Points {
			if p.AtNs <= prev || p.AtNs > d.Timeseries.ToNs+d.Timeseries.StepNs {
				return fmt.Errorf("series %s: point at %d after %d in window %d..%d", s.Name, p.AtNs, prev, d.Timeseries.FromNs, d.Timeseries.ToNs)
			}
			prev = p.AtNs
		}
	}
	if len(d.Probes) != 1 || d.Probes[0].Source != "load" {
		return fmt.Errorf("dump lost its probe: %+v", d.Probes)
	}
	return nil
}
