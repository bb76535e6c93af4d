package obs_test

import (
	"context"
	"fmt"
	"testing"

	"relidev/internal/analysis"
	"relidev/internal/block"
	"relidev/internal/clock"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/simnet"
)

// The integration test drives a real cluster through a mixed workload —
// failure-free writes and reads, a degraded phase with one site down,
// restart and recovery, post-recovery reads — with the observability
// layer attached, then holds the observed per-operation message counts
// against the §5 formulas in strict mode. Every §5 cost is affine in
// the participation level U, so feeding the *measured* mean U into the
// formulas must reproduce the observed traffic exactly, for every
// scheme in both network modes.
func TestClusterConformanceStrict(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		for _, mode := range []simnet.Mode{simnet.Multicast, simnet.Unicast} {
			t.Run(fmt.Sprintf("%v/%v", kind, mode), func(t *testing.T) {
				runConformanceWorkload(t, kind, mode)
			})
		}
	}
}

func runConformanceWorkload(t *testing.T, kind core.SchemeKind, mode simnet.Mode) {
	const n = 5
	o := obs.New(obs.WithClock(clock.NewManual()), obs.WithTracing(1<<14))
	cl, err := core.NewCluster(core.ClusterConfig{
		Sites:    n,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: 8},
		Scheme:   kind,
		Mode:     mode,
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	write := func(site protocol.SiteID, idx block.Index, s string) {
		t.Helper()
		ctrl, err := cl.Controller(site)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, cl.Geometry().BlockSize)
		copy(data, s)
		if err := ctrl.Write(ctx, idx, data); err != nil {
			t.Fatalf("write at %v: %v", site, err)
		}
	}
	read := func(site protocol.SiteID, idx block.Index) {
		t.Helper()
		ctrl, err := cl.Controller(site)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.Read(ctx, idx); err != nil {
			t.Fatalf("read at %v: %v", site, err)
		}
	}

	// Phase 1: failure-free traffic from several coordinators.
	for i := 0; i < 6; i++ {
		write(protocol.SiteID(i%n), block.Index(i%8), fmt.Sprintf("v1-%d", i))
	}
	for i := 0; i < 6; i++ {
		read(protocol.SiteID((i+1)%n), block.Index(i%8))
	}

	// Phase 2: degraded — site 4 is down, operations continue at a lower
	// participation level (the affine formulas absorb the mixed U).
	if err := cl.Fail(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		write(protocol.SiteID(i%4), block.Index(i%8), fmt.Sprintf("v2-%d", i))
	}
	read(0, 0)
	read(2, 1)

	// Phase 3: restart drives the scheme's recovery (available copy and
	// naive repair from an available peer: status exchange plus the
	// version-vector Call; voting recovers lazily for free).
	if err := cl.Restart(ctx, 4); err != nil {
		t.Fatal(err)
	}

	// Phase 4: post-recovery reads, including at the restarted site —
	// under voting its copies of the phase-2 blocks are stale, so those
	// reads pay the one-fetch repair that §5.1 charges separately.
	read(4, 0)
	read(4, 1)
	read(1, 2)

	// Quiesced: gather and check. All controller traffic is labelled, so
	// the per-op buckets must cover every transmission.
	st := cl.Network().Stats()
	var attributed uint64
	tx := make(map[string]uint64, len(st.ByOp))
	for op, s := range st.ByOp {
		tx[op] = s.Transmissions
		attributed += s.Transmissions
	}
	if attributed != st.Transmissions {
		t.Errorf("unattributed traffic: %d of %d transmissions labelled", attributed, st.Transmissions)
	}

	ctrl0, err := cl.Controller(0)
	if err != nil {
		t.Fatal(err)
	}
	schemeName := ctrl0.Name()
	w, r, rec := obs.GatherObservations(o.Snapshot(), schemeName, tx)
	rep, err := obs.CheckConformance(obs.ConformanceInput{
		Scheme:   kind,
		Sites:    n,
		Unicast:  mode == simnet.Unicast,
		Write:    w,
		Read:     r,
		Recovery: rec,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		for _, v := range rep.Violations() {
			t.Error(v)
		}
		t.Fatalf("observations: write=%+v read=%+v recovery=%+v byop=%v", w, r, rec, st.ByOp)
	}

	// The transport decorator metered the same workload.
	snap := o.Snapshot()
	if kind != core.Voting {
		// Voting uses broadcast+fetch only; the other schemes issue the
		// recovery Call as well.
		if got := snap.CounterTotal(obs.MetricTransportOps, obs.L("method", "call")); got == 0 {
			t.Error("no metered transport calls recorded")
		}
	}
	if got := snap.CounterTotal(obs.MetricTransportOps); got == 0 {
		t.Error("transport metering saw no traffic")
	}

	// The trace stream captured the protocol structure.
	events := o.Tracer().Events()
	if len(events) == 0 {
		t.Fatal("tracing enabled but no events retained")
	}
	kinds := make(map[string]int)
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[obs.EvOpStart] == 0 || kinds[obs.EvOpEnd] == 0 {
		t.Errorf("missing op spans in trace: %v", kinds)
	}
	switch kind {
	case core.Voting:
		if kinds[obs.EvQuorumAssembled] == 0 || kinds[obs.EvLazyRefresh] == 0 {
			t.Errorf("voting trace missing quorum/lazy-refresh events: %v", kinds)
		}
	case core.AvailableCopy:
		// Closure evaluation only happens after a *total* failure (Case 2
		// of Figure 5) — see TestTotalFailureClosureTrace for that path.
		if kinds[obs.EvWTransition] == 0 {
			t.Errorf("available-copy trace missing W transitions: %v", kinds)
		}
	}
}

// TestTotalFailureClosureTrace pushes an available copy cluster through
// a staggered total failure and back. Strict conformance does not apply
// (recovery attempts legitimately end in ErrAwaitingSites while the
// closure is incomplete), so this is the bracket-mode check — the §5
// envelope must hold per attempt even with failed recoveries — plus the
// closure trace events the single-site restart can never produce.
func TestTotalFailureClosureTrace(t *testing.T) {
	o := obs.New(obs.WithClock(clock.NewManual()), obs.WithTracing(1<<12))
	cl, err := core.NewCluster(core.ClusterConfig{
		Sites:    3,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: 4},
		Scheme:   core.AvailableCopy,
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	write := func(site protocol.SiteID, idx block.Index) {
		t.Helper()
		ctrl, err := cl.Controller(site)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Write(ctx, idx, make([]byte, 32)); err != nil {
			t.Fatalf("write at %v: %v", site, err)
		}
	}
	// Shrink W_0 step by step so site 0 is the only site that must be
	// waited for, then take the whole cluster down, 0 last.
	write(0, 0)
	if err := cl.Fail(2); err != nil {
		t.Fatal(err)
	}
	write(0, 0)
	if err := cl.Fail(1); err != nil {
		t.Fatal(err)
	}
	write(0, 0)
	if err := cl.Fail(0); err != nil {
		t.Fatal(err)
	}
	// Come back in the wrong order: 1 and 2 must wait for 0 (their W
	// still names it); once 0 returns, everything recovers in a cascade.
	if err := cl.Restart(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Restart(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := cl.State(1); got == protocol.StateAvailable {
		t.Fatal("site 1 recovered before the last-failed site returned")
	}
	if err := cl.Restart(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if cl.AvailableCount() != 3 {
		t.Fatalf("available sites = %d, want 3", cl.AvailableCount())
	}

	kinds := make(map[string]int)
	for _, e := range o.Tracer().Events() {
		kinds[e.Kind]++
	}
	if kinds[obs.EvClosureRecomputed] == 0 {
		t.Errorf("total failure recovery produced no closure events: %v", kinds)
	}

	// Bracket conformance holds across the failed recovery attempts.
	st := cl.Network().Stats()
	tx := make(map[string]uint64, len(st.ByOp))
	for op, s := range st.ByOp {
		tx[op] = s.Transmissions
	}
	w, r, rec := obs.GatherObservations(o.Snapshot(), "available-copy", tx)
	if rec.Attempts == rec.Completions {
		t.Errorf("expected failed recovery attempts, got %d/%d", rec.Completions, rec.Attempts)
	}
	rep, err := obs.CheckConformance(obs.ConformanceInput{
		Scheme:   mustScheme(t, "available-copy"),
		Sites:    3,
		Write:    w,
		Read:     r,
		Recovery: rec,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Errorf("bracket conformance failed: %v (write=%+v read=%+v recovery=%+v)", rep.Violations(), w, r, rec)
	}
}

func mustScheme(t *testing.T, name string) analysis.Scheme {
	t.Helper()
	s, err := core.ParseScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestObserverMetersEverySite: the metering decorator wraps the shared
// transport at construction, so a write coordinated at any site lands in
// that site's own completion series and its traffic is metered.
func TestObserverMetersEverySite(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		t.Run(kind.String(), func(t *testing.T) {
			o := obs.New(obs.WithClock(clock.NewManual()))
			cl, err := core.NewCluster(core.ClusterConfig{
				Sites:    3,
				Geometry: block.Geometry{BlockSize: 32, NumBlocks: 4},
				Scheme:   kind,
				Observer: o,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for i := range cl.Sites() {
				ctrl, err := cl.Controller(protocol.SiteID(i))
				if err != nil {
					t.Fatal(err)
				}
				if err := ctrl.Write(ctx, 0, make([]byte, 32)); err != nil {
					t.Fatal(err)
				}
			}
			snap := o.Snapshot()
			for i := range cl.Sites() {
				id := protocol.SiteID(i)
				if got := snap.CounterTotal(obs.MetricOpCompletions, obs.L("site", id.String()), obs.L("op", "write")); got != 1 {
					t.Errorf("write at %v not observed: %d completions", id, got)
				}
			}
			if got := snap.CounterTotal(obs.MetricTransportOps); got == 0 {
				t.Error("no transport traffic metered")
			}
		})
	}
}

// TestConformancePricesRecoveryPages: a recovery that needs three pages
// costs two request/reply pairs more than the single exchange §5
// prices. The exchange counts its continuation pages and both checks
// add them — drop the count and the same traffic is a violation.
func TestConformancePricesRecoveryPages(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.AvailableCopy, core.NaiveAvailableCopy} {
		for _, mode := range []simnet.Mode{simnet.Multicast, simnet.Unicast} {
			t.Run(fmt.Sprintf("%v/%v", kind, mode), func(t *testing.T) {
				o := obs.New(obs.WithClock(clock.NewManual()))
				// Ten 256 KiB blocks: four to a 1 MiB page.
				geom := block.Geometry{BlockSize: 256 << 10, NumBlocks: 10}
				cl, err := core.NewCluster(core.ClusterConfig{Sites: 3, Geometry: geom, Scheme: kind, Mode: mode, Observer: o})
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				if err := cl.Fail(2); err != nil {
					t.Fatal(err)
				}
				ctrl, _ := cl.Controller(0)
				for i := 0; i < geom.NumBlocks; i++ {
					if err := ctrl.Write(ctx, block.Index(i), make([]byte, geom.BlockSize)); err != nil {
						t.Fatal(err)
					}
				}
				if err := cl.Restart(ctx, 2); err != nil {
					t.Fatal(err)
				}

				tx := make(map[string]uint64)
				for op, s := range cl.Network().Stats().ByOp {
					tx[op] = s.Transmissions
				}
				w, r, rec := obs.GatherObservations(o.Snapshot(), ctrl.Name(), tx)
				if rec.Pages != 2 {
					t.Fatalf("recovery counted %d continuation pages, want 2", rec.Pages)
				}
				in := obs.ConformanceInput{Scheme: mustScheme(t, ctrl.Name()), Sites: 3,
					Unicast: mode == simnet.Unicast, Write: w, Read: r, Recovery: rec}
				for _, strict := range []bool{true, false} {
					rep, err := obs.CheckConformance(in, strict)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK {
						t.Errorf("strict=%v: %v (recovery=%+v)", strict, rep.Violations(), rec)
					}
				}
				in.Recovery.Pages = 0
				for _, strict := range []bool{true, false} {
					if rep, _ := obs.CheckConformance(in, strict); rep.OK {
						t.Errorf("strict=%v: four unpriced messages passed the check", strict)
					}
				}
			})
		}
	}
}
