package core

import (
	"context"
	"testing"

	"relidev/internal/block"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

func TestGrowAllSchemes(t *testing.T) {
	for _, kind := range allSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			ctx := context.Background()
			cl := newTestCluster(t, 2, kind)
			dev, _ := cl.Device(0)
			if err := dev.WriteBlock(ctx, 1, pad(cl, "pre-grow")); err != nil {
				t.Fatal(err)
			}

			id, err := cl.Grow(ctx)
			if err != nil {
				t.Fatalf("Grow: %v", err)
			}
			if id != 2 || cl.Sites() != 3 {
				t.Fatalf("id = %v, sites = %d", id, cl.Sites())
			}
			if st, _ := cl.State(id); st != protocol.StateAvailable {
				t.Fatalf("new site state = %v, want available", st)
			}

			// The new site's device serves the pre-grow data.
			devNew, err := cl.Device(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := devNew.ReadBlock(ctx, 1)
			if err != nil || string(got[:8]) != "pre-grow" {
				t.Fatalf("read at new site = %q, %v", got[:8], err)
			}

			// The new copy genuinely increases fault tolerance: the two
			// original sites can fail and the device lives on (for the
			// available copy schemes; voting needs a quorum of 3).
			if kind != Voting {
				cl.Fail(0)
				cl.Fail(1)
				if err := devNew.WriteBlock(ctx, 1, pad(cl, "solo-new")); err != nil {
					t.Fatalf("write on grown site alone: %v", err)
				}
			} else {
				// Voting: 2 of 3 is a quorum; the grown site participates.
				cl.Fail(0)
				if err := devNew.WriteBlock(ctx, 1, pad(cl, "quorum-3")); err != nil {
					t.Fatalf("write with grown quorum: %v", err)
				}
			}
		})
	}
}

// TestGrownSiteIsObserved: a site added by Grow is wired like a founding
// one. A write fanned out to it and a round trip served by it must leave
// handle spans in its name and a per-peer latency series for it — Grow
// used to install neither the handle hook nor the peer's histogram, so
// the newcomer's half of every trace tree was orphaned.
func TestGrownSiteIsObserved(t *testing.T) {
	ctx := context.Background()
	o := obs.New(obs.WithTracing(1 << 10))
	cl, err := NewCluster(ClusterConfig{
		Sites:    2,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: 8},
		Scheme:   Voting,
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.Grow(ctx)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	dev, _ := cl.Device(0)
	if err := dev.WriteBlock(ctx, 1, pad(cl, "post-grow")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.transport.Call(ctx, 0, id, protocol.StatusRequest{}); err != nil {
		t.Fatalf("call to the new site: %v", err)
	}

	handles := 0
	for _, e := range o.Tracer().Events() {
		if e.Kind == obs.EvHandle && e.Site == int(id) {
			handles++
		}
	}
	if handles < 2 {
		t.Errorf("new site %v emitted %d handle spans, want one per request it served (write fan-out, status call)", id, handles)
	}
	var peerSeries bool
	for _, h := range o.Snapshot().Histograms {
		if h.Name == obs.MetricTransportPeerLatency && h.Labels["peer"] == id.String() {
			peerSeries = h.Count >= 1
		}
	}
	if !peerSeries {
		t.Errorf("no %s{peer=%v} observation after a round trip to the new site", obs.MetricTransportPeerLatency, id)
	}
}

func TestGrowRepairsOnlyMissedBlocks(t *testing.T) {
	// The new available copy site receives exactly the blocks that exist
	// (block-level recovery granularity).
	ctx := context.Background()
	cl := newTestCluster(t, 2, AvailableCopy)
	dev, _ := cl.Device(0)
	if err := dev.WriteBlock(ctx, 0, pad(cl, "a")); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(ctx, 5, pad(cl, "b")); err != nil {
		t.Fatal(err)
	}
	id, err := cl.Grow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := cl.Replica(id)
	if ver, _ := rep.VersionLocal(0); ver != 1 {
		t.Fatalf("block 0 version at new site = %v", ver)
	}
	if ver, _ := rep.VersionLocal(5); ver != 1 {
		t.Fatalf("block 5 version at new site = %v", ver)
	}
	if ver, _ := rep.VersionLocal(3); ver != 0 {
		t.Fatalf("untouched block version = %v, want 0", ver)
	}
}

func TestGrowRaisesVotingQuorum(t *testing.T) {
	ctx := context.Background()
	cl := newTestCluster(t, 3, Voting)
	if _, err := cl.Grow(ctx); err != nil { // 4 sites
		t.Fatal(err)
	}
	if _, err := cl.Grow(ctx); err != nil { // 5 sites
		t.Fatal(err)
	}
	dev, _ := cl.Device(0)
	// 3 of 5 still works...
	cl.Fail(3)
	cl.Fail(4)
	if err := dev.WriteBlock(ctx, 0, pad(cl, "3of5")); err != nil {
		t.Fatalf("3/5 write: %v", err)
	}
	// ...2 of 5 does not.
	cl.Fail(2)
	if err := dev.WriteBlock(ctx, 0, pad(cl, "2of5")); err == nil {
		t.Fatal("2/5 write succeeded after growth")
	}
}

// TestReconfigureKeepsTieBreak: a voting cluster that reaches four
// sites by Grow or by Remove splits two against two exactly like one
// built with four — site 0's half wins — because every vote weight
// follows from the current membership.
func TestReconfigureKeepsTieBreak(t *testing.T) {
	ctx := context.Background()
	t.Run("grow-3-to-4", func(t *testing.T) {
		cl := newTestCluster(t, 3, Voting)
		if _, err := cl.Grow(ctx); err != nil {
			t.Fatal(err)
		}
		splitEvenly(t, cl)
	})
	t.Run("remove-5-to-4", func(t *testing.T) {
		cl := newTestCluster(t, 5, Voting)
		if err := cl.Remove(ctx, false); err != nil {
			t.Fatal(err)
		}
		splitEvenly(t, cl)
	})
}

func TestRemoveShrinksCluster(t *testing.T) {
	for _, kind := range allSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			ctx := context.Background()
			cl := newTestCluster(t, 3, kind)
			dev, _ := cl.Device(0)
			if err := dev.WriteBlock(ctx, 0, pad(cl, "keep")); err != nil {
				t.Fatal(err)
			}
			if err := cl.Remove(ctx, false); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if cl.Sites() != 2 {
				t.Fatalf("sites = %d", cl.Sites())
			}
			if _, err := cl.Device(2); err == nil {
				t.Fatal("removed site's device still addressable")
			}
			got, err := dev.ReadBlock(ctx, 0)
			if err != nil || string(got[:4]) != "keep" {
				t.Fatalf("read after shrink = %q, %v", got[:4], err)
			}
			// With 2 of originally 3 sites, a naive write now multicasts
			// to 1 remote, and voting needs 2 of 2.
			if err := dev.WriteBlock(ctx, 0, pad(cl, "post")); err != nil {
				t.Fatalf("write after shrink: %v", err)
			}
		})
	}
}

func TestRemoveScrubsWasAvailableSets(t *testing.T) {
	// The crucial available copy case: retire a *failed* site that the
	// remaining sites' was-available sets still reference. Recovery after
	// a subsequent total failure must not wait for the ghost.
	ctx := context.Background()
	cl := newTestCluster(t, 3, AvailableCopy)
	dev, _ := cl.Device(0)
	if err := dev.WriteBlock(ctx, 0, pad(cl, "w1")); err != nil {
		t.Fatal(err)
	}
	// Site 2 fails; its identity stays in W sets until scrubbed.
	if err := cl.Fail(2); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(ctx, 0, pad(cl, "w2")); err != nil {
		t.Fatal(err)
	}
	// Retire the dead site (other available sites exist: allowed).
	if err := cl.Remove(ctx, false); err != nil {
		t.Fatalf("Remove of failed site: %v", err)
	}
	for i := 0; i < cl.Sites(); i++ {
		rep, _ := cl.Replica(protocol.SiteID(i))
		if rep.WasAvailable().Has(2) {
			t.Fatalf("site %d W still references the retired site", i)
		}
	}
	// Total failure of the remaining pair, then recovery: must complete
	// without site 2.
	if err := cl.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Restart(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Restart(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if st, _ := cl.State(protocol.SiteID(i)); st != protocol.StateAvailable {
			t.Fatalf("site %d = %v; recovery waited for a retired site?", i, st)
		}
	}
	got, err := dev.ReadBlock(ctx, 0)
	if err != nil || string(got[:2]) != "w2" {
		t.Fatalf("read = %q, %v", got[:2], err)
	}
}

func TestRemoveRefusesDataLoss(t *testing.T) {
	ctx := context.Background()
	cl := newTestCluster(t, 2, AvailableCopy)
	dev, _ := cl.Device(1)
	if err := cl.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(ctx, 0, pad(cl, "only-here")); err != nil {
		t.Fatal(err)
	}
	// Site 1 (the highest id) is the only available copy: refusing to
	// remove it protects the data.
	if err := cl.Remove(ctx, false); err == nil {
		t.Fatal("Remove discarded the only available copy")
	}
	// force overrides, explicitly accepting the loss.
	if err := cl.Remove(ctx, true); err != nil {
		t.Fatalf("forced Remove: %v", err)
	}
	if cl.Sites() != 1 {
		t.Fatalf("sites = %d", cl.Sites())
	}
}

func TestRemoveLastSiteRefused(t *testing.T) {
	cl := newTestCluster(t, 1, NaiveAvailableCopy)
	if err := cl.Remove(context.Background(), true); err == nil {
		t.Fatal("removed the only site")
	}
}

func TestGrowBounds(t *testing.T) {
	cl := newTestCluster(t, 2, NaiveAvailableCopy)
	ctx := context.Background()
	// Grow a few times and ensure ids stay dense and devices valid.
	for want := 3; want <= 6; want++ {
		id, err := cl.Grow(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != want-1 {
			t.Fatalf("new id = %v, want %d", id, want-1)
		}
	}
	if cl.Sites() != 6 {
		t.Fatalf("sites = %d", cl.Sites())
	}
}

func TestDeviceHandleSurvivesReconfiguration(t *testing.T) {
	// A device handle issued before Grow keeps working after it, seeing
	// the new membership.
	ctx := context.Background()
	cl := newTestCluster(t, 2, NaiveAvailableCopy)
	dev, _ := cl.Device(0)
	payload := pad(cl, "x")
	cl.Network().ResetStats()
	if err := dev.WriteBlock(ctx, 0, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Grow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(ctx, 0, payload); err != nil {
		t.Fatalf("old handle after Grow: %v", err)
	}
	// The write reached the grown membership: the new site has it.
	rep, _ := cl.Replica(2)
	if ver, _ := rep.VersionLocal(0); ver != 2 {
		t.Fatalf("new site version = %v, want 2", ver)
	}
}

func TestGrowOverFileStores(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cl, err := NewCluster(ClusterConfig{
		Sites:    2,
		Geometry: block.Geometry{BlockSize: 128, NumBlocks: 8},
		Scheme:   AvailableCopy,
		NewStore: func(id protocol.SiteID, geom block.Geometry) (store.Store, error) {
			return store.CreateFile(dir+"/s"+id.String()+".img", geom)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := cl.Device(0)
	if err := dev.WriteBlock(ctx, 0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Grow(ctx); err != nil {
		t.Fatalf("Grow with file stores: %v", err)
	}
}

// TestWrapTransportSurvivesReconfiguration is a regression test:
// rebuildControllers used to hand the rebuilt controllers the bare
// simulated network, silently stripping the WrapTransport decoration
// (fault injection, accounting) after the first Grow or Remove.
func TestWrapTransportSurvivesReconfiguration(t *testing.T) {
	ctx := context.Background()
	var ct *countingTransport
	cl, err := NewCluster(ClusterConfig{
		Sites:    2,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: 4},
		Scheme:   Voting,
		WrapTransport: func(inner protocol.Transport) protocol.Transport {
			ct = &countingTransport{Transport: inner}
			return ct
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cl.Grow(ctx); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	before := ct.calls.Load()
	dev, err := cl.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(ctx, 1, pad(cl, "post-grow")); err != nil {
		t.Fatalf("write after Grow: %v", err)
	}
	if got := ct.calls.Load(); got <= before {
		t.Fatalf("decorated transport saw no traffic after Grow (%d calls before, %d after): rebuildControllers dropped the decoration", before, got)
	}

	if err := cl.Remove(ctx, false); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	before = ct.calls.Load()
	if err := dev.WriteBlock(ctx, 2, pad(cl, "post-remove")); err != nil {
		t.Fatalf("write after Remove: %v", err)
	}
	if got := ct.calls.Load(); got <= before {
		t.Fatalf("decorated transport saw no traffic after Remove (%d calls before, %d after)", before, got)
	}
}
