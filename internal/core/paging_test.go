package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/store"
)

// pageSpy sits between the controllers and the simulated network and
// watches the recovery exchange: how many recovery requests went out,
// how many pages each exchange took and the most block copies any one
// reply carried. It also counts block fetches, voting's lazy repair.
// With cutAfter > 0 the source "vanishes" once that many pages of an
// exchange have arrived.
type pageSpy struct {
	protocol.Transport
	mu        sync.Mutex
	cutAfter  int
	requests  int // recovery requests sent, over all exchanges
	pages     int // pages of the exchange in progress (or last finished)
	maxBlocks int
	fetches   int
}

func (s *pageSpy) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	s.mu.Lock()
	s.fetches++
	s.mu.Unlock()
	return s.Transport.Fetch(ctx, from, to, req)
}

func (s *pageSpy) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	q, ok := req.(protocol.RecoveryRequest)
	if !ok {
		return s.Transport.Call(ctx, from, to, req)
	}
	s.mu.Lock()
	s.requests++
	if q.Cont == 0 {
		s.pages = 0
	}
	cut := s.cutAfter > 0 && s.pages == s.cutAfter
	s.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("spy: source %v gone: %w", to, protocol.ErrSiteDown)
	}
	resp, err := s.Transport.Call(ctx, from, to, req)
	if rec, ok := resp.(protocol.RecoveryReply); ok {
		s.mu.Lock()
		s.pages++
		s.maxBlocks = max(s.maxBlocks, len(rec.Blocks))
		s.mu.Unlock()
	}
	return resp, err
}

func (s *pageSpy) setCut(n int) {
	s.mu.Lock()
	s.cutAfter = n
	s.mu.Unlock()
}

// pagedGeom makes a device of three recovery pages: the 1 MiB page
// budget holds four 256 KiB blocks, the device has ten.
var pagedGeom = block.Geometry{BlockSize: 256 << 10, NumBlocks: 10}

// pagedCluster builds a three-site cluster behind a pageSpy, writes
// every block once with all sites up (version 1 everywhere), fails site
// 2, and overwrites every block through site 0 — so site 2 restarts
// three pages behind. It returns the contents written while it was down.
func pagedCluster(t *testing.T, kind SchemeKind) (*Cluster, *pageSpy, [][]byte) {
	return pagedClusterWith(t, kind, nil, nil)
}

// pagedClusterWith is pagedCluster with site 2 on the given store and
// wrap, when set, decorating the network beneath the spy.
func pagedClusterWith(t *testing.T, kind SchemeKind, site2 store.Store, wrap func(protocol.Transport) protocol.Transport) (*Cluster, *pageSpy, [][]byte) {
	t.Helper()
	spy := &pageSpy{}
	cl, err := NewCluster(ClusterConfig{
		Sites: 3, Geometry: pagedGeom, Scheme: kind,
		NewStore: func(id protocol.SiteID, geom block.Geometry) (store.Store, error) {
			if id == 2 && site2 != nil {
				return site2, nil
			}
			return store.NewMem(geom)
		},
		WrapTransport: func(inner protocol.Transport) protocol.Transport {
			if wrap != nil {
				inner = wrap(inner)
			}
			spy.Transport = inner
			return spy
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dev, err := cl.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(round byte) [][]byte {
		var out [][]byte
		for i := 0; i < pagedGeom.NumBlocks; i++ {
			data := bytes.Repeat([]byte{round, byte(i)}, pagedGeom.BlockSize/2)
			if err := dev.WriteBlock(ctx, block.Index(i), data); err != nil {
				t.Fatal(err)
			}
			out = append(out, data)
		}
		return out
	}
	fill(1)
	if err := cl.Fail(2); err != nil {
		t.Fatal(err)
	}
	return cl, spy, fill(2)
}

// sameCopy checks that site id holds exactly the donor's vector and
// contents.
func sameCopy(t *testing.T, cl *Cluster, id protocol.SiteID, want [][]byte) {
	t.Helper()
	got, _ := cl.Replica(id)
	donor, _ := cl.Replica(0)
	if !got.Vector().Equal(donor.Vector()) {
		t.Fatalf("site %v vector = %v, donor's is %v", id, got.Vector(), donor.Vector())
	}
	for i, w := range want {
		data, _, err := got.ReadLocal(block.Index(i))
		if err != nil || !bytes.Equal(data, w) {
			t.Fatalf("site %v block %d differs from the donor's (err=%v)", id, i, err)
		}
	}
}

// lazyRecovery restarts site 2 of a voting pagedCluster and checks
// §5.1's recovery: Restart puts no recovery request on the wire, the
// site is available at once, and each of its ten stale blocks returns
// the donor's data through exactly one fetch — the first read repairs
// it, the second is local.
func lazyRecovery(t *testing.T, cl *Cluster, spy *pageSpy, want [][]byte) {
	t.Helper()
	ctx := context.Background()
	if err := cl.Restart(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if spy.requests != 0 {
		t.Fatalf("voting recovery sent %d recovery requests, want 0", spy.requests)
	}
	if st, _ := cl.State(2); st != protocol.StateAvailable {
		t.Fatalf("site 2 is %v after restart, want available at once", st)
	}
	dev, err := cl.Device(2)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		for i, w := range want {
			got, err := dev.ReadBlock(ctx, block.Index(i))
			if err != nil || !bytes.Equal(got, w) {
				t.Fatalf("site 2 block %d differs from the donor's (err=%v)", i, err)
			}
		}
	}
	if spy.fetches != len(want) {
		t.Fatalf("%d stale blocks read twice took %d fetches, want %d", len(want), spy.fetches, len(want))
	}
	sameCopy(t, cl, 2, want)
}

// TestRecoveryPagesForEveryScheme: the one exchange both available copy
// schemes end in moves a three-page device in three bounded replies;
// voting sends no exchange at all and repairs each block on first read.
func TestRecoveryPagesForEveryScheme(t *testing.T) {
	for _, kind := range allSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			cl, spy, want := pagedCluster(t, kind)
			if kind == Voting {
				lazyRecovery(t, cl, spy, want)
				return
			}
			if err := cl.Restart(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			if st, _ := cl.State(2); st != protocol.StateAvailable {
				t.Fatalf("site 2 is %v after recovery", st)
			}
			sameCopy(t, cl, 2, want)
			rep, _ := cl.Replica(2)
			if budget := rep.RecoveryBudget(); budget != 4 || spy.maxBlocks > budget {
				t.Fatalf("a reply carried %d blocks; the budget is %d (want 4)", spy.maxBlocks, budget)
			}
			if spy.pages != 3 {
				t.Fatalf("ten stale blocks at four a page took %d pages, want 3", spy.pages)
			}
		})
	}
}

// TestRecoverySourceLostMidStream: the donor vanishes after the first
// page. The site stays comatose holding a version-monotone partial
// image, Recover reports ErrAwaitingSites, and the next Recover against
// a live source finishes the job. Voting has no stream to lose.
func TestRecoverySourceLostMidStream(t *testing.T) {
	for _, kind := range allSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			ctx := context.Background()
			cl, spy, want := pagedCluster(t, kind)
			spy.setCut(1)
			if kind == Voting {
				lazyRecovery(t, cl, spy, want)
				return
			}
			// Restart drives recovery itself and treats "must wait" as no
			// error: the site is simply still comatose afterwards.
			if err := cl.Restart(ctx, 2); err != nil {
				t.Fatal(err)
			}
			rep, _ := cl.Replica(2)
			partial := func(fresh int) {
				t.Helper()
				if st := rep.State(); st != protocol.StateComatose {
					t.Fatalf("site 2 is %v with the stream cut, want comatose", st)
				}
				for i, v := range rep.Vector() {
					wantVer := block.Version(1) // what it held when it failed
					if i < fresh {
						wantVer = 2 // the donor's
					}
					if v != wantVer {
						t.Fatalf("block %d at version %d with %d blocks freshened, want %d", i, v, fresh, wantVer)
					}
				}
			}
			partial(4)
			ctrl, _ := cl.Controller(2)
			if err := ctrl.Recover(ctx); !errors.Is(err, scheme.ErrAwaitingSites) {
				t.Fatalf("Recover with the source cut = %v, want ErrAwaitingSites", err)
			}
			partial(8) // the retry's first page got through before the cut

			spy.setCut(0)
			if err := ctrl.Recover(ctx); err != nil {
				t.Fatal(err)
			}
			if st := rep.State(); st != protocol.StateAvailable {
				t.Fatalf("site 2 is %v after the source came back", st)
			}
			sameCopy(t, cl, 2, want)
		})
	}
}
