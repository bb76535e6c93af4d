package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

// installGate is an in-memory store whose WriteRun — how a page of the
// recovery exchange installs — first runs hook, which may hold the
// install or fail it.
type installGate struct {
	store.Store
	hook func() error
}

func (g *installGate) WriteRun(ins []store.Install) error {
	if g.hook != nil {
		if err := g.hook(); err != nil {
			return err
		}
	}
	return store.WriteRun(g.Store, ins)
}

// laterPages watches the recovery exchange beneath the page spy: sent
// closes when the first request for a page after the first goes out,
// inflight counts such requests not yet answered, and with hold set
// each is held until its context ends.
type laterPages struct {
	protocol.Transport
	hold     bool
	once     sync.Once
	sent     chan struct{}
	inflight atomic.Int32
}

func (l *laterPages) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	if q, ok := req.(protocol.RecoveryRequest); !ok || q.Cont == 0 {
		return l.Transport.Call(ctx, from, to, req)
	}
	l.inflight.Add(1)
	defer l.inflight.Add(-1)
	l.once.Do(func() { close(l.sent) })
	if l.hold {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return l.Transport.Call(ctx, from, to, req)
}

// gatedCluster is pagedCluster with site 2 on an installGate and a
// laterPages watch on the network.
func gatedCluster(t *testing.T, kind SchemeKind, hold bool) (*Cluster, *pageSpy, [][]byte, *installGate, *laterPages) {
	t.Helper()
	mem, err := store.NewMem(pagedGeom)
	if err != nil {
		t.Fatal(err)
	}
	gate := &installGate{Store: mem}
	watch := &laterPages{hold: hold, sent: make(chan struct{})}
	cl, spy, want := pagedClusterWith(t, kind, gate, func(inner protocol.Transport) protocol.Transport {
		watch.Transport = inner
		return watch
	})
	return cl, spy, want, gate, watch
}

// awaitSecondPage waits, inside the first page's install, for the
// request for the second page.
func awaitSecondPage(watch *laterPages) error {
	select {
	case <-watch.sent:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("page 2 was not requested while page 1 installed")
	}
}

// TestRecoveryRequestsNextPageDuringInstall: for both available copy
// schemes, the request for page k+1 goes out before page k's install
// returns — the first install waits for it — and the exchange still
// ends with the donor's copy in three pages. Voting recovers lazily,
// with no pages to overlap.
func TestRecoveryRequestsNextPageDuringInstall(t *testing.T) {
	for _, kind := range allSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			cl, spy, want, gate, watch := gatedCluster(t, kind, false)
			if kind == Voting {
				lazyRecovery(t, cl, spy, want)
				return
			}
			installs := 0
			gate.hook = func() error {
				if installs++; installs == 1 {
					return awaitSecondPage(watch)
				}
				return nil
			}
			if err := cl.Restart(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			if st, _ := cl.State(2); st != protocol.StateAvailable {
				t.Fatalf("site 2 is %v after recovery", st)
			}
			sameCopy(t, cl, 2, want)
			if spy.pages != 3 || installs != 3 {
				t.Fatalf("exchange took %d pages and %d installs, want 3 and 3", spy.pages, installs)
			}
		})
	}
}

// TestRecoveryJoinsPageInFlight: when page 1's install fails, or the
// caller's context is cancelled during it, with page 2's request on the
// wire, recovery returns only once that call has come back, leaving the
// site comatose with a version-monotone image. Voting recovers lazily,
// with no page in flight to join.
func TestRecoveryJoinsPageInFlight(t *testing.T) {
	errInstall := errors.New("install failed")
	for _, kind := range allSchemes() {
		for _, cancelled := range []bool{false, true} {
			name := kind.String() + "/install-fails"
			if cancelled {
				name = kind.String() + "/cancelled"
			}
			t.Run(name, func(t *testing.T) {
				cl, spy, want, gate, watch := gatedCluster(t, kind, true)
				if kind == Voting {
					lazyRecovery(t, cl, spy, want)
					return
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				gate.hook = func() error {
					if err := awaitSecondPage(watch); err != nil {
						return err
					}
					if cancelled {
						cancel()
						return nil
					}
					return errInstall
				}
				err := cl.Restart(ctx, 2)
				if n := watch.inflight.Load(); n != 0 {
					t.Fatalf("recovery returned with %d page requests still in flight", n)
				}
				wantErr, fresh := errInstall, 0
				if cancelled {
					wantErr, fresh = context.Canceled, 4
				}
				if !errors.Is(err, wantErr) {
					t.Fatalf("Restart = %v, want %v", err, wantErr)
				}
				rep, _ := cl.Replica(2)
				if st := rep.State(); st != protocol.StateComatose {
					t.Fatalf("site 2 is %v, want comatose", st)
				}
				for i, v := range rep.Vector() {
					wantVer := block.Version(1)
					if i < fresh {
						wantVer = 2
					}
					if v != wantVer {
						t.Fatalf("block %d at version %d, want %d", i, v, wantVer)
					}
				}
			})
		}
	}
}
