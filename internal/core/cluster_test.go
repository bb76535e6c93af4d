package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"relidev/internal/block"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/simnet"
	"relidev/internal/store"
)

func newTestCluster(t *testing.T, n int, kind SchemeKind) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Sites:    n,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: 8},
		Scheme:   kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func pad(cl *Cluster, s string) []byte {
	out := make([]byte, cl.Geometry().BlockSize)
	copy(out, s)
	return out
}

func allSchemes() []SchemeKind {
	return []SchemeKind{Voting, AvailableCopy, NaiveAvailableCopy}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Sites: 0, Scheme: Voting}); err == nil {
		t.Fatal("accepted zero sites")
	}
	if _, err := NewCluster(ClusterConfig{Sites: protocol.MaxSites + 1, Scheme: Voting}); err == nil {
		t.Fatal("accepted too many sites")
	}
	if _, err := NewCluster(ClusterConfig{Sites: 3}); err == nil {
		t.Fatal("accepted missing scheme")
	}
	if _, err := NewCluster(ClusterConfig{Sites: 3, Scheme: Voting,
		Geometry: block.Geometry{BlockSize: -1, NumBlocks: 1}}); err == nil {
		t.Fatal("accepted bad geometry")
	}
}

// splitEvenly checks §4.1's tie-break on a four-site voting cluster:
// with sites 2 and 3 down site 0's half holds the write quorum, and with
// sites 0 and 1 down the other half does not. It leaves every site up.
func splitEvenly(t *testing.T, cl *Cluster) {
	t.Helper()
	ctx := context.Background()
	write := func(at protocol.SiteID, down ...protocol.SiteID) error {
		t.Helper()
		for _, id := range down {
			if err := cl.Fail(id); err != nil {
				t.Fatal(err)
			}
		}
		dev, err := cl.Device(at)
		if err != nil {
			t.Fatal(err)
		}
		werr := dev.WriteBlock(ctx, 0, pad(cl, fmt.Sprintf("from %v", at)))
		for _, id := range down {
			if err := cl.Restart(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		return werr
	}
	if err := write(0, 2, 3); err != nil {
		t.Fatalf("write at site 0 with sites 2 and 3 down: %v", err)
	}
	if err := write(2, 0, 1); !errors.Is(err, scheme.ErrNoQuorum) {
		t.Fatalf("write at site 2 with sites 0 and 1 down = %v, want ErrNoQuorum", err)
	}
}

func TestClusterDefaultsApplyTieBreaker(t *testing.T) {
	splitEvenly(t, newTestCluster(t, 4, Voting))
}

func TestDeviceRoundtripAllSchemes(t *testing.T) {
	for _, kind := range allSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			cl := newTestCluster(t, 3, kind)
			ctx := context.Background()
			dev, err := cl.Device(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.WriteBlock(ctx, 2, pad(cl, "through-device")); err != nil {
				t.Fatal(err)
			}
			// Read back at a different site's device.
			dev2, _ := cl.Device(2)
			got, err := dev2.ReadBlock(ctx, 2)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:14]) != "through-device" {
				t.Fatalf("read = %q", got[:14])
			}
		})
	}
}

func TestDeviceBoundsChecks(t *testing.T) {
	cl := newTestCluster(t, 3, NaiveAvailableCopy)
	ctx := context.Background()
	dev, _ := cl.Device(0)
	if _, err := dev.ReadBlock(ctx, 8); err == nil {
		t.Fatal("read past end succeeded")
	}
	if err := dev.WriteBlock(ctx, 8, pad(cl, "x")); err == nil {
		t.Fatal("write past end succeeded")
	}
	if err := dev.WriteBlock(ctx, 0, []byte("short")); err == nil {
		t.Fatal("short write succeeded")
	}
}

func TestClusterLifecycleAllSchemes(t *testing.T) {
	type lifecycleCase struct {
		name string
		cfg  ClusterConfig
	}
	var cases []lifecycleCase
	for _, kind := range allSchemes() {
		cases = append(cases, lifecycleCase{kind.String(), ClusterConfig{Scheme: kind}})
	}
	// The same lifecycle with every site's copy in a file image.
	dir := t.TempDir()
	cases = append(cases, lifecycleCase{"available-copy-over-file-stores", ClusterConfig{Scheme: AvailableCopy,
		NewStore: func(id protocol.SiteID, geom block.Geometry) (store.Store, error) {
			return store.CreateFile(dir+"/s"+id.String()+".img", geom)
		}}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Sites, tc.cfg.Geometry = 3, block.Geometry{BlockSize: 32, NumBlocks: 8}
			cl, err := NewCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			dev, _ := cl.Device(0)

			if err := dev.WriteBlock(ctx, 0, pad(cl, "v1")); err != nil {
				t.Fatal(err)
			}
			if err := cl.Fail(2); err != nil {
				t.Fatal(err)
			}
			if got, _ := cl.State(2); got != protocol.StateFailed {
				t.Fatalf("state after Fail = %v", got)
			}
			if err := dev.WriteBlock(ctx, 0, pad(cl, "v2")); err != nil {
				t.Fatal(err)
			}
			if err := cl.Restart(ctx, 2); err != nil {
				t.Fatal(err)
			}
			if got, _ := cl.State(2); got != protocol.StateAvailable {
				t.Fatalf("state after Restart = %v", got)
			}
			dev2, _ := cl.Device(2)
			got, err := dev2.ReadBlock(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:2]) != "v2" {
				t.Fatalf("read at recovered site = %q", got[:2])
			}
			if cl.AvailableCount() != 3 {
				t.Fatalf("available count = %d", cl.AvailableCount())
			}
		})
	}
}

func TestRestartOfRunningSiteRejected(t *testing.T) {
	cl := newTestCluster(t, 2, Voting)
	if err := cl.Restart(context.Background(), 0); err == nil {
		t.Fatal("restart of a running site succeeded")
	}
}

func TestSiteIndexChecks(t *testing.T) {
	cl := newTestCluster(t, 2, Voting)
	if _, err := cl.Device(5); err == nil {
		t.Fatal("Device(5) on 2-site cluster succeeded")
	}
	if _, err := cl.Replica(-1); err == nil {
		t.Fatal("Replica(-1) succeeded")
	}
	if err := cl.Fail(9); err == nil {
		t.Fatal("Fail(9) succeeded")
	}
	if _, err := cl.Controller(2); err == nil {
		t.Fatal("Controller(2) succeeded")
	}
	if _, err := cl.State(7); err == nil {
		t.Fatal("State(7) succeeded")
	}
}

func TestTotalFailureCascadeRecovery(t *testing.T) {
	// End-to-end: total failure under each scheme, then the paper's
	// recovery semantics through the cluster API.
	for _, kind := range []SchemeKind{AvailableCopy, NaiveAvailableCopy} {
		t.Run(kind.String(), func(t *testing.T) {
			cl := newTestCluster(t, 3, kind)
			ctx := context.Background()
			dev, _ := cl.Device(0)
			if err := dev.WriteBlock(ctx, 1, pad(cl, "w1")); err != nil {
				t.Fatal(err)
			}
			if err := cl.Fail(2); err != nil {
				t.Fatal(err)
			}
			if err := dev.WriteBlock(ctx, 1, pad(cl, "w2")); err != nil {
				t.Fatal(err)
			}
			if err := cl.Fail(1); err != nil {
				t.Fatal(err)
			}
			if err := cl.Fail(0); err != nil {
				t.Fatal(err)
			}
			// Restart in reverse order of failure: the stale site first.
			if err := cl.Restart(ctx, 2); err != nil {
				t.Fatal(err)
			}
			if st, _ := cl.State(2); st != protocol.StateComatose {
				t.Fatalf("stale site state = %v, want comatose", st)
			}
			if err := cl.Restart(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if err := cl.Restart(ctx, 0); err != nil {
				t.Fatal(err)
			}
			// Everybody back: all available under both schemes.
			for i := 0; i < 3; i++ {
				if st, _ := cl.State(protocol.SiteID(i)); st != protocol.StateAvailable {
					t.Fatalf("site %d = %v after full restart", i, st)
				}
				devi, _ := cl.Device(protocol.SiteID(i))
				got, err := devi.ReadBlock(ctx, 1)
				if err != nil || string(got[:2]) != "w2" {
					t.Fatalf("site %d read = %q, %v", i, got[:2], err)
				}
			}
		})
	}
}

func TestSchemeKindString(t *testing.T) {
	if Voting.String() != "voting" || AvailableCopy.String() != "available-copy" ||
		NaiveAvailableCopy.String() != "naive" {
		t.Fatal("SchemeKind.String mismatch")
	}
	if SchemeKind(0).String() != "scheme(0)" {
		t.Fatal("invalid SchemeKind.String mismatch")
	}
}

// TestParseScheme: every command's -scheme flag accepts the same names,
// and each controller's own name parses back to its kind.
func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		name string
		want SchemeKind
	}{
		{"voting", Voting},
		{"ac", AvailableCopy},
		{"available-copy", AvailableCopy},
		{"nac", NaiveAvailableCopy},
		{"naive", NaiveAvailableCopy},
		{"paxos", 0},
		{"", 0},
		{"Voting", 0},
	} {
		got, err := ParseScheme(tc.name)
		if got != tc.want || (err == nil) != (tc.want != 0) {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, k := range []SchemeKind{Voting, AvailableCopy, NaiveAvailableCopy} {
		if got, err := ParseScheme(k.String()); got != k || err != nil {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
}

func TestLocalDevice(t *testing.T) {
	geom := block.Geometry{BlockSize: 16, NumBlocks: 4}
	st, err := store.NewMem(geom)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewLocalDevice(st)
	ctx := context.Background()
	data := make([]byte, 16)
	copy(data, "plain")
	if err := dev.WriteBlock(ctx, 1, data); err != nil {
		t.Fatal(err)
	}
	got, err := dev.ReadBlock(ctx, 1)
	if err != nil || string(got[:5]) != "plain" {
		t.Fatalf("read = %q, %v", got[:5], err)
	}
	if dev.Geometry() != geom {
		t.Fatal("geometry mismatch")
	}
	// Versions advance on every write (used by replication if ever
	// layered on top).
	if err := dev.WriteBlock(ctx, 1, data); err != nil {
		t.Fatal(err)
	}
	if ver, _ := st.Version(1); ver != 2 {
		t.Fatalf("version = %v, want 2", ver)
	}
}

// TestRandomisedLinearHistory drives each scheme through a random
// schedule of writes, reads, failures and restarts from random sites and
// checks the core safety property end to end: every successful read
// returns the value of the most recent successful write to that block.
// (Single logical client, as in the paper's model, which excludes
// concurrent-access control.)
func TestRandomisedLinearHistory(t *testing.T) {
	const (
		sites  = 4
		blocks = 8
		steps  = 2500
	)
	for _, kind := range allSchemes() {
		for _, mode := range []simnet.Mode{simnet.Multicast, simnet.Unicast} {
			t.Run(fmt.Sprintf("%v/%v", kind, mode), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				cl, err := NewCluster(ClusterConfig{
					Sites:    sites,
					Geometry: block.Geometry{BlockSize: 8, NumBlocks: blocks},
					Scheme:   kind,
					Mode:     mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()

				model := make(map[block.Index]uint32) // last committed value
				seq := uint32(0)

				for step := 0; step < steps; step++ {
					id := protocol.SiteID(rng.Intn(sites))
					idx := block.Index(rng.Intn(blocks))
					switch op := rng.Intn(10); {
					case op < 4: // write
						seq++
						payload := make([]byte, 8)
						payload[0] = byte(seq)
						payload[1] = byte(seq >> 8)
						payload[2] = byte(seq >> 16)
						payload[3] = byte(seq >> 24)
						dev, _ := cl.Device(id)
						err := dev.WriteBlock(ctx, idx, payload)
						switch {
						case err == nil:
							model[idx] = seq
						case errors.Is(err, scheme.ErrNoQuorum),
							errors.Is(err, scheme.ErrNotAvailable):
							// Denied cleanly: no effect.
						default:
							t.Fatalf("step %d: write: %v", step, err)
						}
					case op < 8: // read
						dev, _ := cl.Device(id)
						got, err := dev.ReadBlock(ctx, idx)
						switch {
						case err == nil:
							val := uint32(got[0]) | uint32(got[1])<<8 | uint32(got[2])<<16 | uint32(got[3])<<24
							if val != model[idx] {
								t.Fatalf("step %d: %v read %v = %d, model says %d",
									step, kind, idx, val, model[idx])
							}
						case errors.Is(err, scheme.ErrNoQuorum),
							errors.Is(err, scheme.ErrNotAvailable):
						default:
							t.Fatalf("step %d: read: %v", step, err)
						}
					case op == 8: // fail a random running site
						if st, _ := cl.State(id); st != protocol.StateFailed {
							if err := cl.Fail(id); err != nil {
								t.Fatalf("step %d: fail: %v", step, err)
							}
						}
					default: // restart a random failed site
						if st, _ := cl.State(id); st == protocol.StateFailed {
							if err := cl.Restart(ctx, id); err != nil {
								t.Fatalf("step %d: restart: %v", step, err)
							}
						}
					}
				}
				// Heal everything and confirm convergence: all sites
				// available, every block readable at the model value.
				for i := 0; i < sites; i++ {
					if st, _ := cl.State(protocol.SiteID(i)); st == protocol.StateFailed {
						if err := cl.Restart(ctx, protocol.SiteID(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := cl.DriveRecovery(ctx); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < sites; i++ {
					if st, _ := cl.State(protocol.SiteID(i)); st != protocol.StateAvailable {
						t.Fatalf("site %d = %v after heal", i, st)
					}
				}
				for b := 0; b < blocks; b++ {
					dev, _ := cl.Device(protocol.SiteID(rng.Intn(sites)))
					got, err := dev.ReadBlock(ctx, block.Index(b))
					if err != nil {
						t.Fatalf("final read of block %d: %v", b, err)
					}
					val := uint32(got[0]) | uint32(got[1])<<8 | uint32(got[2])<<16 | uint32(got[3])<<24
					if val != model[block.Index(b)] {
						t.Fatalf("final read of block %d = %d, model says %d", b, val, model[block.Index(b)])
					}
				}
			})
		}
	}
}

func TestFailOfAlreadyFailedSiteRejected(t *testing.T) {
	for _, kind := range allSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			cl := newTestCluster(t, 3, kind)
			if err := cl.Fail(1); err != nil {
				t.Fatalf("first fail: %v", err)
			}
			if err := cl.Fail(1); err == nil {
				t.Fatal("second fail of the same site accepted")
			}
			// The rejection must not have disturbed the state.
			if st, _ := cl.State(1); st != protocol.StateFailed {
				t.Fatalf("state = %v, want failed", st)
			}
			if err := cl.Restart(context.Background(), 1); err != nil {
				t.Fatalf("restart after double fail: %v", err)
			}
		})
	}
}

func TestDriveRecoveryWithZeroAvailableSites(t *testing.T) {
	for _, kind := range allSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			cl := newTestCluster(t, 3, kind)
			for id := 0; id < 3; id++ {
				if err := cl.Fail(protocol.SiteID(id)); err != nil {
					t.Fatal(err)
				}
			}
			// Put every site in the comatose state without restarting any
			// peer: recovery can make no progress anywhere, and must say so
			// cleanly instead of wedging or panicking.
			for id := 0; id < 3; id++ {
				r, _ := cl.Replica(protocol.SiteID(id))
				r.SetState(protocol.StateComatose)
			}
			cl.Network().SetUp(0, true) // only site 0's network returns
			if err := cl.DriveRecovery(context.Background()); err != nil {
				t.Fatalf("DriveRecovery: %v", err)
			}
			if got := cl.AvailableCount(); got != 0 && kind == NaiveAvailableCopy {
				t.Fatalf("naive cluster recovered %d sites without all peers back", got)
			}
		})
	}
}

func TestDriveRecoveryNoComatoseSitesIsNoOp(t *testing.T) {
	cl := newTestCluster(t, 3, Voting)
	if err := cl.DriveRecovery(context.Background()); err != nil {
		t.Fatalf("DriveRecovery on healthy cluster: %v", err)
	}
	if got := cl.AvailableCount(); got != 3 {
		t.Fatalf("available = %d, want 3", got)
	}
}

// countingTransport proves WrapTransport's decorator sits on the
// controllers' data path.
type countingTransport struct {
	protocol.Transport
	calls atomic.Int64
}

func (c *countingTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	c.calls.Add(1)
	return c.Transport.Call(ctx, from, to, req)
}

func (c *countingTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	c.calls.Add(1)
	return c.Transport.Fetch(ctx, from, to, req)
}

func (c *countingTransport) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	c.calls.Add(1)
	return c.Transport.Broadcast(ctx, from, dests, req)
}

func (c *countingTransport) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	c.calls.Add(1)
	return c.Transport.Notify(ctx, from, dests, req)
}

func TestWrapTransportDecoratesControllerPath(t *testing.T) {
	ops := []struct {
		name string
		op   func(ctx context.Context, cl *Cluster, dev *ReliableDevice) error
	}{
		{"read", func(ctx context.Context, _ *Cluster, dev *ReliableDevice) error {
			_, err := dev.ReadBlock(ctx, 0)
			return err
		}},
		{"write", func(ctx context.Context, cl *Cluster, dev *ReliableDevice) error {
			return dev.WriteBlock(ctx, 1, pad(cl, "decorated"))
		}},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			var ct *countingTransport
			cl, err := NewCluster(ClusterConfig{
				Sites:    3,
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
			dev, err := cl.Device(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.op(context.Background(), cl, dev); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if ct == nil || ct.calls.Load() == 0 {
				t.Fatalf("decorated transport saw no controller traffic from a %s", tc.name)
			}
		})
	}
}

// TestEverySiteIsObserved: the observer is wired into every site at
// construction, so each one leaves handle spans for the requests it
// serves and has its own per-peer round-trip series.
func TestEverySiteIsObserved(t *testing.T) {
	ctx := context.Background()
	o := obs.New(obs.WithTracing(1 << 10))
	cl, err := NewCluster(ClusterConfig{
		Sites:    3,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: 8},
		Scheme:   Voting,
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := cl.Device(0)
	if err := dev.WriteBlock(ctx, 1, pad(cl, "observed")); err != nil {
		t.Fatal(err)
	}
	for id := protocol.SiteID(1); int(id) < cl.Sites(); id++ {
		if _, err := cl.transport.Call(ctx, 0, id, protocol.StatusRequest{}); err != nil {
			t.Fatalf("call to %v: %v", id, err)
		}
	}

	handles := make(map[int]int)
	for _, e := range o.Tracer().Events() {
		if e.Kind == obs.EvHandle {
			handles[e.Site]++
		}
	}
	peerSeries := make(map[string]bool)
	for _, h := range o.Snapshot().Histograms {
		if h.Name == obs.MetricTransportPeerLatency && h.Count >= 1 {
			peerSeries[h.Labels["peer"]] = true
		}
	}
	for id := protocol.SiteID(1); int(id) < cl.Sites(); id++ {
		if handles[int(id)] < 2 {
			t.Errorf("%v emitted %d handle spans, want one per request it served (write fan-out, status call)", id, handles[int(id)])
		}
		if !peerSeries[id.String()] {
			t.Errorf("no %s{peer=%v} observation after a round trip to it", obs.MetricTransportPeerLatency, id)
		}
	}
}

func TestWrapTransportReturningNilRejected(t *testing.T) {
	_, err := NewCluster(ClusterConfig{
		Sites:         3,
		Geometry:      block.Geometry{BlockSize: 32, NumBlocks: 4},
		Scheme:        Voting,
		WrapTransport: func(protocol.Transport) protocol.Transport { return nil },
	})
	if err == nil {
		t.Fatal("nil-returning WrapTransport accepted")
	}
}
