package relidev_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"relidev"
	"relidev/internal/obs"
)

func allSchemes() []relidev.Scheme {
	return []relidev.Scheme{relidev.Voting, relidev.AvailableCopy, relidev.NaiveAvailableCopy}
}

func TestNewValidation(t *testing.T) {
	if _, err := relidev.New(0, relidev.Voting); err == nil {
		t.Fatal("accepted zero sites")
	}
	if _, err := relidev.New(3, relidev.Scheme(42)); err == nil {
		t.Fatal("accepted unknown scheme")
	}
	if _, err := relidev.New(3, relidev.Voting,
		relidev.WithGeometry(relidev.Geometry{BlockSize: -1, NumBlocks: 2})); err == nil {
		t.Fatal("accepted invalid geometry")
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[relidev.Scheme]string{
		relidev.Voting:             "voting",
		relidev.AvailableCopy:      "available-copy",
		relidev.NaiveAvailableCopy: "naive",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestPublicDeviceLifecycle(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			ctx := context.Background()
			cluster, err := relidev.New(3, scheme,
				relidev.WithGeometry(relidev.Geometry{BlockSize: 64, NumBlocks: 8}))
			if err != nil {
				t.Fatal(err)
			}
			dev, err := cluster.Device(1)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 64)
			copy(payload, "public api")
			if err := dev.WriteBlock(ctx, 3, payload); err != nil {
				t.Fatal(err)
			}
			if err := cluster.Fail(0); err != nil {
				t.Fatal(err)
			}
			if st, _ := cluster.State(0); st != relidev.StateFailed {
				t.Fatalf("state = %v", st)
			}
			got, err := dev.ReadBlock(ctx, 3)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:10]) != "public api" {
				t.Fatalf("read = %q", got[:10])
			}
			if err := cluster.Restart(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if cluster.AvailableSites() != 3 {
				t.Fatalf("available = %d", cluster.AvailableSites())
			}
			if cluster.Sites() != 3 {
				t.Fatalf("sites = %d", cluster.Sites())
			}
		})
	}
}

func TestTrafficCountersViaPublicAPI(t *testing.T) {
	ctx := context.Background()
	cluster, err := relidev.New(4, relidev.NaiveAvailableCopy)
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := cluster.Device(0)
	payload := make([]byte, cluster.Geometry().BlockSize)
	cluster.ResetTraffic()
	for i := 0; i < 10; i++ {
		if err := dev.WriteBlock(ctx, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := cluster.Traffic(); st.Transmissions != 10 {
		t.Fatalf("10 naive writes cost %d transmissions, want 10", st.Transmissions)
	}
}

func TestUnicastOption(t *testing.T) {
	ctx := context.Background()
	cluster, err := relidev.New(4, relidev.NaiveAvailableCopy, relidev.WithUnicastNetwork())
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := cluster.Device(0)
	payload := make([]byte, cluster.Geometry().BlockSize)
	cluster.ResetTraffic()
	if err := dev.WriteBlock(ctx, 0, payload); err != nil {
		t.Fatal(err)
	}
	if st := cluster.Traffic(); st.Transmissions != 3 {
		t.Fatalf("unicast naive write cost %d, want n-1 = 3", st.Transmissions)
	}
}

// openLoneSite opens a one-site group over loopback with the given store
// and metering knobs set on top.
func openLoneSite(t *testing.T, cfg relidev.RemoteConfig) *relidev.RemoteSite {
	t.Helper()
	cfg.Self, cfg.Peers = 0, map[int]string{0: "127.0.0.1:0"}
	cfg.Scheme, cfg.Geometry = relidev.Voting, relidev.Geometry{BlockSize: 128, NumBlocks: 8}
	cfg.Timeout = time.Second
	s, err := relidev.OpenRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// writeReadBack writes msg into block idx and checks it reads back.
func writeReadBack(t *testing.T, dev relidev.Device, idx relidev.Index, msg string) {
	t.Helper()
	ctx := context.Background()
	payload := make([]byte, dev.Geometry().BlockSize)
	copy(payload, msg)
	if err := dev.WriteBlock(ctx, idx, payload); err != nil {
		t.Fatal(err)
	}
	got, err := dev.ReadBlock(ctx, idx)
	if err != nil || string(got[:len(msg)]) != msg {
		t.Fatalf("read back = %q, %v", got[:len(msg)], err)
	}
}

func TestFileStoresOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site0.img")
	s := openLoneSite(t, relidev.RemoteConfig{StorePath: path})
	writeReadBack(t, s.Device(), 1, "on disk")
	if matches, _ := filepath.Glob(path); len(matches) != 1 {
		t.Fatalf("store file %s not created", path)
	}
}

// TestOpenRemoteRefusesStoreOfOtherGeometry: reopening a store under a
// geometry other than its own — here the zero value's 512x128 default —
// fails, naming both, rather than serving a device whose every write
// the store refuses; the same store then reopens under its own.
func TestOpenRemoteRefusesStoreOfOtherGeometry(t *testing.T) {
	geom := relidev.Geometry{BlockSize: 4096, NumBlocks: 64}
	for _, tc := range []struct {
		name string
		set  func(*relidev.RemoteConfig, string)
	}{
		{"dir", func(c *relidev.RemoteConfig, p string) { c.StoreDir = p }},
		{"path", func(c *relidev.RemoteConfig, p string) { c.StorePath = p }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "site0")
			open := func(g relidev.Geometry) (*relidev.RemoteSite, error) {
				cfg := relidev.RemoteConfig{Peers: map[int]string{0: "127.0.0.1:0"}, Scheme: relidev.Voting, Geometry: g, Timeout: time.Second}
				tc.set(&cfg, path)
				return relidev.OpenRemote(cfg)
			}
			s, err := open(geom)
			if err != nil {
				t.Fatal(err)
			}
			writeReadBack(t, s.Device(), 3, "before")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err := open(relidev.Geometry{}); err == nil {
				s.Close()
				t.Fatal("a 4096x64 store reopened under the 512x128 default")
			} else if !strings.Contains(err.Error(), "{BlockSize:4096 NumBlocks:64}") || !strings.Contains(err.Error(), "{BlockSize:512 NumBlocks:128}") {
				t.Fatalf("error %q does not name both geometries", err)
			}
			s, err = open(geom)
			if err != nil {
				t.Fatalf("reopen under the store's own geometry: %v", err)
			}
			defer s.Close()
			got, err := s.Device().ReadBlock(context.Background(), 3)
			if err != nil || !strings.HasPrefix(string(got), "before") {
				t.Fatalf("block 3 after the refused reopen = %q, %v", got[:6], err)
			}
			writeReadBack(t, s.Device(), 4, "after")
		})
	}
}

func TestSegmentStoresAndGroupCommitOptions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "site0")
	s := openLoneSite(t, relidev.RemoteConfig{StoreDir: dir, GroupCommitBatch: 32, Metered: true})
	writeReadBack(t, s.Device(), 2, "segmented")
	if segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log")); err != nil || len(segs) == 0 {
		t.Fatalf("segment files = %v, %v", segs, err)
	}
	// The group-commit occupancy gauge is exposed once a flush ran.
	h, err := s.DebugHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if _, body := get(t, srv, "/metrics"); !strings.Contains(body, "relidev_group_commit_batch_occupancy") {
		t.Fatal("metrics missing the group-commit occupancy gauge")
	}
}

func TestAvailabilityFacade(t *testing.T) {
	// The public formulas reproduce the §4 identities.
	na2, err := relidev.Availability(relidev.NaiveAvailableCopy, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := relidev.Availability(relidev.Voting, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(na2-v3) > 1e-12 {
		t.Fatalf("A_NA(2)=%v != A_V(3)=%v", na2, v3)
	}
	ac3, err := relidev.Availability(relidev.AvailableCopy, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	v6, err := relidev.Availability(relidev.Voting, 6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ac3 <= v6 {
		t.Fatalf("A_A(3)=%v <= A_V(6)=%v", ac3, v6)
	}
	if _, err := relidev.Availability(relidev.Scheme(9), 3, 0.1); err == nil {
		t.Fatal("accepted unknown scheme")
	}
	if got := relidev.SiteAvailability(0.25); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("SiteAvailability = %v", got)
	}
}

func TestTrafficCostsFacade(t *testing.T) {
	for _, multicast := range []bool{true, false} {
		v, err := relidev.TrafficCosts(relidev.Voting, 5, 0.05, multicast)
		if err != nil {
			t.Fatal(err)
		}
		na, err := relidev.TrafficCosts(relidev.NaiveAvailableCopy, 5, 0.05, multicast)
		if err != nil {
			t.Fatal(err)
		}
		if na.Write >= v.Write {
			t.Fatalf("multicast=%v: naive write %v >= voting write %v", multicast, na.Write, v.Write)
		}
	}
	if _, err := relidev.TrafficCosts(relidev.Scheme(9), 5, 0.05, true); err == nil {
		t.Fatal("accepted unknown scheme")
	}
}

// A remote site on the segment store with group commit survives a
// stop/restart cycle: the store is replayed from its segments.
func TestRemoteSegmentStorePersists(t *testing.T) {
	ctx := context.Background()
	geom := relidev.Geometry{BlockSize: 128, NumBlocks: 16}
	dir := t.TempDir()
	open := func() *relidev.RemoteSite {
		t.Helper()
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:             0,
			Peers:            map[int]string{0: "127.0.0.1:0"},
			Scheme:           relidev.NaiveAvailableCopy,
			Geometry:         geom,
			StoreDir:         filepath.Join(dir, "site0"),
			GroupCommitBatch: 8,
			Timeout:          time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	payload := make([]byte, 128)
	copy(payload, "durable append")
	if err := s.Device().WriteBlock(ctx, 3, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := open()
	defer re.Close()
	got, err := re.Device().ReadBlock(ctx, 3)
	if err != nil || string(got[:14]) != "durable append" {
		t.Fatalf("read after segment-store restart = %q, %v", got[:14], err)
	}
}

// A full three-process-shaped deployment in one test process: three
// RemoteSites over loopback TCP, writes at one site, reads at another,
// crash and recovery of a third.
func TestRemoteDeploymentEndToEnd(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			ctx := context.Background()
			geom := relidev.Geometry{BlockSize: 128, NumBlocks: 16}

			stores := make([]string, 3)
			dir := t.TempDir()
			sites, addrs := openSites(t, 3, func(i int, peers map[int]string) relidev.RemoteConfig {
				stores[i] = filepath.Join(dir, fmt.Sprintf("s%d.img", i))
				return relidev.RemoteConfig{
					Self:      i,
					Peers:     peers,
					Scheme:    scheme,
					Geometry:  geom,
					StorePath: stores[i],
					Timeout:   time.Second,
				}
			})

			payload := make([]byte, 128)
			copy(payload, "across processes")
			if err := sites[0].Device().WriteBlock(ctx, 5, payload); err != nil {
				t.Fatalf("remote write: %v", err)
			}
			got, err := sites[2].Device().ReadBlock(ctx, 5)
			if err != nil {
				t.Fatalf("remote read: %v", err)
			}
			if string(got[:16]) != "across processes" {
				t.Fatalf("read = %q", got[:16])
			}

			// Crash site 2 (close its server), write again, restart it
			// comatose from its store file and recover.
			if err := sites[2].Close(); err != nil {
				t.Fatal(err)
			}
			copy(payload, "written while down")
			if err := sites[0].Device().WriteBlock(ctx, 5, payload); err != nil {
				t.Fatalf("write with a site down: %v", err)
			}
			restarted, err := relidev.OpenRemote(relidev.RemoteConfig{
				Self:      2,
				Peers:     addrs,
				Scheme:    scheme,
				Geometry:  geom,
				StorePath: stores[2],
				Timeout:   time.Second,
				Comatose:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer restarted.Close()
			if err := restarted.Recover(ctx); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if restarted.State() != relidev.StateAvailable {
				t.Fatalf("state = %v", restarted.State())
			}
			got, err = restarted.Device().ReadBlock(ctx, 5)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:18]) != "written while down" {
				t.Fatalf("read after recovery = %q", got[:18])
			}
		})
	}
}

// TestRemoteRecoveryPages: a TCP site restarting 3 MiB behind recovers
// over rpcnet in 1 MiB pages — there is nothing to configure, so every
// deployment gets the bounded exchange — and ends with exactly what the
// donor holds. The restarted site's own page counter is the witness.
func TestRemoteRecoveryPages(t *testing.T) {
	for _, scheme := range []relidev.Scheme{relidev.AvailableCopy, relidev.NaiveAvailableCopy} {
		t.Run(scheme.String(), func(t *testing.T) {
			ctx := context.Background()
			// 48 blocks of 64 KiB: sixteen to a page, three pages.
			geom := relidev.Geometry{BlockSize: 64 << 10, NumBlocks: 48}
			dir := t.TempDir()
			cfg := func(i int, peers map[int]string) relidev.RemoteConfig {
				return relidev.RemoteConfig{
					Self: i, Peers: peers, Scheme: scheme, Geometry: geom,
					StoreDir: filepath.Join(dir, fmt.Sprintf("s%d", i)), Timeout: 5 * time.Second,
				}
			}
			sites, addrs := openSites(t, 3, cfg)
			if err := sites[2].Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < geom.NumBlocks; i++ {
				data := bytes.Repeat([]byte{byte(i), 0xA5}, geom.BlockSize/2)
				if err := sites[0].Device().WriteBlock(ctx, relidev.Index(i), data); err != nil {
					t.Fatalf("write %d with a site down: %v", i, err)
				}
			}

			c := cfg(2, addrs)
			c.Comatose, c.Metered = true, true
			back, err := relidev.OpenRemote(c)
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if err := back.Recover(ctx); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if back.State() != relidev.StateAvailable {
				t.Fatalf("state = %v", back.State())
			}
			for i := 0; i < geom.NumBlocks; i++ {
				want, wantVer, err := sites[1].FetchFrom(ctx, 0, i)
				if err != nil {
					t.Fatal(err)
				}
				got, gotVer, err := sites[1].FetchFrom(ctx, 2, i)
				if err != nil || gotVer != wantVer || !bytes.Equal(got, want) {
					t.Fatalf("block %d: recovered site holds version %d, donor %d (err=%v, same bytes=%v)",
						i, gotVer, wantVer, err, bytes.Equal(got, want))
				}
			}

			h, err := back.DebugHandler()
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(h)
			defer srv.Close()
			_, body := get(t, srv, "/metrics")
			var snap struct {
				Counters []struct {
					Name  string `json:"name"`
					Value uint64 `json:"value"`
				} `json:"counters"`
			}
			if err := json.Unmarshal([]byte(body), &snap); err != nil {
				t.Fatal(err)
			}
			var continuations uint64
			for _, p := range snap.Counters {
				if p.Name == "relidev_recovery_pages_total" {
					continuations += p.Value
				}
			}
			if continuations != 2 {
				t.Fatalf("3 MiB moved in %d continuation pages, want 2 (three 1 MiB pages)", continuations)
			}
		})
	}
}

// TestParsePeers: the -peers flag both commands share. An empty list
// parses to an empty map — each command applies its own rule to it —
// and a malformed entry is refused whole.
func TestParsePeers(t *testing.T) {
	for _, tt := range []struct {
		name, in string
		want     map[int]string // nil: refused
	}{
		{"three sites with spaces", "0=127.0.0.1:7000, 1=127.0.0.1:7001,2=host:7002",
			map[int]string{0: "127.0.0.1:7000", 1: "127.0.0.1:7001", 2: "host:7002"}},
		{"empty", "", map[int]string{}},
		{"blank entries skipped", " ,0=a:1,, ", map[int]string{0: "a:1"}},
		{"no equals sign", "0:127.0.0.1", nil},
		{"non-numeric id", "x=127.0.0.1:1", nil},
		{"repeated id", "0=a:1,0=b:2", nil},
	} {
		t.Run(tt.name, func(t *testing.T) {
			got, err := relidev.ParsePeers(tt.in)
			if tt.want == nil {
				if err == nil {
					t.Fatalf("ParsePeers(%q) = %v, want an error", tt.in, got)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("ParsePeers(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
			}
		})
	}
}

func TestRemoteConfigValidation(t *testing.T) {
	if _, err := relidev.OpenRemote(relidev.RemoteConfig{Self: 0, Scheme: relidev.Voting}); err == nil {
		t.Fatal("accepted empty peers")
	}
	if _, err := relidev.OpenRemote(relidev.RemoteConfig{
		Self:   1,
		Peers:  map[int]string{0: "127.0.0.1:0"},
		Scheme: relidev.Voting,
	}); err == nil {
		t.Fatal("accepted peers without self")
	}
	if _, err := relidev.OpenRemote(relidev.RemoteConfig{
		Self:   0,
		Peers:  map[int]string{0: "127.0.0.1:0"},
		Scheme: relidev.Scheme(77),
	}); err == nil {
		t.Fatal("accepted unknown scheme")
	}
	// A site id outside [0, MaxSites) is refused by every scheme — the
	// available copy ones too, whose was-available sets could not hold it.
	for _, s := range []relidev.Scheme{relidev.Voting, relidev.AvailableCopy, relidev.NaiveAvailableCopy} {
		if site, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:   0,
			Peers:  map[int]string{0: "127.0.0.1:0", 99: "127.0.0.1:1"},
			Scheme: s,
		}); err == nil {
			site.Close()
			t.Errorf("%v accepted peer 99", s)
		}
	}
	// Every observability part names what it reads; asking for one
	// without it is refused, not silently dropped.
	for name, mutate := range map[string]func(*relidev.RemoteConfig){
		"telemetry without Metered": func(c *relidev.RemoteConfig) { c.TelemetryStep = time.Second },
		"negative telemetry step":   func(c *relidev.RemoteConfig) { c.Metered, c.TelemetryStep = true, -time.Second },
	} {
		cfg := relidev.RemoteConfig{Self: 0, Peers: map[int]string{0: "127.0.0.1:0"}, Scheme: relidev.Voting}
		mutate(&cfg)
		if s, err := relidev.OpenRemote(cfg); err == nil {
			s.Close()
			t.Errorf("accepted %s", name)
		}
	}
}

func TestErrMustWaitSurfaces(t *testing.T) {
	// A lone naive site restarted comatose in a 2-site group whose peer
	// is down must wait.
	geom := relidev.Geometry{BlockSize: 128, NumBlocks: 4}
	s, err := relidev.OpenRemote(relidev.RemoteConfig{
		Self:     0,
		Peers:    map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:1"},
		Scheme:   relidev.NaiveAvailableCopy,
		Geometry: geom,
		Comatose: true,
		Timeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Recover(context.Background()); !errors.Is(err, relidev.ErrMustWait) {
		t.Fatalf("recover = %v, want ErrMustWait", err)
	}
	if s.State() != relidev.StateComatose {
		t.Fatalf("state = %v, want comatose", s.State())
	}
}

// TestMeteringSurface exercises the public metering API: a metered
// cluster exposes its counters through MetricsJSON, a metered site
// through its debug HTTP handler, and unmetered hosts report
// ErrNotMetered.
func TestMeteringSurface(t *testing.T) {
	ctx := context.Background()
	cluster, err := relidev.New(3, relidev.Voting,
		relidev.WithGeometry(relidev.Geometry{BlockSize: 64, NumBlocks: 8}),
		relidev.WithMetering())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := cluster.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	if err := dev.WriteBlock(ctx, 2, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ReadBlock(ctx, 2); err != nil {
		t.Fatal(err)
	}

	data, err := cluster.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"relidev_op_completions_total", `"scheme":"voting"`, `"op":"write"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("MetricsJSON missing %s:\n%s", want, data)
		}
	}

	site := openLoneSite(t, relidev.RemoteConfig{Metered: true})
	writeReadBack(t, site.Device(), 2, "metered")
	if _, body := get(t, serveDebug(t, site), "/metrics.prom"); !strings.Contains(body, `relidev_op_attempts_total{op="write",scheme="voting",site="site0"} 1`) {
		t.Errorf("prometheus exposition missing the write series:\n%s", body)
	}

	plain, err := relidev.New(3, relidev.Voting)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.MetricsJSON(); !errors.Is(err, relidev.ErrNotMetered) {
		t.Fatalf("MetricsJSON on unmetered cluster = %v, want ErrNotMetered", err)
	}
	if _, err := openLoneSite(t, relidev.RemoteConfig{}).DebugHandler(); !errors.Is(err, relidev.ErrNotMetered) {
		t.Fatalf("DebugHandler on unmetered site = %v, want ErrNotMetered", err)
	}
}

// TestTraceTreeSurface exercises the public distributed-tracing API: a
// metered site's /trace/cluster stitches each operation — its own ring
// plus every peer's, pulled over the RPC plane — into a complete span
// tree, with no peer's debug surface served.
func TestTraceTreeSurface(t *testing.T) {
	ctx := context.Background()
	sites := openGroup(t, 3, relidev.RemoteConfig{Scheme: relidev.AvailableCopy, Metered: true,
		Geometry: relidev.Geometry{BlockSize: 64, NumBlocks: 8}})
	payload := make([]byte, 64)
	if err := sites[0].Device().WriteBlock(ctx, 2, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := sites[0].Device().ReadBlock(ctx, 2); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, serveDebug(t, sites[0]), "/trace/cluster")
	if code != 200 {
		t.Fatalf("/trace/cluster = %d:\n%s", code, body)
	}
	var view struct {
		Traces []*obs.TraceTree  `json:"traces"`
		Errors map[string]string `json:"errors"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil || len(view.Errors) != 0 {
		t.Fatalf("stitched view = %v, errors %v:\n%s", err, view.Errors, body)
	}
	var write *obs.TraceTree
	for _, tr := range view.Traces {
		if tr.Root != nil && tr.Root.Kind == "op" && tr.Root.Op == "write" {
			if write != nil {
				t.Fatal("more than one write tree stitched")
			}
			write = tr
		}
	}
	if write == nil {
		t.Fatalf("no write tree among %d traces", len(view.Traces))
	}
	if !write.Complete() {
		t.Fatalf("write tree incomplete: %+v", write)
	}
	if write.Root.Site != 0 || write.Root.TraceID != write.TraceID {
		t.Fatalf("root = %+v", write.Root)
	}
	if !reflect.DeepEqual(write.Sites, []int{0, 1, 2}) {
		t.Fatalf("sites = %v, want every site the write reached", write.Sites)
	}
}

// TestHealthSurface exercises the public health engine: the default
// thresholds a site with a telemetry step judges, the verdict, and the
// error paths of a site without one (the /healthz route is in
// TestHostDebugSurfaceParity's table).
func TestHealthSurface(t *testing.T) {
	ctx := context.Background()
	sites := openGroup(t, 3, relidev.RemoteConfig{Scheme: relidev.Voting, Metered: true,
		Geometry:      relidev.Geometry{BlockSize: 64, NumBlocks: 8},
		TelemetryStep: 5 * time.Millisecond})
	dev := sites[0].Device()
	payload := make([]byte, 64)
	if err := dev.WriteBlock(ctx, 2, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ReadBlock(ctx, 2); err != nil {
		t.Fatal(err)
	}

	v, err := sites[0].Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Objectives) != 3 {
		t.Fatalf("verdict has %d objectives, want the 3 default thresholds: %+v", len(v.Objectives), v)
	}
	if v.Overall != relidev.SeverityOK {
		t.Fatalf("fresh healthy site reports %v: %+v", v.Overall, v.Objectives)
	}

	// Metered but no telemetry step: typed error.
	if _, err := openLoneSite(t, relidev.RemoteConfig{Metered: true}).Health(); !errors.Is(err, relidev.ErrNoObjectives) {
		t.Fatalf("Health without a telemetry step = %v, want ErrNoObjectives", err)
	}
	if _, err := openLoneSite(t, relidev.RemoteConfig{}).Health(); !errors.Is(err, relidev.ErrNotMetered) {
		t.Fatalf("Health unmetered = %v, want ErrNotMetered", err)
	}
}

// TestCriticalPathSurface exercises the public attribution API: the
// profile covers the driven ops with a partition that matches the
// measured latency, and a site's /profile endpoint serves the flame
// rendering.
func TestCriticalPathSurface(t *testing.T) {
	ctx := context.Background()
	cluster, err := relidev.New(3, relidev.Voting,
		relidev.WithGeometry(relidev.Geometry{BlockSize: 64, NumBlocks: 8}),
		relidev.WithMetering())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := cluster.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := 0; i < 4; i++ {
		if err := dev.WriteBlock(ctx, relidev.Index(i), payload); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.ReadBlock(ctx, relidev.Index(i)); err != nil {
			t.Fatal(err)
		}
	}

	p, err := cluster.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 2 {
		t.Fatalf("profile has %d op aggregates, want write+read: %+v", len(p.Ops), p.Ops)
	}
	for _, op := range p.Ops {
		if op.Count != 4 {
			t.Errorf("%s/%s count = %d, want 4", op.Scheme, op.Op, op.Count)
		}
		if op.Coverage < 0.99 || op.Coverage > 1.01 {
			t.Errorf("%s/%s coverage = %.4f, want within 1%% of 1.0", op.Scheme, op.Op, op.Coverage)
		}
	}
	if flame := p.Flame(); !strings.Contains(flame, "voting/write") {
		t.Errorf("Flame() lacks the write block:\n%s", flame)
	}

	site := openLoneSite(t, relidev.RemoteConfig{Metered: true})
	writeReadBack(t, site.Device(), 1, "profiled")
	if code, body := get(t, serveDebug(t, site), "/profile?format=flame"); code != 200 || !strings.Contains(body, "critical path — phase attribution") {
		t.Errorf("/profile?format=flame = %d:\n%s", code, body)
	}

	plain, err := relidev.New(3, relidev.Voting)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.CriticalPath(); !errors.Is(err, relidev.ErrNotMetered) {
		t.Fatalf("CriticalPath unmetered = %v, want ErrNotMetered", err)
	}
}

// TestRemoteObservabilitySurface: a metered remote site with a
// telemetry step answers Health()/CriticalPath() directly (its debug routes are
// in TestHostDebugSurfaceParity's table).
func TestRemoteObservabilitySurface(t *testing.T) {
	ctx := context.Background()
	geom := relidev.Geometry{BlockSize: 64, NumBlocks: 8}
	sites, _ := openSites(t, 2, func(i int, peers map[int]string) relidev.RemoteConfig {
		return relidev.RemoteConfig{
			Self:          i,
			Peers:         peers,
			Scheme:        relidev.NaiveAvailableCopy,
			Geometry:      geom,
			Timeout:       time.Second,
			Metered:       true,
			TelemetryStep: 5 * time.Millisecond,
		}
	})

	payload := make([]byte, 64)
	if err := sites[0].Device().WriteBlock(ctx, 1, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := sites[1].Device().ReadBlock(ctx, 1); err != nil {
		t.Fatal(err)
	}

	v, err := sites[0].Health()
	if err != nil {
		t.Fatal(err)
	}
	if v.Overall >= relidev.SeverityCritical {
		t.Fatalf("healthy site reports critical: %+v", v.Objectives)
	}
	p, err := sites[0].CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) == 0 {
		t.Fatal("remote critical path profile is empty")
	}
}
