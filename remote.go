package relidev

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/flight"
	"relidev/internal/obs/plane"
	"relidev/internal/protocol"
	"relidev/internal/rpcnet"
	"relidev/internal/scheme"
	"relidev/internal/site"
	"relidev/internal/store"
)

// RemoteConfig describes one site of a reliable device deployed as real
// OS processes over TCP (the deployment of §1: "a set of server
// processes on several sites").
type RemoteConfig struct {
	// Self is this process's site id (0..n-1).
	Self int
	// Peers maps every site id — including Self — to its TCP address.
	// Self's entry is the address this process listens on.
	Peers map[int]string
	// Scheme selects the consistency algorithm; it must match across all
	// sites.
	Scheme Scheme
	// Geometry is the device shape; the zero value defaults to 512x128.
	// It must match across all sites and an existing store's.
	Geometry Geometry
	// StorePath optionally persists this site's blocks in a file; empty
	// keeps them in memory. An existing image is reopened, which is how
	// a restarted server process recovers its pre-crash state.
	StorePath string
	// StoreDir optionally persists this site's blocks in an append-only
	// checksummed segment store under the directory (DESIGN.md §12) —
	// the fast write path. Takes precedence over StorePath. An existing
	// store is replayed on open, truncating any tail torn by a crash.
	StoreDir string
	// GroupCommitBatch, when positive, layers group commit over the
	// store: concurrent writes coalesce into batches of up to this many
	// records sharing one fsync.
	GroupCommitBatch int
	// GroupCommitDelay bounds how long a group-commit flush waits for
	// more writers to join its batch. Zero batches opportunistically,
	// adding no latency.
	GroupCommitDelay time.Duration
	// Timeout bounds each remote call; zero means 5 seconds.
	Timeout time.Duration
	// Comatose starts the site in the comatose state, forcing it through
	// the scheme's recovery procedure before it serves data. Use it when
	// restarting after a crash.
	Comatose bool
	// Metered attaches the observability layer to this site: op counters,
	// latency histograms, metering of every peer RPC, and a trace ring.
	// Read the result through DebugHandler (the blockserver binds it on
	// -debug-addr); the site answers peers' TelemetryPull scrapes with
	// its full registry snapshot or trace ring, which /cluster/metrics
	// merges and /trace/cluster stitches.
	Metered bool
	// TelemetryStep, when positive, gives the site its telemetry
	// (requires Metered): a wall-clock poller samples the registry into
	// a ring that keeps ten minutes at a 1s step, and evaluates
	// DefaultObjectives for the site's scheme and group size, each
	// step. DebugHandler then serves /timeseries, /healthz (the
	// threshold objectives) and /slo (the burn-rate ones), each of the
	// last two answering 503 once one of its objectives is critical;
	// and a critical one seals the flight recorder whether or not
	// anybody is watching. Only the poller samples: every reader
	// between two steps sees one ring. At zero the site has no ring,
	// objectives or recorder, and /timeseries, /healthz, /slo and
	// /debug/flight answer 404.
	TelemetryStep time.Duration
}

// ParsePeers reads a -peers flag into RemoteConfig.Peers: a
// comma-separated list of id=host:port entries. Blank entries are
// skipped, so an empty list parses to an empty map; whether that is
// allowed is the caller's rule. An id given twice is refused.
func ParsePeers(s string) (map[int]string, error) {
	peers := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q is not id=addr", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("peer id %q: %w", id, err)
		}
		if prev, dup := peers[n]; dup {
			return nil, fmt.Errorf("peer id %d given twice (%s and %s)", n, prev, addr)
		}
		peers[n] = addr
	}
	return peers, nil
}

// RemoteSite is one running site of a TCP-deployed reliable device: a
// replica server plus the local consistency controller and the device
// interface it serves.
type RemoteSite struct {
	cfg       RemoteConfig
	replica   *site.Replica
	server    *rpcnet.Server
	client    *rpcnet.Client
	transport protocol.Transport
	ctrl      scheme.Controller
	device    *core.ReliableDevice
	plane     *plane.Plane // nil when not Metered
	// stopPoll is closed by Close to stop the telemetry poller and
	// pollDone by the poller as it exits; both are nil when no poller
	// runs, and neither is reassigned after OpenRemote.
	stopPoll  chan struct{}
	pollDone  chan struct{}
	closeOnce sync.Once
}

// OpenRemote starts a site: it opens (or creates) the local store,
// listens on the configured address, and connects the consistency
// controller to its peers. Call Recover before serving if the site
// starts comatose.
func OpenRemote(cfg RemoteConfig) (*RemoteSite, error) {
	if cfg.Geometry == (Geometry{}) {
		cfg.Geometry = Geometry{BlockSize: 512, NumBlocks: 128}
	}
	if len(cfg.Peers) == 0 {
		return nil, errors.New("relidev: remote config needs peer addresses")
	}
	selfAddr, ok := cfg.Peers[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("relidev: peers map has no entry for self (%d)", cfg.Self)
	}
	self := protocol.SiteID(cfg.Self)
	addrs := make(map[protocol.SiteID]string, len(cfg.Peers))
	ids := make([]protocol.SiteID, 0, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		addrs[protocol.SiteID(id)] = addr
		ids = append(ids, protocol.SiteID(id))
	}
	slices.Sort(ids)
	peers := slices.DeleteFunc(slices.Clone(ids), func(id protocol.SiteID) bool { return id == self })

	// The step brings the ring, the default objectives and the
	// black-box recorder (a critical objective seals it); the failure
	// detector's suspect set is this host's own probe.
	rs := &RemoteSite{cfg: cfg}
	var objectives []Objective
	if cfg.TelemetryStep > 0 {
		objectives = DefaultObjectives(cfg.Scheme, len(cfg.Peers))
	}
	var err error
	rs.plane, err = plane.New(plane.Config{
		Metered:    cfg.Metered,
		TraceCap:   4096,
		StepNs:     cfg.TelemetryStep.Nanoseconds(),
		Probes:     []flight.Source{flight.Suspects(func() protocol.SiteSet { return rs.client.SuspectSet() })},
		Objectives: objectives,
		// Both cross-site views pull over the metered RPC transport,
		// priced like any other protocol message.
		Pull: func(ctx context.Context, traces bool) (map[protocol.SiteID][]byte, map[protocol.SiteID]error) {
			return obs.Pull(ctx, rs.transport, self, peers, traces)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("relidev: %w", err)
	}
	observer := rs.plane.Observer()

	var st store.Store
	switch {
	case cfg.StoreDir != "":
		st, err = store.OpenSeg(cfg.StoreDir)
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, store.ErrNoSegments) {
			st, err = store.CreateSeg(cfg.StoreDir, cfg.Geometry)
		}
	case cfg.StorePath != "":
		st, err = store.OpenFile(cfg.StorePath)
		if errors.Is(err, store.ErrBadImage) || errors.Is(err, fs.ErrNotExist) {
			st, err = store.CreateFile(cfg.StorePath, cfg.Geometry)
		}
	default:
		st, err = store.NewMem(cfg.Geometry)
	}
	if err != nil {
		return nil, fmt.Errorf("relidev: open store: %w", err)
	}
	if g := st.Geometry(); g != cfg.Geometry {
		st.Close()
		return nil, fmt.Errorf("relidev: store geometry %+v differs from the config's %+v", g, cfg.Geometry)
	}
	if cfg.GroupCommitBatch > 0 {
		st = store.NewBatcher(st, store.BatchPolicy{
			MaxDelay: cfg.GroupCommitDelay,
			MaxBatch: cfg.GroupCommitBatch,
		}, storeObsOpts(observer, self)...)
	}

	initial := protocol.StateAvailable
	if cfg.Comatose {
		initial = protocol.StateComatose
	}
	rs.replica, err = site.New(site.Config{ID: self, Store: st, InitialState: initial})
	if err != nil {
		st.Close()
		return nil, err
	}
	rs.client, err = rpcnet.NewClient(self, addrs, cfg.Timeout)
	if err != nil {
		st.Close()
		return nil, err
	}
	// Metering wraps the client, so it sees what the controller sends.
	rs.transport = obs.WrapTransport(observer, "rpc", rs.client, ids)
	rs.ctrl, err = core.WireSite(core.ClusterConfig{Scheme: cfg.Scheme, Observer: observer},
		rs.replica, rs.transport, ids)
	if observer != nil {
		// Alone in its process, the site answers a peer's TelemetryPull
		// with its whole registry or trace ring.
		rs.replica.SetTelemetryHook(observer.Telemetry)
	}
	if err == nil {
		rs.device, err = core.NewReliableDevice(cfg.Geometry, rs.ctrl)
	}
	if err == nil {
		rs.server, err = rpcnet.Serve(selfAddr, rs.replica)
	}
	if err != nil {
		rs.client.Close()
		st.Close()
		return nil, err
	}
	if cfg.TelemetryStep > 0 {
		rs.stopPoll = make(chan struct{})
		rs.pollDone = make(chan struct{})
		go rs.poll(cfg.TelemetryStep)
	}
	return rs, nil
}

// poll drives the plane on the deployment cadence: one registry sample
// and one evaluation of every objective per step, so a critical
// objective seals a recorder that holds the steps leading up to it even
// with nobody polling /healthz or /slo.
func (r *RemoteSite) poll(step time.Duration) {
	defer close(r.pollDone)
	t := time.NewTicker(step)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.plane.Step()
		case <-r.stopPoll:
			return
		}
	}
}

// DebugHandler returns this site's observability HTTP surface
// (/metrics, /metrics.prom, /trace, /trace/tree, /profile,
// /debug/flight/sealed, /debug/pprof/, the cross-site /cluster/metrics
// and /trace/cluster, and — with a RemoteConfig.TelemetryStep —
// /healthz, /slo, /timeseries, /debug/flight), or ErrNotMetered when
// the site was opened without RemoteConfig.Metered.
// The two cross-site routes pull every peer over the RPC transport on
// each GET; an unreachable peer degrades the view to a per-site entry
// under "errors". /debug/flight returns an on-demand dump;
// /debug/flight/sealed returns the dump the first trigger sealed (a
// critical threshold objective, an exhausted error budget), 404 while
// nothing has.
func (r *RemoteSite) DebugHandler() (http.Handler, error) { return r.plane.DebugHandler() }

// SLOs evaluates the site's objectives and returns the burn-rate view —
// what /slo serves; an exhausted budget seals the flight recorder.
// Requires RemoteConfig.TelemetryStep.
func (r *RemoteSite) SLOs() (AlertReport, error) { return r.plane.View(alert.PolicyBurn) }

// Health evaluates the site's objectives and returns the threshold view
// — what /healthz serves; a critical one seals the flight recorder.
// Requires RemoteConfig.TelemetryStep.
func (r *RemoteSite) Health() (AlertReport, error) { return r.plane.View(alert.PolicyThreshold) }

// CriticalPath computes this site's critical-path profile from its
// current metrics. Requires RemoteConfig.Metered.
func (r *RemoteSite) CriticalPath() (*CriticalPathProfile, error) { return r.plane.CriticalPath() }

// Addr returns the address this site's server is listening on.
func (r *RemoteSite) Addr() string { return r.server.Addr() }

// Device returns this site's view of the reliable device.
func (r *RemoteSite) Device() Device { return r.device }

// State returns this site's current state.
func (r *RemoteSite) State() SiteState { return r.replica.State() }

// Recover runs the consistency scheme's recovery procedure. It returns
// ErrMustWait when recovery cannot complete yet (the site stays comatose
// and the caller should retry after other sites come back).
func (r *RemoteSite) Recover(ctx context.Context) error {
	err := r.ctrl.Recover(ctx)
	if errors.Is(err, scheme.ErrAwaitingSites) {
		return fmt.Errorf("%v: %w", err, ErrMustWait)
	}
	return err
}

// FetchFrom reads one block directly from a specific peer site,
// bypassing the consistency scheme. Diagnostics and tests only: it shows
// what a single replica currently holds, stale or not.
func (r *RemoteSite) FetchFrom(ctx context.Context, siteID int, idx int) ([]byte, uint64, error) {
	resp, err := r.client.Fetch(ctx, protocol.SiteID(r.cfg.Self), protocol.SiteID(siteID),
		protocol.FetchRequest{Block: block.Index(idx)})
	if err != nil {
		return nil, 0, err
	}
	f, ok := resp.(protocol.FetchReply)
	if !ok {
		return nil, 0, fmt.Errorf("relidev: unexpected fetch reply %T", resp)
	}
	return f.Data, uint64(f.Version), nil
}

// Close shuts the site down: telemetry poller, server, peer
// connections, store.
func (r *RemoteSite) Close() error {
	if r.stopPoll != nil {
		r.closeOnce.Do(func() { close(r.stopPoll) })
		<-r.pollDone
	}
	errServer := r.server.Close()
	errClient := r.client.Close()
	errStore := r.replica.Store().Close()
	if errServer != nil {
		return errServer
	}
	if errClient != nil {
		return errClient
	}
	return errStore
}

// ErrMustWait is returned by RemoteSite.Recover while the recovery
// protocol has to wait for more sites to come back (§3.2-3.3).
var ErrMustWait = errors.New("relidev: recovery must wait for more sites")
