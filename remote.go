package relidev

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"sort"
	"sync"
	"time"

	"relidev/internal/availcopy"
	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/naiveac"
	"relidev/internal/obs"
	"relidev/internal/obs/flight"
	"relidev/internal/obs/health"
	"relidev/internal/obs/slo"
	"relidev/internal/obs/tsdb"
	"relidev/internal/protocol"
	"relidev/internal/rpcnet"
	"relidev/internal/scheme"
	"relidev/internal/site"
	"relidev/internal/store"
	"relidev/internal/voting"
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
	// It must match across all sites.
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
	// -debug-addr).
	Metered bool
	// HealthRules attaches the rule-driven health engine (requires
	// Metered): DebugHandler then serves /healthz, answering 503 once a
	// critical alert is active. Nil leaves the endpoint off; start from
	// DefaultHealthRules for the standard set.
	HealthRules []HealthRule
	// TelemetryStep, when positive, attaches the telemetry plane
	// (requires Metered): a wall-clock poller samples the registry into
	// the tsdb ring every step, DebugHandler serves /timeseries and
	// /cluster/metrics, and the site answers peers' TelemetryPull
	// scrapes with its full registry snapshot.
	TelemetryStep time.Duration
	// TelemetryRetain is the number of tsdb frames kept; zero keeps 600
	// (ten minutes at a 1s step).
	TelemetryRetain int
	// SLOs attaches the burn-rate engine over the telemetry ring
	// (requires TelemetryStep): the poller evaluates every objective
	// each step — so budget exhaustion seals the flight recorder even
	// with nobody watching — and DebugHandler serves /slo, answering 503
	// once any error budget is exhausted. Start from DefaultSLOs.
	SLOs []SLO
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
	obs       *obs.Observer
	health    *health.Engine
	flight    *flight.Recorder
	tsdb      *tsdb.DB
	slo       *slo.Engine
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
	if cfg.TelemetryStep < 0 {
		return nil, fmt.Errorf("relidev: negative telemetry step %v", cfg.TelemetryStep)
	}
	if cfg.TelemetryStep > 0 && !cfg.Metered {
		return nil, errors.New("relidev: telemetry requires Metered")
	}
	if len(cfg.SLOs) > 0 && cfg.TelemetryStep == 0 {
		return nil, errors.New("relidev: SLOs require TelemetryStep")
	}
	selfAddr, ok := cfg.Peers[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("relidev: peers map has no entry for self (%d)", cfg.Self)
	}

	var observer *obs.Observer
	if cfg.Metered {
		observer = obs.New(obs.WithTracing(4096))
	}

	var st store.Store
	var err error
	switch {
	case cfg.StoreDir != "":
		st, err = store.OpenSeg(cfg.StoreDir)
		if isNotExist(err) || errors.Is(err, store.ErrNoSegments) {
			st, err = store.CreateSeg(cfg.StoreDir, cfg.Geometry)
		}
	case cfg.StorePath != "":
		st, err = store.OpenFile(cfg.StorePath)
		if errors.Is(err, store.ErrBadImage) || isNotExist(err) {
			st, err = store.CreateFile(cfg.StorePath, cfg.Geometry)
		}
	default:
		st, err = store.NewMem(cfg.Geometry)
	}
	if err != nil {
		return nil, fmt.Errorf("relidev: open store: %w", err)
	}
	if cfg.GroupCommitBatch > 0 {
		st = store.NewBatcher(st, store.BatchPolicy{
			MaxDelay: cfg.GroupCommitDelay,
			MaxBatch: cfg.GroupCommitBatch,
		}, storeObsOpts(observer, protocol.SiteID(cfg.Self))...)
	}

	initial := protocol.StateAvailable
	if cfg.Comatose {
		initial = protocol.StateComatose
	}
	replica, err := site.New(site.Config{
		ID:           protocol.SiteID(cfg.Self),
		Store:        st,
		InitialState: initial,
	})
	if err != nil {
		st.Close()
		return nil, err
	}

	addrs := make(map[protocol.SiteID]string, len(cfg.Peers))
	ids := make([]protocol.SiteID, 0, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		addrs[protocol.SiteID(id)] = addr
		ids = append(ids, protocol.SiteID(id))
	}
	sortSiteIDs(ids)
	client, err := rpcnet.NewClient(protocol.SiteID(cfg.Self), addrs, cfg.Timeout)
	if err != nil {
		st.Close()
		return nil, err
	}

	weights := make([]int64, len(ids))
	for i := range weights {
		weights[i] = 1000
	}
	if len(ids)%2 == 0 {
		weights[0]++
	}
	var transport protocol.Transport = client
	if observer != nil {
		transport = obs.WrapTransport(observer, "rpc", transport, ids)
	}
	env := scheme.Env{Self: replica, Transport: transport, Sites: ids, Weights: weights}
	if observer != nil {
		env.Obs = observer.SchemeSite(cfg.Scheme.String(), protocol.SiteID(cfg.Self))
		replica.SetWTransitionHook(env.Obs.WTransition)
		if hook := observer.HandleHook(cfg.Scheme.String(), protocol.SiteID(cfg.Self)); hook != nil {
			replica.SetHandleHook(hook)
		}
	}
	var ctrl scheme.Controller
	switch cfg.Scheme {
	case Voting:
		ctrl, err = voting.New(env)
	case AvailableCopy:
		ctrl, err = availcopy.New(env)
	case NaiveAvailableCopy:
		ctrl, err = naiveac.New(env)
	default:
		err = fmt.Errorf("relidev: unknown scheme %v", cfg.Scheme)
	}
	if err != nil {
		client.Close()
		st.Close()
		return nil, err
	}

	server, err := rpcnet.Serve(selfAddr, replica)
	if err != nil {
		client.Close()
		st.Close()
		return nil, err
	}
	dev, err := core.NewReliableDevice(cfg.Geometry, ctrl)
	if err != nil {
		server.Close()
		client.Close()
		st.Close()
		return nil, err
	}
	rs := &RemoteSite{
		cfg:       cfg,
		replica:   replica,
		server:    server,
		client:    client,
		transport: transport,
		ctrl:      ctrl,
		device:    dev,
		obs:       observer,
	}
	if observer != nil {
		// The black-box recorder rides the debug surface: each
		// /debug/flight request snapshots the live signals — metrics
		// deltas, the trace tail, the failure detector's suspect set,
		// repair lag, batcher occupancy — and seals the ring into a dump.
		rs.flight = flight.New(observer.Clock(), 64,
			flight.MetricsDelta(observer),
			flight.TraceTail(observer, 64),
			flight.Suspects(client.SuspectSet),
			flight.RepairLag(observer),
			flight.Occupancy(observer),
		)
		if len(cfg.HealthRules) > 0 {
			rs.health = health.NewEngine(observer.Snapshot, observer.Clock(), cfg.HealthRules...)
		}
		// Answer peers' TelemetryPull scrapes with the full local
		// registry: separate processes hold genuinely separate
		// registries, so unlike the in-process cluster there is no
		// site-label slicing to do — the whole snapshot is this site's
		// contribution.
		replica.SetTelemetryHook(func() []byte {
			return obs.EncodeSnapshot(observer.Snapshot())
		})
	}
	if cfg.TelemetryStep > 0 {
		retain := cfg.TelemetryRetain
		if retain <= 0 {
			retain = 600
		}
		rs.tsdb = tsdb.New(tsdb.Config{
			Clock:  observer.Clock(),
			Source: observer.Snapshot,
			StepNs: cfg.TelemetryStep.Nanoseconds(),
			Retain: retain,
		})
		if len(cfg.SLOs) > 0 {
			rs.slo = slo.NewEngine(rs.tsdb, observer.Clock(), rs.sealOnExhaustion, cfg.SLOs...)
		}
		rs.stopPoll = make(chan struct{})
		rs.pollDone = make(chan struct{})
		go rs.poll(cfg.TelemetryStep)
	}
	return rs, nil
}

// poll drives the telemetry plane on the deployment cadence: sample the
// registry into the ring, then re-evaluate the burn rates so budget
// exhaustion seals the flight recorder even with nobody polling /slo.
func (r *RemoteSite) poll(step time.Duration) {
	defer close(r.pollDone)
	t := time.NewTicker(step)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.tsdb.Sample()
			if r.slo != nil {
				r.slo.Evaluate()
			}
		case <-r.stopPoll:
			return
		}
	}
}

// sealOnExhaustion is the SLO engine's seal hook: the forensic ring is
// frozen at the moment an error budget runs out, retrievable later via
// /debug/flight (flight.Recorder.LastDump).
func (r *RemoteSite) sealOnExhaustion(trigger string) {
	if r.flight != nil {
		r.flight.Seal(trigger)
	}
}

// DebugHandler returns this site's observability HTTP surface
// (/metrics, /metrics.prom, /trace, /trace/tree, /profile,
// /debug/flight, /debug/pprof/, /cluster/metrics, and — with the
// matching RemoteConfig options — /healthz, /timeseries, /slo), or
// ErrNotMetered when the site was opened without RemoteConfig.Metered.
func (r *RemoteSite) DebugHandler() (http.Handler, error) {
	if r.obs == nil {
		return nil, ErrNotMetered
	}
	mux := obs.NewDebugMux(r.obs)
	mux.HandleFunc("/debug/flight", flight.Handler(r.flight))
	if r.health != nil {
		mux.HandleFunc("/healthz", health.Handler(r.health))
	}
	mux.HandleFunc("/cluster/metrics", obs.ClusterMetricsHandler(r.clusterPull))
	if r.tsdb != nil {
		mux.HandleFunc("/timeseries", tsdb.Handler(r.tsdb))
	}
	if r.slo != nil {
		mux.HandleFunc("/slo", slo.Handler(r.slo))
	}
	return mux, nil
}

// clusterPull assembles the cluster metrics view from this site's
// vantage: a TelemetryPull broadcast to every peer over the real RPC
// transport (priced and metered like any other protocol message),
// merged with the full local registry — separate processes hold
// separate registries, so the local snapshot is exactly this site's
// contribution. Unreachable peers degrade to per-site errors, never an
// error for the whole view.
func (r *RemoteSite) clusterPull(ctx context.Context) (obs.Snapshot, map[protocol.SiteID]error) {
	peers := make([]protocol.SiteID, 0, len(r.cfg.Peers))
	for id := range r.cfg.Peers {
		if id != r.cfg.Self {
			peers = append(peers, protocol.SiteID(id))
		}
	}
	sortSiteIDs(peers)
	return obs.ClusterPull(ctx, r.transport, protocol.SiteID(r.cfg.Self), peers, r.obs.Snapshot)
}

// ClusterMetricsJSON returns the cross-site aggregated metrics view —
// every peer's registry scraped over the RPC transport and merged with
// this site's own — plus any per-site scrape errors, encoded as the
// same JSON shape /cluster/metrics serves. Requires
// RemoteConfig.Metered.
func (r *RemoteSite) ClusterMetricsJSON(ctx context.Context) ([]byte, error) {
	if r.obs == nil {
		return nil, ErrNotMetered
	}
	snap, errs := r.clusterPull(ctx)
	errMsgs := make(map[string]string, len(errs))
	for id, err := range errs {
		errMsgs[id.String()] = err.Error()
	}
	return json.Marshal(obs.ClusterMetrics{Metrics: snap, Errors: errMsgs})
}

// SLOs re-evaluates every configured objective against the telemetry
// ring and returns the report — the same evaluation /slo serves.
// Requires RemoteConfig.SLOs.
func (r *RemoteSite) SLOs() (SLOReport, error) {
	if r.tsdb == nil {
		return SLOReport{}, ErrNoTelemetry
	}
	if r.slo == nil {
		return SLOReport{}, ErrNoSLOs
	}
	return r.slo.Evaluate(), nil
}

// Health evaluates the site's health rule set against its current
// metrics. Requires RemoteConfig.Metered and HealthRules.
func (r *RemoteSite) Health() (HealthVerdict, error) {
	if r.obs == nil {
		return HealthVerdict{}, ErrNotMetered
	}
	if r.health == nil {
		return HealthVerdict{}, ErrNoHealthRules
	}
	return r.health.Evaluate(), nil
}

// CriticalPath computes this site's critical-path profile from its
// current metrics. Requires RemoteConfig.Metered.
func (r *RemoteSite) CriticalPath() (*CriticalPathProfile, error) {
	if r.obs == nil {
		return nil, ErrNotMetered
	}
	return r.obs.CriticalPath(), nil
}

// ClusterTraceHandler returns an HTTP handler serving cluster-wide
// stitched trace trees: on each request it merges this site's trace
// ring with every peer /trace endpoint in peerTraceURLs (e.g.
// "http://host:debugport/trace") and stitches one span tree per traced
// operation. Unreachable peers degrade to partial trees and are listed
// in the response's "errors" field. Requires RemoteConfig.Metered.
func (r *RemoteSite) ClusterTraceHandler(peerTraceURLs []string) (http.Handler, error) {
	if r.obs == nil {
		return nil, ErrNotMetered
	}
	return obs.ClusterTraceHandler(r.obs, nil, peerTraceURLs), nil
}

func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}

func sortSiteIDs(ids []protocol.SiteID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

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
