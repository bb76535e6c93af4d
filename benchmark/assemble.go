package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"relidev"
	"relidev/internal/availcopy"
	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/rpcnet"
	"relidev/internal/scheme"
	"relidev/internal/site"
	"relidev/internal/store"
	"relidev/internal/voting"
)

// The public constructors take no decorators, so the traced pass builds
// the same clusters from the same parts, with a recorder's decorators at
// the four seams (rec == nil leaves them out). trace.assembly_gap_pct
// holds the copy to the original: with decorators off it must reproduce
// the public API's throughput.

// openAssembled returns an opener building the workload's cluster from
// internal parts.
func openAssembled(rec *recorder) opener {
	return func(sp *spec, e env, sh *shadow) (*cluster, error) {
		if !sp.tcp {
			return assembleSim(sp, rec)
		}
		cl, err := openTCP(sp, e, sh, func(cfg relidev.RemoteConfig) (node, error) {
			s, err := assembleSite(cfg, rec)
			if err != nil {
				return nil, err
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
		// Ask the replicas directly: unlike FetchFrom this records no
		// handler spans, and it is the second of the two ways to see a
		// single copy.
		cl.copyAt = func(site, idx int) ([]byte, error) {
			data, _, err := cl.nodes[site].(*asmSite).replica.ReadLocal(block.Index(idx))
			return data, err
		}
		return cl, nil
	}
}

func schemeKind(s relidev.Scheme) core.SchemeKind {
	if s == relidev.Voting {
		return core.Voting
	}
	return core.AvailableCopy
}

// assembleSim is relidev.New(n, scheme, WithGeometry, WithMetering) spelt
// out: core.NewCluster with an observer, plus decorators.
func assembleSim(sp *spec, rec *recorder) (*cluster, error) {
	observer := obs.New()
	cfg := core.ClusterConfig{Sites: sp.sites, Geometry: geometry, Scheme: schemeKind(sp.scheme), Observer: observer}
	if rec != nil {
		cfg.NewStore = func(id protocol.SiteID, geom block.Geometry) (store.Store, error) {
			st, err := store.NewMem(geom)
			if err != nil {
				return nil, err
			}
			return wrapStore(st, rec, int(id), layerStore), nil
		}
		cfg.WrapTransport = func(t protocol.Transport) protocol.Transport {
			return &tracedTransport{inner: t, rec: rec}
		}
	}
	inner, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	cl := &cluster{spec: sp, devs: make([]relidev.Device, sp.sites)}
	for i := range cl.devs {
		id := protocol.SiteID(i)
		dev, err := inner.Device(id)
		if err != nil {
			return nil, err
		}
		cl.devs[i] = dev
		if rec != nil {
			rep, err := inner.Replica(id)
			if err != nil {
				return nil, err
			}
			inner.Network().Attach(id, &tracedHandler{inner: rep, rec: rec, site: i})
			cl.devs[i] = &tracedDevice{inner: dev, rec: rec, site: i}
		}
	}
	cl.copyAt = func(site, idx int) ([]byte, error) {
		rep, err := inner.Replica(protocol.SiteID(site))
		if err != nil {
			return nil, err
		}
		data, _, err := rep.ReadLocal(block.Index(idx))
		return data, err
	}
	cl.profiles = func() []*relidev.CriticalPathProfile {
		return []*relidev.CriticalPathProfile{observer.CriticalPath()}
	}
	cl.traffic = func() relidev.TrafficStats {
		st := inner.Network().Stats()
		return relidev.TrafficStats{Transmissions: st.Transmissions, Requests: st.Requests, Replies: st.Replies, Bytes: st.Bytes}
	}
	cl.trafficByOp = func(op string) uint64 { return inner.Network().Stats().ByOp[op].Transmissions }
	return cl, nil
}

// asmSite is relidev.OpenRemote spelt out, for the fields of
// RemoteConfig the benchmark sets. The debug surface OpenRemote also
// prepares (flight recorder, telemetry hook) only acts when polled and
// is left out.
type asmSite struct {
	cfg      relidev.RemoteConfig
	replica  *site.Replica
	server   *rpcnet.Server
	client   *rpcnet.Client
	ctrl     scheme.Controller
	device   relidev.Device
	observer *obs.Observer
	rec      *recorder
}

func assembleSite(cfg relidev.RemoteConfig, rec *recorder) (_ *asmSite, err error) {
	self := protocol.SiteID(cfg.Self)
	observer := obs.New(obs.WithTracing(4096))

	var st store.Store
	if cfg.StoreDir == "" {
		st, err = store.NewMem(cfg.Geometry)
	} else {
		st, err = store.OpenSeg(cfg.StoreDir)
		if errors.Is(err, fs.ErrNotExist) || errors.Is(err, store.ErrNoSegments) {
			st, err = store.CreateSeg(cfg.StoreDir, cfg.Geometry)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	if cfg.GroupCommitBatch > 0 {
		if rec != nil {
			st = wrapStore(st, rec, cfg.Self, layerLog)
		}
		st = store.NewBatcher(st, store.BatchPolicy{MaxDelay: cfg.GroupCommitDelay, MaxBatch: cfg.GroupCommitBatch},
			batcherObsOpts(observer, self)...)
	}
	if rec != nil {
		st = wrapStore(st, rec, cfg.Self, layerStore)
	}

	initial := protocol.StateAvailable
	if cfg.Comatose {
		initial = protocol.StateComatose
	}
	replica, err := site.New(site.Config{ID: self, Store: st, InitialState: initial})
	if err != nil {
		return nil, err
	}
	addrs := make(map[protocol.SiteID]string, len(cfg.Peers))
	ids := make([]protocol.SiteID, len(cfg.Peers))
	weights := make([]int64, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		addrs[protocol.SiteID(id)] = addr
		ids[id] = protocol.SiteID(id)
		weights[id] = 1000
	}
	if len(ids)%2 == 0 {
		weights[0]++
	}
	client, err := rpcnet.NewClient(self, addrs, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			client.Close()
		}
	}()
	var transport protocol.Transport = client
	if rec != nil {
		transport = &tracedTransport{inner: transport, rec: rec}
	}
	transport = obs.WrapTransport(observer, "rpc", transport, ids)
	env := scheme.Env{Self: replica, Transport: transport, Sites: ids, Weights: weights,
		Obs: observer.SchemeSite(cfg.Scheme.String(), self)}
	replica.SetWTransitionHook(env.Obs.WTransition)
	if hook := observer.HandleHook(cfg.Scheme.String(), self); hook != nil {
		replica.SetHandleHook(hook)
	}
	var ctrl scheme.Controller
	if cfg.Scheme == relidev.Voting {
		ctrl, err = voting.New(env)
	} else {
		ctrl, err = availcopy.New(env)
	}
	if err != nil {
		return nil, err
	}
	var handler protocol.Handler = replica
	if rec != nil {
		handler = &tracedHandler{inner: replica, rec: rec, site: cfg.Self}
	}
	server, err := rpcnet.Serve(cfg.Peers[cfg.Self], handler)
	if err != nil {
		return nil, err
	}
	dev, err := core.NewReliableDevice(cfg.Geometry, ctrl)
	if err != nil {
		server.Close()
		return nil, err
	}
	s := &asmSite{cfg: cfg, replica: replica, server: server, client: client, ctrl: ctrl, device: dev, observer: observer, rec: rec}
	if rec != nil {
		s.device = &tracedDevice{inner: dev, rec: rec, site: cfg.Self}
	}
	return s, nil
}

// batcherObsOpts feeds the observer's group-commit gauge and store-phase
// histograms from the Batcher, as relidev's unexported storeObsOpts does.
func batcherObsOpts(observer *obs.Observer, id protocol.SiteID) []store.BatchOption {
	siteL := obs.L("site", id.String())
	reg := observer.Registry()
	g := reg.Gauge(obs.MetricGroupCommitOccupancy, siteL)
	qw := reg.Histogram(obs.MetricStorePhase, siteL, obs.L("phase", obs.StorePhaseQueueWait))
	ap := reg.Histogram(obs.MetricStorePhase, siteL, obs.L("phase", obs.StorePhaseApply))
	fsy := reg.Histogram(obs.MetricStorePhase, siteL, obs.L("phase", obs.StorePhaseFsync))
	return []store.BatchOption{
		store.WithFlushObserver(func(n int) { g.Set(int64(n)) }),
		store.WithFlushStats(func(st store.FlushStats) {
			for _, w := range st.QueueWaitNs {
				qw.Observe(w)
			}
			ap.Observe(st.ApplyNs)
			if st.SyncNs > 0 {
				fsy.Observe(st.SyncNs)
			}
		}, observer.Now),
	}
}

func (s *asmSite) Device() relidev.Device { return s.device }

// Recover runs the scheme's recovery under a root span of its own: the
// clients are idle while a restart cycle recovers the site.
func (s *asmSite) Recover(ctx context.Context) error {
	if s.rec == nil {
		return s.ctrl.Recover(ctx)
	}
	id := s.rec.startRoot(s.rec.aux(), mRecover, s.cfg.Self)
	err := s.ctrl.Recover(ctx)
	s.rec.endRoot(s.rec.aux(), id)
	return err
}

func (s *asmSite) CriticalPath() (*relidev.CriticalPathProfile, error) {
	return s.observer.CriticalPath(), nil
}

func (s *asmSite) Close() error {
	return errors.Join(s.server.Close(), s.client.Close(), s.replica.Store().Close())
}
