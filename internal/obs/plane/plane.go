// Package plane assembles the observability stack of one host of the
// reliable device — the in-process Cluster, a TCP RemoteSite, a chaos
// run — in one place: observer, flight recorder, health engine, tsdb
// ring and SLO engine on one clock, the rule that says what seals the
// recorder, the step a host's sampling cadence drives, and the debug
// HTTP surface over all of it (DESIGN.md "Wiring"). It sits beside the
// packages it wires because obs itself cannot import them.
package plane

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/flight"
	"relidev/internal/obs/health"
	"relidev/internal/obs/slo"
	"relidev/internal/obs/tsdb"
	"relidev/internal/protocol"
)

// The accessors' typed refusals; the public package re-exports them,
// so the texts name its options.
var (
	ErrNotMetered    = errors.New("relidev: cluster not built with WithMetering")
	ErrNoHealthRules = errors.New("relidev: cluster not built with WithHealthRules")
	ErrNoTelemetry   = errors.New("relidev: cluster not built with WithTelemetry")
	ErrNoSLOs        = errors.New("relidev: cluster not built with WithSLOs")
)

// Ring sizes every host uses.
const (
	flightFrames  = 64  // flight frames kept
	traceTail     = 64  // trace events per flight frame
	defaultRetain = 600 // tsdb frames: ten minutes at a 1s step
)

// Config is what a host asks for. New refuses a config that asks for a
// part without what it reads.
type Config struct {
	// Metered builds the observer. False builds nothing: New returns a
	// nil *Plane, whose every method is a safe refusal.
	Metered bool
	// Clock is the one clock all parts share (nil: clock.Wall).
	Clock clock.Clock
	// TraceCap, when positive, keeps that many trace events.
	TraceCap int
	// Flight attaches the black-box recorder over the standard sources
	// (metrics deltas, trace tail, repair lag, batch occupancy) followed
	// by the host's own Probes (a failure detector's suspect set, a
	// harness's site states).
	Flight bool
	Probes []flight.Source
	// HealthRules attaches the health engine; StepNs (positive) the tsdb
	// ring at that nominal sampling step, keeping Retain frames (zero:
	// 600); SLOs the burn-rate engine over the ring.
	HealthRules []health.Rule
	StepNs      int64
	Retain      int
	SLOs        []slo.SLO
	// Pull assembles the host's cross-site metrics view, for hosts that
	// serve ClusterMetricsJSON or DebugHandler; it is only called after
	// the host is built.
	Pull func(ctx context.Context) (obs.Snapshot, map[protocol.SiteID]error)
}

// A Plane is one host's observability stack. A nil *Plane is the
// unmetered host: Observer returns nil, Step and Seal do nothing, and
// the accessors return ErrNotMetered.
type Plane struct {
	obs    *obs.Observer
	flight *flight.Recorder
	health *health.Engine
	tsdb   *tsdb.DB
	slo    *slo.Engine
	pull   func(ctx context.Context) (obs.Snapshot, map[protocol.SiteID]error)
	sealed atomic.Pointer[flight.Dump]
}

// New builds the stack cfg describes.
func New(cfg Config) (*Plane, error) {
	switch {
	case cfg.StepNs < 0:
		return nil, errors.New("negative telemetry step")
	case len(cfg.SLOs) > 0 && cfg.StepNs == 0:
		return nil, errors.New("SLOs require a telemetry step")
	case !cfg.Metered && len(cfg.HealthRules) > 0:
		return nil, errors.New("health rules require metering")
	case !cfg.Metered && cfg.StepNs > 0:
		return nil, errors.New("telemetry requires metering")
	case !cfg.Metered:
		return nil, nil
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Wall
	}
	opts := []obs.Option{obs.WithClock(clk)}
	if cfg.TraceCap > 0 {
		opts = append(opts, obs.WithTracing(cfg.TraceCap))
	}
	o := obs.New(opts...)
	p := &Plane{obs: o, pull: cfg.Pull}
	if cfg.Flight {
		p.flight = flight.New(clk, flightFrames, append([]flight.Source{
			flight.MetricsDelta(o),
			flight.TraceTail(o, traceTail),
			flight.RepairLag(o),
			flight.Occupancy(o),
		}, cfg.Probes...)...)
	}
	if len(cfg.HealthRules) > 0 {
		p.health = health.NewEngine(o.Snapshot, clk, p.Seal, cfg.HealthRules...)
	}
	if cfg.StepNs > 0 {
		if cfg.Retain <= 0 {
			cfg.Retain = defaultRetain
		}
		p.tsdb = tsdb.New(tsdb.Config{Clock: clk, Source: o.Snapshot, StepNs: cfg.StepNs, Retain: cfg.Retain})
		if len(cfg.SLOs) > 0 {
			p.slo = slo.NewEngine(p.tsdb, clk, p.Seal, cfg.SLOs...)
		}
	}
	return p, nil
}

// Observer returns the plane's observer (nil for the unmetered host),
// which the host threads through its sites.
func (p *Plane) Observer() *obs.Observer {
	if p == nil {
		return nil
	}
	return p.obs
}

// Seal freezes the flight ring into the retained dump. The first trigger
// wins: its dump shows the frames that led up to the failure, which
// later triggers would only dilute. The engines call it on a critical
// health verdict and on an exhausted error budget, wherever the
// evaluation happened; harnesses call it on an invariant violation. A
// no-op without a recorder.
func (p *Plane) Seal(trigger string) {
	if p != nil && p.flight != nil && p.sealed.Load() == nil {
		p.sealed.CompareAndSwap(nil, p.flight.Seal(trigger))
	}
}

// Sealed returns the retained dump, nil while nothing has sealed.
func (p *Plane) Sealed() *flight.Dump {
	if p == nil {
		return nil
	}
	return p.sealed.Load()
}

// Step is one tick of the host's sampling cadence — a server's poller,
// a harness's checkpoint: record a flight frame, sample the registry
// into the ring, re-evaluate the SLOs; parts the plane lacks are
// skipped and their result is nil. With evalHealth the health rules are
// evaluated too, between the frame and the sample: a harness's
// checkpoint is their cadence, while a server's are evaluated by whoever
// asks (Health, /healthz), so their window stays "since the last probe".
func (p *Plane) Step(reason string, evalHealth bool) (hv *health.Verdict, rep *slo.Report) {
	if p == nil {
		return nil, nil
	}
	p.flight.Snapshot(reason)
	if evalHealth && p.health != nil {
		v := p.health.Evaluate()
		hv = &v
	}
	p.tsdb.Sample()
	if p.slo != nil {
		r := p.slo.Evaluate()
		rep = &r
	}
	return hv, rep
}

// Health evaluates the rule set against the current metrics; a
// critical verdict seals the recorder.
func (p *Plane) Health() (health.Verdict, error) {
	if p == nil {
		return health.Verdict{}, ErrNotMetered
	}
	if p.health == nil {
		return health.Verdict{}, ErrNoHealthRules
	}
	return p.health.Evaluate(), nil
}

// SLOs evaluates every objective's burn rates against the ring; an
// exhausted budget seals the recorder.
func (p *Plane) SLOs() (slo.Report, error) {
	if p == nil || p.tsdb == nil {
		return slo.Report{}, ErrNoTelemetry
	}
	if p.slo == nil {
		return slo.Report{}, ErrNoSLOs
	}
	return p.slo.Evaluate(), nil
}

// Ring returns the tsdb ring, for hosts whose embedder samples and
// queries it on its own cadence.
func (p *Plane) Ring() (*tsdb.DB, error) {
	if p == nil || p.tsdb == nil {
		return nil, ErrNoTelemetry
	}
	return p.tsdb, nil
}

// CriticalPath computes the critical-path profile from the current
// metrics.
func (p *Plane) CriticalPath() (*obs.Profile, error) {
	if p == nil {
		return nil, ErrNotMetered
	}
	return p.obs.CriticalPath(), nil
}

// ClusterMetricsJSON renders the host's cross-site metrics view in the
// /cluster/metrics shape.
func (p *Plane) ClusterMetricsJSON(ctx context.Context) ([]byte, error) {
	if p == nil {
		return nil, ErrNotMetered
	}
	return json.Marshal(obs.NewClusterMetrics(p.pull(ctx)))
}

// DebugHandler returns the debug HTTP surface: the observer's routes
// (/metrics, /metrics.prom, /trace, /trace/tree, /profile,
// /debug/pprof/) plus /cluster/metrics, /healthz, /timeseries, /slo,
// /debug/flight (a fresh frame and an on-demand dump per GET) and
// /debug/flight/sealed (the retained trigger-sealed dump). The route
// set is the same on every host; a part the plane lacks answers 404.
func (p *Plane) DebugHandler() (http.Handler, error) {
	if p == nil {
		return nil, ErrNotMetered
	}
	mux := obs.NewDebugMux(p.obs)
	mux.HandleFunc("/cluster/metrics", obs.ClusterMetricsHandler(p.pull))
	mux.HandleFunc("/healthz", health.Handler(p.health))
	mux.HandleFunc("/timeseries", tsdb.Handler(p.tsdb))
	mux.HandleFunc("/slo", slo.Handler(p.slo))
	mux.HandleFunc("/debug/flight", flight.Handler(p.flight))
	mux.HandleFunc("/debug/flight/sealed", func(w http.ResponseWriter, r *http.Request) {
		if d := p.Sealed(); d != nil {
			obs.WriteJSON(w, http.StatusOK, d)
		} else {
			http.Error(w, "no sealed flight dump", http.StatusNotFound)
		}
	})
	return mux, nil
}
