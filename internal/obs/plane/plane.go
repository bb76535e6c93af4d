// Package plane assembles the observability stack of one host of the
// reliable device — a TCP RemoteSite, a chaos run — in one place:
// observer, tsdb ring, alert engine and flight recorder on one clock,
// the step a host's cadence drives (the ring's only sampler), and the
// debug HTTP surface over all of it (DESIGN.md "Wiring", "Alerts").
// The in-process Cluster takes only its metering observer from here.
// It sits beside the packages it wires because obs itself cannot
// import them.
package plane

import (
	"errors"
	"net/http"
	"sync/atomic"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/flight"
	"relidev/internal/obs/tsdb"
)

// The accessors' typed refusals; the public package re-exports them,
// so the texts name its settings.
var (
	ErrNotMetered   = errors.New("relidev: host not built with WithMetering / RemoteConfig.Metered")
	ErrNoObjectives = errors.New("relidev: host not built with RemoteConfig.TelemetryStep")
)

// defaultRetain is the ring size of a host that does not say: ten
// minutes at a 1s step.
const defaultRetain = 600

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
	// StepNs, when positive, is the cadence the host promises to drive
	// Step at, and builds what Step drives: the ring (Retain frames,
	// zero: 600), the alert engine over it and the black-box recorder,
	// whose dumps hold the ring's newest steps, the trace tail and the
	// host's own Probes (a failure detector's suspect set, a harness's
	// site states). At zero the host has none of them.
	StepNs int64
	Retain int
	Probes []flight.Source
	// Objectives are what the alert engine judges each step; they
	// require a step.
	Objectives []alert.Objective
	// Pull reaches the host's peers for the cross-site views DebugHandler
	// serves, /cluster/metrics and /trace/cluster; it is only called
	// after the host is built.
	Pull obs.Puller
}

// A Plane is one host's observability stack. A nil *Plane is the
// unmetered host: Observer returns nil, Step and Seal do nothing, and
// the accessors return ErrNotMetered.
type Plane struct {
	obs    *obs.Observer
	ring   *tsdb.DB // nil without a step, like alerts and flight
	alerts *alert.Engine
	views  map[string]bool // the policies that have objectives
	flight *flight.Recorder
	pull   obs.Puller
	sealed atomic.Pointer[flight.Dump]
}

// New builds the stack cfg describes.
func New(cfg Config) (*Plane, error) {
	views := make(map[string]bool)
	for _, o := range cfg.Objectives {
		views[o.Policy.Kind()] = true
	}
	switch {
	case cfg.StepNs < 0:
		return nil, errors.New("negative telemetry step")
	case cfg.StepNs == 0 && len(cfg.Objectives) > 0:
		return nil, errors.New("objectives require a telemetry step")
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
	p := &Plane{obs: o, views: views, pull: cfg.Pull}
	if cfg.StepNs > 0 {
		if cfg.Retain <= 0 {
			cfg.Retain = defaultRetain
		}
		p.ring = tsdb.New(tsdb.Config{Clock: clk, Source: o.Snapshot, StepNs: cfg.StepNs, Retain: cfg.Retain})
		p.flight = flight.New(clk, p.ring, o.Tracer(), cfg.Probes...)
		p.alerts = alert.NewEngine(p.ring, clk, p.Seal, cfg.Objectives...)
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

// Seal seals the flight recorder into the retained dump. The first
// trigger wins: its dump shows what led up to the failure, which later
// triggers would only dilute. The alert engine calls it when a critical
// latch sets, wherever the evaluation happened; harnesses call it on an
// invariant violation. A no-op without a recorder.
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

// Step is one tick of the host's cadence — a server's poller, a
// harness's checkpoint: sample the registry into the ring, once, then
// evaluate every objective off the ring; a critical latch seals the
// recorder with this step's sample already in it. It is the ring's
// only sampler, so readers between two steps all see one ring. The
// report is nil for a plane without a step.
func (p *Plane) Step() *alert.Report {
	if p == nil || p.ring == nil {
		return nil
	}
	p.ring.Sample()
	rep := p.alerts.Evaluate()
	return &rep
}

// View evaluates the objectives over the ring as the last step left it
// and returns one policy's view of the report — alert.PolicyThreshold
// is what /healthz serves, PolicyBurn what /slo does. A critical latch
// seals the recorder.
func (p *Plane) View(policy string) (alert.Report, error) {
	switch {
	case p == nil:
		return alert.Report{}, ErrNotMetered
	case !p.views[policy]:
		return alert.Report{}, ErrNoObjectives
	}
	return p.alerts.Evaluate().View(policy), nil
}

// CriticalPath computes the critical-path profile of the current metrics.
func (p *Plane) CriticalPath() (*obs.Profile, error) {
	if p == nil {
		return nil, ErrNotMetered
	}
	return p.obs.CriticalPath(), nil
}

// DebugHandler returns the debug HTTP surface: the observer's routes
// (/metrics, /metrics.prom, /trace, /trace/tree, /profile,
// /debug/pprof/) plus /cluster/metrics and /trace/cluster (the two
// cross-site views of one pull), /healthz and /slo (the two views of
// one evaluation), /timeseries, /debug/flight (an on-demand dump per
// GET) and /debug/flight/sealed (the retained trigger-sealed dump).
// The route set is the same on every host; a part the plane lacks
// answers 404.
func (p *Plane) DebugHandler() (http.Handler, error) {
	if p == nil {
		return nil, ErrNotMetered
	}
	mux := obs.NewDebugMux(p.obs)
	mux.HandleFunc("/cluster/metrics", obs.ClusterMetricsHandler(p.obs, p.pull))
	mux.HandleFunc("/trace/cluster", obs.ClusterTraceHandler(p.obs, p.pull))
	for route, policy := range map[string]string{"/healthz": alert.PolicyThreshold, "/slo": alert.PolicyBurn} {
		mux.HandleFunc(route, alert.Handler(func() (alert.Report, error) { return p.View(policy) }))
	}
	mux.HandleFunc("/timeseries", tsdb.Handler(p.ring))
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
