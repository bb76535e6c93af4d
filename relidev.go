// Package relidev implements the reliable device of Carroll, Long and
// Pâris, "Block-Level Consistency of Replicated Files" (ICDCS 1987): a
// virtual block-structured device replicated across several server
// sites, with consistency maintained by one of three algorithms —
// majority consensus voting, available copy, or naive available copy.
//
// A reliable device looks exactly like an ordinary disk, so file systems
// (and anything else speaking blocks) run on it unmodified while gaining
// the availability of replication:
//
//	cluster, err := relidev.New(3, relidev.NaiveAvailableCopy)
//	if err != nil { ... }
//	dev, err := cluster.Device(0)
//	if err != nil { ... }
//	err = dev.WriteBlock(ctx, 7, payload)   // replicated write
//	data, err := dev.ReadBlock(ctx, 7)      // local read, zero messages
//
// Sites can fail (fail-stop) and recover at any time:
//
//	cluster.Fail(2)
//	// ... the device keeps working ...
//	cluster.Restart(ctx, 2) // runs the scheme's recovery procedure
//
// The package also exposes the paper's analytical machinery (§4
// availability formulas, §5 traffic cost models) and a TCP deployment so
// the device can genuinely span OS processes. The companion packages
// under cmd/ regenerate every figure of the paper's evaluation; see
// EXPERIMENTS.md.
package relidev

import (
	"context"
	"encoding/json"
	"time"

	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/plane"
	"relidev/internal/protocol"
	"relidev/internal/simnet"
	"relidev/internal/store"
)

// Geometry describes a device: block size in bytes and number of blocks.
type Geometry = block.Geometry

// Index addresses one block of a device.
type Index = block.Index

// Scheme selects one of the paper's three consistency control
// algorithms.
type Scheme int

// The §3 consistency schemes.
const (
	// Voting is weighted majority consensus voting with per-block lazy
	// recovery (§3.1): operations require a quorum; recovering sites
	// generate no traffic.
	Voting Scheme = iota + 1
	// AvailableCopy writes to all available copies and reads locally,
	// tracking was-available sets so that recovery after a total failure
	// only waits for the closure of the last sites to fail (§3.2).
	AvailableCopy
	// NaiveAvailableCopy is available copy without any failure
	// bookkeeping: single-message writes, but after a total failure every
	// site must recover before the device is accessible again (§3.3).
	// The paper's analysis concludes it is the algorithm of choice.
	NaiveAvailableCopy
)

// String implements fmt.Stringer.
func (s Scheme) String() string { return s.kind().String() }

func (s Scheme) kind() core.SchemeKind {
	switch s {
	case Voting:
		return core.Voting
	case AvailableCopy:
		return core.AvailableCopy
	case NaiveAvailableCopy:
		return core.NaiveAvailableCopy
	default:
		return core.SchemeKind(int(s))
	}
}

// SiteState reports a site's §3.2 state.
type SiteState = protocol.SiteState

// Site states.
const (
	// StateFailed means the site process has halted.
	StateFailed = protocol.StateFailed
	// StateComatose means the site restarted but has not yet confirmed it
	// holds current data.
	StateComatose = protocol.StateComatose
	// StateAvailable means the site serves the device.
	StateAvailable = protocol.StateAvailable
)

// Device is the ordinary block-device interface a file system sees.
type Device interface {
	// Geometry returns the device shape.
	Geometry() Geometry
	// ReadBlock returns the contents of one block.
	ReadBlock(ctx context.Context, idx Index) ([]byte, error)
	// WriteBlock replaces one block; the payload must be exactly one
	// block long.
	WriteBlock(ctx context.Context, idx Index, data []byte) error
}

// Option customises a cluster.
type Option func(*options)

type options struct {
	geometry  Geometry
	unicast   bool
	witnesses int
	metered   bool
}

// WithGeometry sets the device shape (default 512-byte blocks, 128
// blocks).
func WithGeometry(g Geometry) Option {
	return func(o *options) { o.geometry = g }
}

// WithUnicastNetwork models the §5.2 unique-addressing network instead
// of the default multicast network; it changes only traffic accounting,
// never semantics.
func WithUnicastNetwork() Option {
	return func(o *options) { o.unicast = true }
}

// WithMetering attaches the observability layer to the cluster:
// per-scheme/site/op counters, latency histograms, and transport
// metering. Read the result through MetricsJSON and CriticalPath; the
// debug HTTP surface, traces and alerts are a RemoteSite's. The
// instrumentation path is contention-free (striped counters, sharded
// histograms), so metered clusters stay within a few percent of
// unmetered throughput; the benchmark module's ladder.obs_op_ns
// measures the per-op delta.
func WithMetering() Option {
	return func(o *options) { o.metered = true }
}

// WithWitnesses turns the last w sites into voting witnesses (Pâris
// [10]): full quorum participants that track per-block version numbers
// but store no data. Witnesses buy voting-grade consistency guarantees
// at a fraction of the storage cost; valid only with the Voting scheme.
func WithWitnesses(w int) Option {
	return func(o *options) { o.witnesses = w }
}

// Objective is one alert condition (DESIGN.md "Alerts"): a signal
// measured from the telemetry ring under a policy — a threshold with
// hysteresis, served at /healthz, or a multi-window burn rate against
// an error budget, served at /slo. A site takes them in
// RemoteConfig.Objectives; start from DefaultObjectives or the *SLO
// constructors.
type Objective = alert.Objective

// BurnPolicy is the burn-rate policy of an SLO: the target good
// fraction and, optionally, the two windows and the alert rate (zero
// values take 5m/1h at 2x burn).
type BurnPolicy = alert.Burn

// AlertReport is one evaluation of the objectives, or one policy's view
// of it: per-objective state plus the overall severity fold.
type AlertReport = alert.Report

// AlertStatus is one objective's state inside an AlertReport.
type AlertStatus = alert.Status

// Severity orders alert states.
type Severity = alert.Severity

// Alert severities.
const (
	SeverityOK       = alert.OK
	SeverityWarn     = alert.Warn
	SeverityCritical = alert.Critical
)

// ReadLatencySLO promises that the policy's target fraction of the
// scheme's reads complete within the threshold (the p99 objective at
// target 0.99).
func ReadLatencySLO(scheme Scheme, threshold time.Duration, p BurnPolicy) Objective {
	return alert.ReadLatency(scheme.String(), threshold.Nanoseconds(), p)
}

// WriteAvailabilitySLO promises that the policy's target fraction of
// write attempts complete; derive the target from the §4 Markov
// prediction (see Availability) so the alert means "writes fail more
// than the analysis says they should".
func WriteAvailabilitySLO(scheme Scheme, p BurnPolicy) Objective {
	return alert.WriteAvailability(scheme.String(), p)
}

// DefaultObjectives returns the standard set for a cluster of n sites
// running the given scheme at failure/repair ratio rho. Thresholds:
// quorum margin (is the cluster one failure from unavailability?),
// overall error rate and group-commit saturation. Burn rates: read p99
// latency and write availability at the §4 Markov-predicted target.
func DefaultObjectives(scheme Scheme, n int, rho float64) []Objective {
	quorum := 1
	if scheme == Voting {
		quorum = n/2 + 1
	}
	target := 0.99
	if av, err := Availability(scheme, n, rho); err == nil {
		// The prediction is the ceiling; leave one part in a thousand of
		// slack so the alert needs real degradation, not rounding.
		target = av * 0.999
	}
	return []Objective{
		alert.QuorumMargin(scheme.String(), quorum),
		alert.ErrorRate(0.1),
		alert.BatcherOccupancy(64),
		ReadLatencySLO(scheme, 50*time.Millisecond, BurnPolicy{Target: 0.99}),
		WriteAvailabilitySLO(scheme, BurnPolicy{Target: target}),
	}
}

// TrafficStats counts high-level network transmissions as defined in §5,
// plus the byte-volume alternative metric §5 mentions.
type TrafficStats struct {
	// Transmissions is the total number of high-level transmissions.
	Transmissions uint64
	// Requests and Replies split the total by direction.
	Requests, Replies uint64
	// Bytes is the estimated total wire volume.
	Bytes uint64
}

// Cluster is an in-process reliable device: n replica sites joined by a
// simulated network, each exposing the device.
type Cluster struct {
	inner *core.Cluster
	// plane is the metering stack (nil when unmetered): an observer and
	// nothing else — no tracer, ring, alerts or recorder.
	plane *plane.Plane
}

// New builds a cluster of n sites running the given consistency scheme.
// All sites start available with zeroed stores.
func New(n int, scheme Scheme, opts ...Option) (*Cluster, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	cfg := core.ClusterConfig{
		Sites:     n,
		Geometry:  o.geometry,
		Scheme:    scheme.kind(),
		Witnesses: o.witnesses,
	}
	if o.unicast {
		cfg.Mode = simnet.Unicast
	}
	// Metering alone asks for no part plane.New could refuse.
	p, _ := plane.New(plane.Config{Metered: o.metered})
	cfg.Observer = p.Observer()
	inner, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, plane: p}, nil
}

// storeObsOpts wires a site's group-commit batcher to the observer:
// the occupancy gauge plus the store-side phase histograms (queue
// wait, apply, fsync) that the critical-path profile reports beside
// the op partition. The MaxDelay timer and the flush stats both run on
// the observer's clock: one time base, which replayed harnesses own.
func storeObsOpts(observer *obs.Observer, id protocol.SiteID) []store.BatchOption {
	if observer == nil {
		return nil
	}
	site := obs.L("site", id.String())
	g := observer.Registry().Gauge(obs.MetricGroupCommitOccupancy, site)
	qw := observer.Registry().Histogram(obs.MetricStorePhase, site, obs.L("phase", obs.StorePhaseQueueWait))
	ap := observer.Registry().Histogram(obs.MetricStorePhase, site, obs.L("phase", obs.StorePhaseApply))
	fs := observer.Registry().Histogram(obs.MetricStorePhase, site, obs.L("phase", obs.StorePhaseFsync))
	return []store.BatchOption{
		store.WithBatchClock(observer.Clock()),
		store.WithFlushObserver(func(n int) { g.Set(int64(n)) }),
		store.WithFlushStats(func(st store.FlushStats) {
			for _, w := range st.QueueWaitNs {
				qw.Observe(w)
			}
			ap.Observe(st.ApplyNs)
			if st.SyncNs > 0 {
				fs.Observe(st.SyncNs)
			}
		}, observer.Now),
	}
}

// Sites returns the number of replica sites.
func (c *Cluster) Sites() int { return c.inner.Sites() }

// Geometry returns the device shape.
func (c *Cluster) Geometry() Geometry { return c.inner.Geometry() }

// Device returns the reliable device as served at the given site. Any
// site's device views the same replicated contents.
func (c *Cluster) Device(site int) (Device, error) {
	return c.inner.Device(protocol.SiteID(site))
}

// Fail crashes a site (fail-stop; its stable storage is preserved).
func (c *Cluster) Fail(site int) error {
	return c.inner.Fail(protocol.SiteID(site))
}

// Restart brings a failed site back and drives the scheme's recovery
// procedure, cascading to any other site whose recovery was waiting.
func (c *Cluster) Restart(ctx context.Context, site int) error {
	return c.inner.Restart(ctx, protocol.SiteID(site))
}

// State returns a site's current state.
func (c *Cluster) State(site int) (SiteState, error) {
	return c.inner.State(protocol.SiteID(site))
}

// AvailableSites returns how many sites currently serve the device.
func (c *Cluster) AvailableSites() int { return c.inner.AvailableCount() }

// Grow adds one replica site to the running cluster and brings it
// current through the scheme's ordinary recovery procedure — the
// introduction's "increasing the order of replication". Returns the new
// site's id. Previously obtained Device handles remain valid and see the
// new membership.
func (c *Cluster) Grow(ctx context.Context) (int, error) {
	id, err := c.inner.Grow(ctx)
	return int(id), err
}

// Remove retires the highest-numbered site. It refuses configurations
// that would discard the most recent data (no other available site)
// unless force is set.
func (c *Cluster) Remove(ctx context.Context, force bool) error {
	return c.inner.Remove(ctx, force)
}

// Traffic returns a snapshot of the network traffic counters.
func (c *Cluster) Traffic() TrafficStats {
	st := c.inner.Network().Stats()
	return TrafficStats{
		Transmissions: st.Transmissions,
		Requests:      st.Requests,
		Replies:       st.Replies,
		Bytes:         st.Bytes,
	}
}

// ResetTraffic zeroes the traffic counters.
func (c *Cluster) ResetTraffic() { c.inner.Network().ResetStats() }

// The observability accessors' typed refusals, on a Cluster and on a
// RemoteSite alike: each names the setting the host was built without.
var (
	ErrNotMetered   = plane.ErrNotMetered   // WithMetering / RemoteConfig.Metered
	ErrNoObjectives = plane.ErrNoObjectives // RemoteConfig.Objectives
)

// MetricsJSON returns the current metering snapshot — counters, gauges,
// and latency histograms for every scheme/site/op series — encoded as
// JSON. It requires WithMetering.
func (c *Cluster) MetricsJSON() ([]byte, error) {
	if c.plane == nil {
		return nil, ErrNotMetered
	}
	return json.Marshal(c.plane.Observer().Snapshot())
}

// CriticalPathProfile is the cluster-wide critical-path attribution:
// per-scheme/op phase breakdowns (lock wait, fan-out, rpc, local
// residual, straggler) and store-side flush phases. A RemoteSite serves
// it live at /profile; its Flame method renders it as a text
// flamegraph.
type CriticalPathProfile = obs.Profile

// CriticalPath computes the critical-path profile from the current
// metrics. The partition phases of each op class sum to its measured
// end-to-end latency (Coverage reports the ratio), so the breakdown
// answers "where did the time go" exactly. Requires WithMetering.
func (c *Cluster) CriticalPath() (*CriticalPathProfile, error) { return c.plane.CriticalPath() }
