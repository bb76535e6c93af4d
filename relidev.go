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
	"fmt"
	"net/http"
	"time"

	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/plane"
	"relidev/internal/protocol"
	"relidev/internal/repair"
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
	geometry      Geometry
	unicast       bool
	witnesses     int
	metered       bool
	traceCap      int
	repairPolicy  *repair.Policy
	objectives    []Objective
	telemetryStep time.Duration
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
// metering. Read the result through MetricsJSON or mount DebugHandler.
// The instrumentation path is contention-free (striped counters,
// sharded histograms), so metered clusters stay within a few percent
// of unmetered throughput; the benchmark module's ladder.obs_op_ns
// measures the per-op delta.
func WithMetering() Option {
	return func(o *options) { o.metered = true }
}

// WithTracing additionally retains the last capacity protocol trace
// events (operation spans, quorum assemblies, W-set transitions) in a
// lock-free ring, exposed at /trace on the DebugHandler. Implies
// WithMetering; capacity <= 0 uses the default ring size.
func WithTracing(capacity int) Option {
	return func(o *options) {
		o.metered = true
		o.traceCap = capacity
		if o.traceCap <= 0 {
			o.traceCap = 4096
		}
	}
}

// WithWitnesses turns the last w sites into voting witnesses (Pâris
// [10]): full quorum participants that track per-block version numbers
// but store no data. Witnesses buy voting-grade consistency guarantees
// at a fraction of the storage cost; valid only with the Voting scheme.
func WithWitnesses(w int) Option {
	return func(o *options) { o.witnesses = w }
}

// RepairPolicy tunes the background anti-entropy repairer; the zero
// value takes sensible defaults (16-block pages, 2 pages in flight per
// donor, unlimited rate).
type RepairPolicy = repair.Policy

// WithBackgroundRepair enables the background anti-entropy repairer:
// after a restarted site is readmitted, it streams the site's stale
// blocks from multiple up-to-date peers under the given policy instead
// of waiting for the workload to touch every block (lazy-only, the
// paper's default). See DESIGN.md §13.
func WithBackgroundRepair(p RepairPolicy) Option {
	return func(o *options) { o.repairPolicy = &p }
}

// Objective is one alert condition (DESIGN.md "Alerts"): a signal
// measured from the telemetry ring under a policy — a threshold with
// hysteresis, served at /healthz, or a multi-window burn rate against
// an error budget, served at /slo. Start from DefaultObjectives or the
// *SLO constructors.
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

// RepairFreshnessSLO promises repair backlogs clear within the §13
// deadline: a telemetry sample is bad when a site's repair lag has been
// continuously non-zero for longer than deadline at that sample.
func RepairFreshnessSLO(deadline time.Duration, p BurnPolicy) Objective {
	return alert.RepairFreshness(deadline.Nanoseconds(), p)
}

// DefaultObjectives returns the standard set for a cluster of n sites
// running the given scheme at failure/repair ratio rho. Thresholds:
// quorum margin (is the cluster one failure from unavailability?),
// overall error rate, group-commit saturation and — when a repair
// policy is given — staleness outliving its bounded time-to-freshness
// promise. Burn rates: read p99 latency, write availability at the §4
// Markov-predicted target and — with a policy — §13 repair freshness
// against the policy's deadline for a full device of work.
func DefaultObjectives(scheme Scheme, n int, rho float64, blocks int, pol *RepairPolicy) []Objective {
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
	objs := []Objective{
		alert.QuorumMargin(scheme.String(), quorum),
		alert.ErrorRate(0.1),
		alert.BatcherOccupancy(64),
	}
	if pol != nil {
		objs = append(objs, alert.StalenessLag(pol.Deadline(1).Nanoseconds()))
	}
	objs = append(objs,
		ReadLatencySLO(scheme, 50*time.Millisecond, BurnPolicy{Target: 0.99}),
		WriteAvailabilitySLO(scheme, BurnPolicy{Target: target}))
	if pol != nil {
		objs = append(objs, RepairFreshnessSLO(pol.Deadline(blocks), BurnPolicy{Target: 0.99}))
	}
	return objs
}

// WithObjectives attaches the alert engine over the given objectives
// (implies WithMetering): Cluster.Health and Cluster.SLOs evaluate on
// demand, and the debug surface serves /healthz and /slo, each
// answering 503 once one of its objectives is critical. Without
// WithTelemetry every evaluation takes its own sample of the metrics,
// so a threshold judges what happened since the previous evaluation,
// whoever made it; with it, evaluations read what SampleTelemetry
// recorded and never move the window.
func WithObjectives(objectives ...Objective) Option {
	return func(o *options) {
		o.metered = true
		o.objectives = append(o.objectives, objectives...)
	}
}

// WithTelemetry attaches the time-series plane (DESIGN.md "Alerts"): a
// bounded in-memory ring that records delta-encoded frames of every
// counter, gauge, and latency histogram, ten minutes of them at the
// default step. step is the nominal sampling cadence (zero: 1s).
// Implies WithMetering.
//
// The ring never samples itself: call Cluster.SampleTelemetry on the
// deployment's cadence (the TCP servers run a wall-clock poller;
// deterministic harnesses call it from their own schedule). The history
// serves /timeseries on the DebugHandler and is what the objectives
// are evaluated over.
func WithTelemetry(step time.Duration) Option {
	return func(o *options) {
		o.metered = true
		if step <= 0 {
			step = time.Second
		}
		o.telemetryStep = step
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
	// plane is the observability stack (nil when unmetered); it has no
	// flight recorder — nothing in an in-process cluster drives one.
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
		Repair:    o.repairPolicy,
	}
	if o.unicast {
		cfg.Mode = simnet.Unicast
	}
	c := new(Cluster)
	var err error
	c.plane, err = plane.New(plane.Config{
		Metered:    o.metered,
		TraceCap:   o.traceCap,
		Objectives: o.objectives,
		StepNs:     o.telemetryStep.Nanoseconds(),
		Pull:       c.clusterPull,
	})
	if err != nil {
		return nil, fmt.Errorf("relidev: %w", err)
	}
	cfg.Observer = c.plane.Observer()
	c.inner, err = core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return c, nil
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
// RemoteSite alike: each names the option the host was built without.
var (
	ErrNotMetered   = plane.ErrNotMetered   // WithMetering / RemoteConfig.Metered
	ErrNoObjectives = plane.ErrNoObjectives // WithObjectives / Objectives
	ErrNoTelemetry  = plane.ErrNoTelemetry  // WithTelemetry / TelemetryStep
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

// DebugHandler returns the observability HTTP surface (/metrics,
// /metrics.prom, /trace, /trace/tree, /profile, /debug/pprof/,
// /cluster/metrics, and — when the matching options were given —
// /healthz, /slo, /timeseries) for this cluster, or an error when the
// cluster was built without WithMetering. Mount it on any server the
// embedding application already runs.
func (c *Cluster) DebugHandler() (http.Handler, error) { return c.plane.DebugHandler() }

// SampleTelemetry records one frame into the telemetry ring: the delta
// of every counter and histogram since the previous frame plus current
// gauge values. Call it on the deployment's sampling cadence — the ring
// never starts its own timer, so sampling stays under the caller's
// scheduling (and deterministic harnesses replay it exactly).
func (c *Cluster) SampleTelemetry() error {
	db, err := c.plane.Ring()
	if err == nil {
		db.Sample()
	}
	return err
}

// TelemetryStep returns the nominal sampling cadence configured with
// WithTelemetry, for pollers that drive SampleTelemetry.
func (c *Cluster) TelemetryStep() (time.Duration, error) {
	db, err := c.plane.Ring()
	return time.Duration(db.StepNs()), err
}

// TimeSeriesJSON returns the telemetry ring's retained history — every
// series downsampled to step over the trailing window (zero values mean
// the whole retention at the sampling step) — encoded as JSON, the same
// shape /timeseries serves.
func (c *Cluster) TimeSeriesJSON(window, step time.Duration) ([]byte, error) {
	db, err := c.plane.Ring()
	if err != nil {
		return nil, err
	}
	return json.Marshal(db.Query(window.Nanoseconds(), step.Nanoseconds()))
}

// SLOs evaluates the objectives and returns the burn-rate view: burn
// rates, alert states with fire/clear timestamps and budgets spent —
// what /slo serves. Requires WithObjectives with at least one SLO;
// windows with no samples burn nothing.
func (c *Cluster) SLOs() (AlertReport, error) { return c.plane.View(alert.PolicyBurn) }

// clusterPull assembles the cluster metrics view over the cluster's
// own network: the aggregator (site 0's vantage) broadcasts a
// TelemetryPull to every site and merges the returned registry slices
// with its local contribution — its own site slice (the network skips
// self-sends: local operations are free per §5, so site 0's slice never
// crosses the wire) plus the site-less residue (transport series —
// everything not carrying a "site" label). Failed sites degrade to a
// partial view reported per peer, never an error for the whole view.
func (c *Cluster) clusterPull(ctx context.Context) (obs.Snapshot, map[protocol.SiteID]error) {
	peers := make([]protocol.SiteID, c.inner.Sites())
	for i := range peers {
		peers[i] = protocol.SiteID(i)
	}
	self := protocol.SiteID(0).String()
	local := func() obs.Snapshot {
		return obs.FilterSnapshot(c.plane.Observer().Snapshot(),
			func(name string, labels map[string]string) bool {
				site := labels["site"]
				return site == "" || site == self
			})
	}
	return obs.ClusterPull(ctx, c.inner.Network(), 0, peers, local)
}

// ClusterMetricsJSON returns the cross-site aggregated metrics view —
// every site's registry slice scraped over the cluster network and
// merged into one snapshot — plus any per-site scrape errors, encoded
// as the same JSON shape /cluster/metrics serves. Requires
// WithMetering.
func (c *Cluster) ClusterMetricsJSON(ctx context.Context) ([]byte, error) {
	return c.plane.ClusterMetricsJSON(ctx)
}

// Health evaluates the objectives and returns the threshold view:
// per-objective firing and latched states (with hysteresis) and the
// overall severity fold — what /healthz serves. Requires WithObjectives
// with at least one threshold objective.
func (c *Cluster) Health() (AlertReport, error) { return c.plane.View(alert.PolicyThreshold) }

// CriticalPathProfile is the cluster-wide critical-path attribution:
// per-scheme/op phase breakdowns (lock wait, fan-out, rpc, local
// residual, straggler), store-side flush phases, and repair
// interference. Serve it live from the debug surface at /profile, or
// render it as a text flamegraph with its Flame method.
type CriticalPathProfile = obs.Profile

// CriticalPath computes the critical-path profile from the current
// metrics. The partition phases of each op class sum to its measured
// end-to-end latency (Coverage reports the ratio), so the breakdown
// answers "where did the time go" exactly. Requires WithMetering.
func (c *Cluster) CriticalPath() (*CriticalPathProfile, error) { return c.plane.CriticalPath() }

// TraceSpan is one node of a stitched trace tree: an operation, a
// client-side RPC, or a remote site's server-side handling, linked to
// its parent by span identity. See Cluster.TraceTrees.
type TraceSpan struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	// Site is the site whose trace ring recorded the span — for handle
	// spans, the remote site that served the request.
	Site   int
	Op     string
	Kind   string // "op", "rpc", or "handle"
	Detail string
	// StartNs/EndNs bound the span on the recording process's clock.
	StartNs, EndNs int64
	// Orphaned marks a span whose parent was evicted from its ring (or
	// whose site was not collected): the tree is partial, not broken.
	Orphaned bool
	Children []*TraceSpan
}

// TraceTree is the stitched, cluster-wide view of one traced
// operation: the operation's root span with every RPC it issued and
// every site-side handling as descendants. Orphans holds subtrees
// whose ancestry was lost to ring eviction.
type TraceTree struct {
	TraceID uint64
	Root    *TraceSpan
	Orphans []*TraceSpan
	// Sites lists every site that contributed at least one span, sorted.
	Sites []int
	// Spans counts all nodes in the tree.
	Spans int
}

// Complete reports whether the trace stitched into a single rooted
// tree with no ancestry lost.
func (t *TraceTree) Complete() bool { return t.Root != nil && len(t.Orphans) == 0 }

// TraceTrees stitches the cluster's retained trace events into one
// span tree per traced operation (newest operations last). It requires
// WithTracing; a cluster built without it returns ErrNotMetered.
func (c *Cluster) TraceTrees() ([]*TraceTree, error) {
	o := c.plane.Observer()
	if o.Tracer() == nil {
		return nil, ErrNotMetered
	}
	trees := o.TraceTrees()
	out := make([]*TraceTree, len(trees))
	for i, t := range trees {
		out[i] = publicTree(t)
	}
	return out, nil
}

// TraceTree returns the stitched tree for one trace id, or nil when no
// retained span belongs to it.
func (c *Cluster) TraceTree(traceID uint64) (*TraceTree, error) {
	trees, err := c.TraceTrees()
	if err != nil {
		return nil, err
	}
	for _, t := range trees {
		if t.TraceID == traceID {
			return t, nil
		}
	}
	return nil, nil
}

func publicTree(t *obs.TraceTree) *TraceTree {
	out := &TraceTree{TraceID: t.TraceID, Sites: t.Sites, Spans: t.Spans}
	if t.Root != nil {
		out.Root = publicSpan(t.Root)
	}
	for _, o := range t.Orphans {
		out.Orphans = append(out.Orphans, publicSpan(o))
	}
	return out
}

func publicSpan(sp *obs.Span) *TraceSpan {
	out := &TraceSpan{
		TraceID: sp.TraceID, SpanID: sp.SpanID, ParentID: sp.ParentID,
		Site: sp.Site, Op: sp.Op, Kind: sp.Kind, Detail: sp.Detail,
		StartNs: sp.StartNs, EndNs: sp.EndNs, Orphaned: sp.Orphaned,
	}
	for _, c := range sp.Children {
		out.Children = append(out.Children, publicSpan(c))
	}
	return out
}
