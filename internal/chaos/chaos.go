// Package chaos drives a live replica cluster through a seeded schedule
// of failures, repairs, partitions, and message faults, interleaved
// with a read/write workload, and checks the paper's consistency claims
// as machine invariants at every quiescent point.
//
// The schedule comes from the same Poisson failure/repair process the
// analytical simulator uses (internal/sim), compiled into real
// Cluster.Fail/Restart calls; message faults come from a faultnet
// decorator spliced between the controllers and the simulated network.
// Everything is seeded, the workload is sequential, and faultnet's
// decision streams are per-link, so a run is a pure function of its
// Config: the Report's digest is bit-identical across replays.
//
// The invariants, per scheme:
//
//   - version monotonicity: no site's version of any block ever
//     decreases, across failures, repairs, and recoveries;
//   - freshness: a successful read of a block returns a write sequence
//     number no older than the newest committed write and no newer than
//     the newest issued write (sequential workload, so this is exactly
//     linearizability of the read), and reads never go backwards;
//   - was-available safety (available copy only): for every site s, the
//     closure C*(W_s ∪ {s}) contains a site holding the globally newest
//     version of every block — the §3.2 claim that recovery from the
//     most current closure member never adopts a stale copy;
//   - convergence: after a forced total failure every site recovers and
//     (for the available copy schemes) all version vectors are equal.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"

	"relidev/internal/availcopy"
	"relidev/internal/block"
	"relidev/internal/clock"
	"relidev/internal/core"
	"relidev/internal/faultnet"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/avail"
	"relidev/internal/obs/flight"
	"relidev/internal/obs/plane"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/sim"
	"relidev/internal/simnet"
)

// Config parameterises one chaos run. The zero value is not valid; use
// Defaults as a base.
type Config struct {
	// Scheme selects the consistency algorithm under test.
	Scheme core.SchemeKind
	// Sites is the cluster size.
	Sites int
	// Blocks is the device size in blocks.
	Blocks int
	// Seed drives the failure process, the workload, and faultnet.
	Seed int64
	// Events is the number of failure/repair events to apply.
	Events int
	// OpsPerEvent is the number of workload operations between events.
	OpsPerEvent int
	// Rho is the per-site failure-to-repair rate ratio lambda/mu of the
	// Poisson process (repair rate fixed at 1).
	Rho float64
	// Observe attaches the observability layer: per-scheme metrics, a
	// protocol trace ring, and the §5 bracket-conformance check as an
	// additional end-of-run invariant. The whole observability layer —
	// this, Flight and Telemetry — runs on the engine's schedule clock
	// (DESIGN.md "Time") and never feeds the replay digest, so a run's
	// digest is bit-identical with any of them on or off.
	Observe bool
	// Flight attaches the black-box flight recorder and the threshold
	// objectives (requires Observe): every quiescent checkpoint samples
	// the registry into the telemetry ring and evaluates them, the last
	// verdict lands in Report.Health, and the first invariant violation
	// or critical objective seals the ring's newest steps, the trace
	// tail and the site states into Report.Flight.
	Flight bool
	// Telemetry attaches the burn-rate objectives (requires Observe)
	// and keeps a ring long enough for their budgets to span the run —
	// windows are sized in checkpoint cycles. Alert transitions land in
	// Report.SLOAlerts stamped with the schedule tick they happened at,
	// the final evaluation in Report.SLO, and an exhausted error budget
	// seals the flight recorder.
	Telemetry bool
	// Coda appends this many fault-free workload batches (each followed
	// by a checkpoint) after convergence. The quiet tail is part of the
	// schedule — it stamps and digests like any other batch — and gives
	// time-windowed telemetry room to observe recovery: burn-rate
	// alerts raised during the faulty phase clear once the coda pushes
	// the windows past it.
	Coda int
}

// Defaults returns a Config sized for a quick but meaningful run.
func Defaults(kind core.SchemeKind) Config {
	return Config{
		Scheme:      kind,
		Sites:       5,
		Blocks:      12,
		Seed:        1,
		Events:      200,
		OpsPerEvent: 8,
		Rho:         0.25,
		Observe:     true,
		Flight:      true,
		Telemetry:   true,
		Coda:        4,
	}
}

func (c Config) validate() error {
	if c.Sites < 2 || c.Sites > protocol.MaxSites {
		return fmt.Errorf("chaos: need 2..%d sites, got %d", protocol.MaxSites, c.Sites)
	}
	if c.Blocks < 1 {
		return fmt.Errorf("chaos: need at least one block, got %d", c.Blocks)
	}
	if c.Events < 1 {
		return fmt.Errorf("chaos: need at least one event, got %d", c.Events)
	}
	if c.OpsPerEvent < 0 {
		return fmt.Errorf("chaos: negative ops per event %d", c.OpsPerEvent)
	}
	if c.Rho <= 0 {
		return fmt.Errorf("chaos: rho must be positive, got %v", c.Rho)
	}
	if c.Coda < 0 {
		return fmt.Errorf("chaos: negative coda %d", c.Coda)
	}
	return nil
}

// menu is the per-scheme fault menu. Voting is exercised against the
// full §6 horror show — lost messages, lost replies, timeouts, and
// partitions — because quorum intersection is supposed to survive all
// of it. The available copy schemes get crash/repair and latency only:
// §6 states they require a reliable, partition-free network, so feeding
// them message loss would manufacture violations the paper already
// predicts.
func menu(kind core.SchemeKind, seed int64) faultnet.Config {
	switch kind {
	case core.Voting:
		return faultnet.Config{
			Seed:          seed,
			DropProb:      0.04,
			ReplyLossProb: 0.03,
			TimeoutProb:   0.03,
			LatencyProb:   0.02,
			// Puts and aborts assume reliable delivery: a silently dropped
			// put leaves a sub-quorum install, and a dropped abort leaves a
			// failed prepare-write's staged data behind — both can alias a
			// later write's version number. Losing their acknowledgements
			// stays fair game.
			NoDropKinds: []string{"put", "abort-write"},
		}
	default:
		return faultnet.Config{
			Seed:        seed,
			LatencyProb: 0.02,
		}
	}
}

// Report is the JSON-serialisable outcome of a run.
type Report struct {
	Scheme        string         `json:"scheme"`
	Sites         int            `json:"sites"`
	Blocks        int            `json:"blocks"`
	Seed          int64          `json:"seed"`
	Rho           float64        `json:"rho"`
	EventsApplied int            `json:"events_applied"`
	EventsSkipped int            `json:"events_skipped"`
	Fails         int            `json:"fails"`
	Repairs       int            `json:"repairs"`
	TotalFailures int            `json:"total_failures"`
	Ops           int            `json:"ops"`
	Reads         int            `json:"reads"`
	Writes        int            `json:"writes"`
	OpErrors      int            `json:"op_errors"`
	Faults        faultnet.Stats `json:"faults"`
	Violations    []string       `json:"violations"`
	Digest        string         `json:"digest"`
	// Metrics and Conformance are present when Config.Observe is set:
	// the end-of-run metrics snapshot and the §5 bracket-conformance
	// verdict (whose failures also appear in Violations).
	Metrics     *obs.Snapshot          `json:"metrics,omitempty"`
	Conformance *obs.ConformanceReport `json:"conformance,omitempty"`
	// Avail and AvailConformance are the availability observatory's
	// output, also present only under Config.Observe: the empirical
	// per-site and scheme-level availability measured over the run's
	// simulated timeline, and the §4 Markov-conformance verdict at the
	// measured rates (failures appear in Violations as well).
	Avail            *avail.Stats  `json:"avail,omitempty"`
	AvailConformance *avail.Report `json:"avail_conformance,omitempty"`
	// Flight is the sealed flight-recorder dump, present when
	// Config.Flight is set and a trigger fired: the first invariant
	// violation or the first critical objective seals it, so the dump
	// shows the system's last recorded steps before the failure.
	Flight *flight.Dump `json:"flight,omitempty"`
	// Health is the threshold objectives' verdict at the last quiescent
	// checkpoint, present when Config.Flight is set.
	Health *alert.Report `json:"health,omitempty"`
	// SLO is the burn-rate objectives' evaluation at the last quiescent
	// checkpoint and SLOAlerts the run's full alert transition log, both
	// present when Config.Telemetry is set. Timestamps are schedule
	// ticks, so a replayed run fires and clears the same alerts at the
	// same instants.
	SLO       *alert.Report `json:"slo,omitempty"`
	SLOAlerts []SLOAlert    `json:"slo_alerts,omitempty"`
}

// An SLOAlert records one burn-rate alert's lifetime: the schedule
// tick it fired and, if the run's quiet coda let the windows drain, the
// tick it cleared (0 while still firing at end of run).
type SLOAlert struct {
	Name        string `json:"name"`
	FiredAtNs   int64  `json:"fired_at_ns"`
	ClearedAtNs int64  `json:"cleared_at_ns,omitempty"`
}

// engine is the mutable state of one run.
type engine struct {
	cfg Config
	cl  *core.Cluster
	fn  *faultnet.Network
	rng *rand.Rand
	// clk is the schedule clock every observability plane reads. Only
	// tick() moves it — once per workload op, event and checkpoint — so
	// each duration and timestamp in the report is a function of the
	// schedule, never of how often or in what order goroutines read it.
	clk *clock.Manual
	// plane is the observability stack, attached under Config.Observe
	// (nil otherwise): observer and tracer always, the flight recorder
	// and threshold objectives under Config.Flight, the burn-rate
	// objectives under Config.Telemetry. All of it only reads snapshots on the
	// schedule clock — none of it may ever reach stamp().
	plane *plane.Plane
	// est is the availability observatory, fed the schedule's site
	// transitions on the Poisson process's own simulated timeline
	// (simNow tracks the latest event time). Like the tracer, it never
	// feeds the replay digest.
	est    *avail.Estimator
	simNow float64

	// maxIssued and committed bracket, per block, the write sequence
	// numbers a read may legally return. committed also absorbs every
	// successfully read sequence number: sequential reads must never go
	// backwards.
	maxIssued []uint64
	committed []uint64

	// highWater is the per-site per-block version floor for the
	// monotonicity invariant.
	highWater []block.Vector

	hash   hash.Hash64
	report *Report
	// onVerdict, when set (tests), sees every checkpoint's evaluation.
	onVerdict func(*alert.Report)
}

// Run executes one chaos schedule and returns its report. The report is
// returned (with partial counts) even when violations were found; the
// error is reserved for setup problems and context cancellation.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.finish(e.run(ctx))
}

// newEngine builds the cluster under test and everything that watches it.
func newEngine(cfg Config) (*engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &engine{
		cfg:       cfg,
		clk:       clock.NewManual(),
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e)),
		maxIssued: make([]uint64, cfg.Blocks),
		committed: make([]uint64, cfg.Blocks),
		hash:      fnv.New64a(),
		report: &Report{
			Scheme: cfg.Scheme.String(),
			Sites:  cfg.Sites,
			Blocks: cfg.Blocks,
			Seed:   cfg.Seed,
			Rho:    cfg.Rho,
		},
	}
	if cfg.Observe {
		// The schedule clock keeps timestamps a pure function of the
		// schedule, and nothing the plane records feeds the digest:
		// observation cannot perturb a replay. One sample per checkpoint,
		// so the ring's nominal step is one checkpoint cycle.
		pc := plane.Config{Metered: true, Clock: e.clk, TraceCap: 4096, Flight: cfg.Flight,
			Probes:     []flight.Source{{Name: "site_states", Collect: e.siteStates}},
			Objectives: objectives(cfg)}
		if cfg.Telemetry {
			pc.StepNs, pc.Retain = cycleNs(cfg), 4096 // the budgets span the run
		}
		var err error
		if e.plane, err = plane.New(pc); err != nil {
			return nil, err
		}
		if e.est, err = avail.New(cfg.Sites, cfg.Scheme.String()); err != nil {
			return nil, err
		}
	}
	cl, err := core.NewCluster(core.ClusterConfig{
		Sites:    cfg.Sites,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: cfg.Blocks},
		Scheme:   cfg.Scheme,
		Observer: e.plane.Observer(),
		WrapTransport: func(inner protocol.Transport) protocol.Transport {
			fn, ferr := faultnet.New(inner, menu(cfg.Scheme, cfg.Seed))
			if ferr != nil {
				return nil
			}
			e.fn = fn
			return fn
		},
	})
	if err != nil {
		return nil, err
	}
	e.cl = cl
	e.highWater = make([]block.Vector, cfg.Sites)
	for i := 0; i < cfg.Sites; i++ {
		e.highWater[i] = block.NewVector(cfg.Blocks)
	}
	return e, nil
}

// finish turns a completed schedule (err is what run returned) into
// the report: the digest, then the end-of-run observation checks.
func (e *engine) finish(err error) (*Report, error) {
	// The first trigger's dump: an invariant violation, a critical health
	// verdict or an exhausted error budget, whichever came first.
	e.report.Flight = e.plane.Sealed()
	if err != nil {
		return e.report, err
	}
	e.report.Faults = e.fn.Stats()
	// The digest is sealed before observation is consulted: conformance
	// verdicts go straight into Violations, never through stamp(), so a
	// run digests identically with Observe on or off.
	e.report.Digest = fmt.Sprintf("%016x", e.hash.Sum64())
	e.conformanceCheck()
	e.availCheck()
	e.telemetryCheck()
	return e.report, nil
}

// telemetryCheck is the end-of-run standing SLO invariant: a clean run
// — no site failures and no disruptive injected faults (pure latency
// delays don't count) — must end with zero burn-rate alerts on record.
// A schedule that never degraded anything yet paged would mean the
// telemetry plane is hallucinating error budget. Like the §4/§5 checks
// it runs after the digest is sealed and reports through Violations
// directly.
func (e *engine) telemetryCheck() {
	disruptive := e.report.Faults.Total() - e.report.Faults.Delays
	if e.report.Fails != 0 || disruptive != 0 {
		return
	}
	for _, a := range e.report.SLOAlerts {
		e.report.Violations = append(e.report.Violations,
			fmt.Sprintf("slo: alert %q fired at tick %d on a clean run (no failures, no disruptive faults)",
				a.Name, a.FiredAtNs))
	}
}

// tick moves the schedule clock one schedule point: a nanosecond, so
// report timestamps count schedule points.
func (e *engine) tick() { e.clk.Advance(1) }

// cycleNs is one checkpoint cycle on the schedule clock: a tick per
// workload op, one for the event and one for the checkpoint.
func cycleNs(cfg Config) int64 { return int64(cfg.OpsPerEvent + 2) }

// objectives is the set chaos runs evaluate at every quiescent
// checkpoint. Under Config.Flight, the thresholds: quorum margin for the
// scheme under test and the overall failure rate (generous limit —
// injected faults make op errors routine). Under Config.Telemetry, the
// burn rates, windows sized in checkpoint cycles (fast 5, slow 20): read
// latency (strict: the schedule clock stands still inside an op, so
// every op lands in the lowest histogram bucket) and write availability
// (deliberately loose: only a sustained degradation should page).
func objectives(cfg Config) []alert.Objective {
	scheme, cycle := cfg.Scheme.String(), cycleNs(cfg)
	var objs []alert.Objective
	if cfg.Flight {
		quorum := 1
		if cfg.Scheme == core.Voting {
			quorum = cfg.Sites/2 + 1
		}
		objs = append(objs, alert.QuorumMargin(scheme, quorum), alert.ErrorRate(0.5))
	}
	if cfg.Telemetry {
		burn := func(target float64) alert.Burn {
			return alert.Burn{Target: target, FastNs: 5 * cycle, SlowNs: 20 * cycle, Rate: 2}
		}
		objs = append(objs, alert.ReadLatency(scheme, 1024, burn(0.99)), alert.WriteAvailability(scheme, burn(0.8)))
	}
	return objs
}

// logAlerts records the burn-rate alert transitions of one checkpoint's
// evaluation in Report.SLOAlerts; an entry with no clear tick is an
// alert still firing.
func (e *engine) logAlerts(rep *alert.Report) {
	for _, st := range rep.Objectives {
		var open *SLOAlert
		for i := range e.report.SLOAlerts {
			if a := &e.report.SLOAlerts[i]; a.Name == st.Name && a.ClearedAtNs == 0 {
				open = a
			}
		}
		switch {
		case st.Firing && open == nil:
			e.report.SLOAlerts = append(e.report.SLOAlerts, SLOAlert{Name: st.Name, FiredAtNs: st.FiredAtNs})
		case !st.Firing && open != nil:
			open.ClearedAtNs = st.ClearedAtNs
		}
	}
}

// siteStates is the flight-recorder probe for the cluster's up/down
// map, the recorder's stand-in for a failure detector's suspect list.
func (e *engine) siteStates() any {
	states := make([]string, e.cfg.Sites)
	for i := 0; i < e.cfg.Sites; i++ {
		st, _ := e.cl.State(protocol.SiteID(i))
		states[i] = fmt.Sprintf("site%d=%v", i, st)
	}
	return states
}

// conformanceCheck is the end-of-run §5 invariant: the mean messages
// per attempted operation, as metered by the observability layer and
// attributed by the simulated network, must lie inside the scheme's
// analytical bracket even under injected faults, partitions, and failed
// attempts. Strict (exact) conformance is a separate, failure-free
// check — see internal/obs's integration test.
func (e *engine) conformanceCheck() {
	if e.plane == nil {
		return
	}
	snap := e.plane.Observer().Snapshot()
	e.report.Metrics = &snap
	as, ok := obs.SchemeFromName(e.report.Scheme)
	if !ok {
		e.report.Violations = append(e.report.Violations,
			fmt.Sprintf("§5 conformance: no analysis scheme for %q", e.report.Scheme))
		return
	}
	st := e.cl.Network().Stats()
	tx := make(map[string]uint64, len(st.ByOp))
	for op, s := range st.ByOp {
		tx[op] = s.Transmissions
	}
	w, r, rec := obs.GatherObservations(snap, e.report.Scheme, tx)
	in := obs.ConformanceInput{
		Scheme:   as,
		Sites:    e.cfg.Sites,
		Unicast:  e.cl.Network().Mode() == simnet.Unicast,
		Write:    w,
		Read:     r,
		Recovery: rec,
	}
	rep, err := obs.CheckConformance(in, false)
	if err != nil {
		e.report.Violations = append(e.report.Violations, fmt.Sprintf("§5 conformance: %v", err))
		return
	}
	e.report.Conformance = &rep
	e.report.Violations = append(e.report.Violations, rep.Violations()...)

	// The per-op brackets only see traffic attributed to an op class; a
	// request kind outside the protocol.KindOps pricing table would slip
	// past them while inflating the aggregate counters, so any observed
	// unpriced kind is itself a violation (wirecheck enforces the same
	// contract statically at lint time).
	for _, kind := range obs.UnpricedKinds(st.ByKind) {
		e.report.Violations = append(e.report.Violations,
			fmt.Sprintf("§5 conformance: request kind %q is not in the KindOps pricing table; its traffic is unattributed", kind))
	}
}

// availCheck is the end-of-run §4 invariant: the measured failure and
// repair rates, fed into the scheme's Markov chain, must predict an
// availability that the empirically integrated availability brackets
// (within a tolerance widened by the run's sampling error). Like the
// §5 check it runs after the digest is sealed and reports through
// Violations directly, never through stamp(), so observation cannot
// perturb a replay.
func (e *engine) availCheck() {
	if e.est == nil {
		return
	}
	st := e.est.Snapshot(e.simNow)
	e.report.Avail = &st
	rep, err := avail.CheckConformance(st, 0.02, false)
	if err != nil {
		e.report.Violations = append(e.report.Violations, fmt.Sprintf("§4 availability conformance: %v", err))
		return
	}
	e.report.AvailConformance = &rep
	e.report.Violations = append(e.report.Violations, rep.Violations()...)
}

func (e *engine) run(ctx context.Context) error {
	proc, err := sim.NewFailureProcess(e.cfg.Sites, e.cfg.Rho, 1.0, e.cfg.Seed)
	if err != nil {
		return err
	}
	for e.report.EventsApplied < e.cfg.Events {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.workload(ctx)
		ev, ok := proc.Next()
		if !ok {
			return errors.New("chaos: failure process ran dry")
		}
		e.applyEvent(ctx, ev)
		e.checkpoint()
	}
	e.totalFailure(ctx)
	e.checkpoint()
	e.convergenceCheck(ctx)
	e.coda(ctx)
	return ctx.Err()
}

// coda runs the configured number of fault-free workload batches after
// convergence. It is part of the schedule — every step stamps and
// digests like the faulty phase — so the digest stays a pure function
// of (config, seed) whether or not telemetry is attached; its purpose
// is to give the burn-rate windows a quiet tail to drain into, so
// alerts raised under injected degradation get to demonstrate their
// clear transition inside the run.
func (e *engine) coda(ctx context.Context) {
	if e.cfg.Coda == 0 {
		return
	}
	e.fn.SetInjection(false)
	e.fn.Heal()
	e.stamp("CODA")
	for i := 0; i < e.cfg.Coda; i++ {
		if ctx.Err() != nil {
			return
		}
		for j := 0; j < e.cfg.OpsPerEvent; j++ {
			e.step(ctx)
		}
		e.checkpoint()
	}
}

// applyEvent maps one Poisson event onto the live cluster. Events whose
// precondition no longer holds (the process models a site as down that
// chaos already restarted, or vice versa) are counted as skipped, never
// silently dropped.
func (e *engine) applyEvent(ctx context.Context, ev sim.Event) {
	e.tick()
	if ev.At > e.simNow {
		e.simNow = ev.At
	}
	id := protocol.SiteID(ev.Site)
	st, _ := e.cl.State(id)
	switch ev.Kind {
	case sim.EventFail:
		if st == protocol.StateFailed {
			e.report.EventsSkipped++
			return
		}
		if err := e.cl.Fail(id); err != nil {
			e.violatef("event fail %v: %v", id, err)
			return
		}
		e.report.Fails++
		e.est.SiteDown(ev.Site, ev.At)
		e.stamp("F%d", id)
		if e.allFailed() {
			e.report.TotalFailures++
			e.stamp("TF")
		}
	case sim.EventRepair:
		if st != protocol.StateFailed {
			e.report.EventsSkipped++
			return
		}
		if err := e.cl.Restart(ctx, id); err != nil {
			e.violatef("event repair %v: %v", id, err)
			return
		}
		e.report.Repairs++
		e.est.SiteUp(ev.Site, ev.At)
		e.stamp("R%d", id)
	}
	e.report.EventsApplied++
	// Give stuck comatose sites another recovery attempt under fresh
	// fault draws; ErrAwaitingSites inside is not an error.
	if err := e.cl.DriveRecovery(ctx); err != nil {
		e.violatef("drive recovery: %v", err)
	}
}

func (e *engine) allFailed() bool {
	for _, st := range e.cl.States() {
		if st != protocol.StateFailed {
			return false
		}
	}
	return true
}

// workload runs one batch of sequential read/write operations against
// randomly chosen available sites, possibly under a short partition
// window (voting only — §6 says the available copy schemes assume a
// partition-free network).
func (e *engine) workload(ctx context.Context) {
	partition := e.cfg.Scheme == core.Voting && e.rng.Float64() < 0.08
	if partition {
		cut := 1 + e.rng.Intn(e.cfg.Sites/2)
		for i := 0; i < cut; i++ {
			e.fn.SetPartition(protocol.SiteID(e.rng.Intn(e.cfg.Sites)), 1)
		}
		e.stamp("P")
	}
	for i := 0; i < e.cfg.OpsPerEvent; i++ {
		e.step(ctx)
	}
	if partition {
		e.fn.Heal()
		e.stamp("H")
	}
}

// step performs one operation. Operation errors are expected under
// chaos (no quorum, site not available, injected faults); anything
// outside that closed set is a violation.
func (e *engine) step(ctx context.Context) {
	e.tick()
	avail := make([]protocol.SiteID, 0, e.cfg.Sites)
	for i, st := range e.cl.States() {
		if st == protocol.StateAvailable {
			avail = append(avail, protocol.SiteID(i))
		}
	}
	// Draw site and block even when no site is available, so the
	// workload stream stays aligned across runs that diverge only in
	// how long a total outage lasts.
	siteDraw := e.rng.Intn(e.cfg.Sites)
	idx := block.Index(e.rng.Intn(e.cfg.Blocks))
	write := e.rng.Float64() < 0.4
	if len(avail) == 0 {
		e.stamp("idle")
		return
	}
	site := avail[siteDraw%len(avail)]
	ctrl, err := e.cl.Controller(site)
	if err != nil {
		e.violatef("controller %v: %v", site, err)
		return
	}
	e.report.Ops++
	if write {
		e.report.Writes++
		seq := e.maxIssued[idx] + 1
		e.maxIssued[idx] = seq
		err := ctrl.Write(ctx, idx, payload(e.cl.Geometry().BlockSize, idx, seq))
		e.est.Op("write", err == nil)
		switch {
		case err == nil:
			e.committed[idx] = seq
			e.stamp("W%d@%d=%d ok", idx, site, seq)
		case acceptable(err):
			e.report.OpErrors++
			e.stamp("W%d@%d=%d err", idx, site, seq)
		default:
			e.violatef("write %v at %v: %v", idx, site, err)
		}
		return
	}
	e.report.Reads++
	data, err := ctrl.Read(ctx, idx)
	e.est.Op("read", err == nil)
	switch {
	case err == nil:
		got, perr := parsePayload(data)
		if perr != nil {
			e.violatef("read %v at %v: %v", idx, site, perr)
			return
		}
		if got.seq != 0 && got.block != idx {
			// An all-zero (never-written) block parses as block 0 seq 0;
			// only a real payload can witness cross-block corruption.
			e.violatef("read %v at %v returned block %v's data", idx, site, got.block)
			return
		}
		if got.seq < e.committed[idx] || got.seq > e.maxIssued[idx] {
			e.violatef("read %v at %v: seq %d outside [%d, %d]",
				idx, site, got.seq, e.committed[idx], e.maxIssued[idx])
			return
		}
		// Reads must not go backwards either: raise the floor.
		e.committed[idx] = got.seq
		e.stamp("R%d@%d=%d", idx, site, got.seq)
	case acceptable(err):
		e.report.OpErrors++
		e.stamp("R%d@%d err", idx, site)
	default:
		e.violatef("read %v at %v: %v", idx, site, err)
	}
}

// checkpoint runs the quiescent-point invariants: per-site version
// monotonicity for every scheme, was-available closure safety for the
// available copy scheme. It is also the plane's step — one telemetry
// sample and one evaluation of every objective per quiescent point, so
// alert windows are measured in checkpoints on the schedule clock; a
// critical objective seals the recorder even when no hard invariant has
// (yet) been violated.
func (e *engine) checkpoint() {
	e.tick()
	if rep := e.plane.Step(); rep != nil {
		if e.cfg.Flight {
			health := rep.View(alert.PolicyThreshold)
			e.report.Health = &health
		}
		if e.cfg.Telemetry {
			slo := rep.View(alert.PolicyBurn)
			e.report.SLO = &slo
			e.logAlerts(&slo)
		}
		if e.onVerdict != nil {
			e.onVerdict(rep)
		}
	}
	for i := 0; i < e.cfg.Sites; i++ {
		rep, err := e.cl.Replica(protocol.SiteID(i))
		if err != nil {
			e.violatef("replica %d: %v", i, err)
			continue
		}
		vec := rep.Vector()
		for b := 0; b < e.cfg.Blocks; b++ {
			idx := block.Index(b)
			if vec.Get(idx) < e.highWater[i].Get(idx) {
				e.violatef("site %d block %v version regressed %v -> %v",
					i, idx, e.highWater[i].Get(idx), vec.Get(idx))
			}
			e.highWater[i].Set(idx, vec.Get(idx))
		}
	}
	if e.cfg.Scheme == core.AvailableCopy {
		e.closureCheck()
	}
}

// closureCheck verifies the §3.2 safety claim behind available copy
// recovery: for every site s, the closure C*(W_s ∪ {s}) — computed with
// omniscient access to every site's stored was-available set — contains
// a holder of the globally newest version of every block. If it ever
// did not, a recovery rooted at s could adopt a stale copy while
// believing itself current.
func (e *engine) closureCheck() {
	vecs := make([]block.Vector, e.cfg.Sites)
	wsets := make([]protocol.SiteSet, e.cfg.Sites)
	for i := 0; i < e.cfg.Sites; i++ {
		rep, err := e.cl.Replica(protocol.SiteID(i))
		if err != nil {
			e.violatef("replica %d: %v", i, err)
			return
		}
		vecs[i] = rep.Vector()
		wsets[i] = rep.WasAvailable()
	}
	lookup := func(u protocol.SiteID) (protocol.SiteSet, bool) {
		return wsets[u], true
	}
	for s := 0; s < e.cfg.Sites; s++ {
		closure := availcopy.Closure(wsets[s].Add(protocol.SiteID(s)), lookup)
		for b := 0; b < e.cfg.Blocks; b++ {
			idx := block.Index(b)
			var globalMax, closureMax block.Version
			for u := 0; u < e.cfg.Sites; u++ {
				v := vecs[u].Get(idx)
				if v > globalMax {
					globalMax = v
				}
				if closure.Has(protocol.SiteID(u)) && v > closureMax {
					closureMax = v
				}
			}
			if closureMax < globalMax {
				e.violatef("closure of W_%d %v holds %v of block %v, global max %v",
					s, closure, closureMax, idx, globalMax)
			}
		}
	}
}

// totalFailure forces the §3.3 worst case: every site crashes, then
// every site comes back. Injected faults may legitimately delay
// recovery, so after a bounded number of retries the engine turns
// injection off — §6's "reliable network" condition — and requires
// convergence.
func (e *engine) totalFailure(ctx context.Context) {
	e.stamp("forced-TF")
	for i := 0; i < e.cfg.Sites; i++ {
		id := protocol.SiteID(i)
		if st, _ := e.cl.State(id); st != protocol.StateFailed {
			if err := e.cl.Fail(id); err != nil {
				e.violatef("forced fail %v: %v", id, err)
			}
		}
	}
	if !e.allFailed() {
		e.violatef("forced total failure left a site up")
	}
	e.report.TotalFailures++
	for i := 0; i < e.cfg.Sites; i++ {
		id := protocol.SiteID(i)
		if err := e.cl.Restart(ctx, id); err != nil {
			e.violatef("restart %v after total failure: %v", id, err)
		}
	}
	for retry := 0; retry < 25 && e.cl.AvailableCount() < e.cfg.Sites; retry++ {
		if err := e.cl.DriveRecovery(ctx); err != nil {
			e.violatef("recovery after total failure: %v", err)
			return
		}
	}
	if e.cl.AvailableCount() < e.cfg.Sites {
		e.fn.SetInjection(false)
		e.fn.Heal()
		if err := e.cl.DriveRecovery(ctx); err != nil {
			e.violatef("recovery on reliable network: %v", err)
		}
	}
	if got := e.cl.AvailableCount(); got != e.cfg.Sites {
		e.violatef("after total failure %d of %d sites recovered", got, e.cfg.Sites)
	}
}

// convergenceCheck verifies the post-recovery state: the available copy
// schemes must have driven every replica to identical version vectors,
// and under every scheme a read of every block must return the newest
// committed data. Faults are off at this point; a read error here is a
// violation, not chaos.
func (e *engine) convergenceCheck(ctx context.Context) {
	e.fn.SetInjection(false)
	e.fn.Heal()
	if e.cfg.Scheme != core.Voting {
		var first block.Vector
		for i := 0; i < e.cfg.Sites; i++ {
			rep, err := e.cl.Replica(protocol.SiteID(i))
			if err != nil {
				e.violatef("replica %d: %v", i, err)
				return
			}
			if i == 0 {
				first = rep.Vector()
				continue
			}
			if !rep.Vector().Equal(first) {
				e.violatef("site %d vector %v diverges from site 0 %v after recovery",
					i, rep.Vector(), first)
			}
		}
	}
	ctrl, err := e.cl.Controller(0)
	if err != nil {
		e.violatef("controller 0: %v", err)
		return
	}
	for b := 0; b < e.cfg.Blocks; b++ {
		idx := block.Index(b)
		data, err := ctrl.Read(ctx, idx)
		if err != nil {
			e.violatef("converged read %v: %v", idx, err)
			continue
		}
		got, perr := parsePayload(data)
		if perr != nil {
			e.violatef("converged read %v: %v", idx, perr)
			continue
		}
		if got.seq != 0 && got.block != idx {
			e.violatef("converged read %v returned block %v's data", idx, got.block)
			continue
		}
		if got.seq < e.committed[idx] || got.seq > e.maxIssued[idx] {
			e.violatef("converged read %v: seq %d outside [%d, %d]",
				idx, got.seq, e.committed[idx], e.maxIssued[idx])
		}
		e.stamp("C%d=%d", idx, got.seq)
	}
}

// acceptable reports whether an operation error is an expected chaos
// outcome rather than a broken controller.
func acceptable(err error) bool {
	return errors.Is(err, scheme.ErrNoQuorum) ||
		errors.Is(err, scheme.ErrNotAvailable) ||
		errors.Is(err, scheme.ErrAwaitingSites) ||
		errors.Is(err, faultnet.ErrInjected) ||
		scheme.IsTransportError(err)
}

// payload encodes (block, seq) into a block-sized buffer so every read
// can be checked for freshness and cross-block corruption.
func payload(size int, idx block.Index, seq uint64) []byte {
	out := make([]byte, size)
	copy(out, fmt.Sprintf("b%d.s%d", idx, seq))
	return out
}

type decoded struct {
	block block.Index
	seq   uint64
}

// parsePayload inverts payload. An all-zero block (never written) reads
// as sequence 0 of its own block.
func parsePayload(data []byte) (decoded, error) {
	if len(data) == 0 || data[0] == 0 {
		return decoded{}, nil
	}
	var b, s uint64
	if _, err := fmt.Sscanf(string(trimZeros(data)), "b%d.s%d", &b, &s); err != nil {
		return decoded{}, fmt.Errorf("chaos: unparseable payload %q: %w", trimZeros(data), err)
	}
	return decoded{block: block.Index(b), seq: s}, nil
}

func trimZeros(data []byte) []byte {
	end := len(data)
	for end > 0 && data[end-1] == 0 {
		end--
	}
	return data[:end]
}

// stamp folds one schedule event into the replay digest.
func (e *engine) stamp(format string, args ...interface{}) {
	fmt.Fprintf(e.hash, format+"\n", args...)
}

func (e *engine) violatef(format string, args ...interface{}) {
	v := fmt.Sprintf(format, args...)
	e.report.Violations = append(e.report.Violations, v)
	e.stamp("VIOLATION %s", v)
	// The first violation seals the black box: the dump captures the
	// frames leading up to the failure, not the aftermath.
	e.plane.Seal("violation: " + v)
}
