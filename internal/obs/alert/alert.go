// Package alert is the one alert engine of the observability stack
// (DESIGN.md "Alerts"). An Objective is a signal — a query over the tsdb
// ring: an event ratio, a gauge level, a dwell — under a policy: a
// threshold with hysteresis (the conditions /healthz serves) or a
// multi-window burn rate against an error budget (the objectives /slo
// serves). One Engine evaluates every objective, keeps one latch per
// objective, folds one overall severity and seals the flight recorder
// when a critical latch sets. It reads the ring and an injected clock
// only, so under chaos replay every verdict and timestamp is a function
// of the schedule.
package alert

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/tsdb"
)

// Severity orders alert states: OK < Warn < Critical.
type Severity int

const (
	OK Severity = iota
	Warn
	Critical
)

var severityNames = [...]string{"ok", "warn", "critical"}

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s < 0 || int(s) >= len(severityNames) {
		return "unknown"
	}
	return severityNames[s]
}

// MarshalText renders severities as their names, in JSON too.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the name form back, so reports embedded in chaos
// artifacts and scraped by relitop round-trip.
func (s *Severity) UnmarshalText(b []byte) error {
	for i, n := range severityNames {
		if n == string(b) {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("unknown severity %q", b)
}

// An Objective is one alert condition: what to measure and when that
// measurement is an alert.
type Objective struct {
	// Name identifies the objective in reports and seal triggers.
	Name string
	// Description says what is being promised.
	Description string
	// Severity is the objective's severity once its latch is set.
	Severity Severity
	Signal   Signal
	// Policy is a Threshold or a Burn.
	Policy Policy
}

// The two policies, as Status.Policy and View name them.
const (
	PolicyThreshold = "threshold"
	PolicyBurn      = "burn"
)

// A Policy decides, from a signal's readings, whether the condition
// holds right now and whether the objective's latch is set.
type Policy interface {
	// Kind is PolicyThreshold or PolicyBurn.
	Kind() string
	// judge measures sig and moves st — the objective's status as the
	// previous evaluation left it — through this one: the raw condition
	// (observe), the latch, and the fields the policy owns.
	judge(db *tsdb.DB, sig Signal, nowNs int64, st *Status)
	// trigger is the flight-recorder seal trigger for a set latch.
	trigger(s Status) string
}

// observe records this evaluation's raw condition and stamps a rise or
// a fall.
func (st *Status) observe(firing bool, nowNs int64) {
	if firing && !st.Firing {
		st.FiredAtNs = nowNs
	}
	if !firing && st.Firing {
		st.ClearedAtNs = nowNs
	}
	st.Firing = firing
}

// Threshold is the hysteresis policy: the condition holds while the
// newest sample's value is beyond Limit (above it, or under it with
// Below); the latch sets once the condition has held continuously for
// ForNs and releases once it has been clear for ClearNs (zero: at
// once, both ways). Hysteresis keeps flapping conditions — a repair
// lag bouncing off zero, a one-sample error burst — out of the alerts.
type Threshold struct {
	Limit          float64
	Below          bool
	ForNs, ClearNs int64
}

func (Threshold) Kind() string { return PolicyThreshold }

func (p Threshold) judge(db *tsdb.DB, sig Signal, nowNs int64, st *Status) {
	r := sig(db, tsdb.Newest)
	beyond := r.Value > p.Limit
	if p.Below {
		beyond = r.Value < p.Limit
	}
	firing := r.Total > 0 && beyond
	st.observe(firing, nowNs)
	if firing && !st.Latched && nowNs-st.FiredAtNs >= p.ForNs {
		st.Latched = true
	}
	if !firing && st.Latched && nowNs-st.ClearedAtNs >= p.ClearNs {
		st.Latched = false
	}
	st.Value = r.Value
	switch {
	case r.Total == 0:
		st.Detail = "nothing to measure in the newest sample"
	case r.Site != "":
		st.Detail = fmt.Sprintf("%g at %s", r.Value, r.Site)
	default:
		st.Detail = fmt.Sprintf("%.4g (%d/%d)", r.Value, r.Bad, r.Total)
	}
}

func (Threshold) trigger(s Status) string {
	return fmt.Sprintf("health: %s (%s)", s.Name, s.Detail)
}

// Default burn-rate windows and threshold: 5m fast / 1h slow, alerting
// at 2x budget-neutral burn. Replayed harnesses on manual clocks set
// clock-scale windows.
const (
	DefaultFastNs = 5 * 60 * 1e9
	DefaultSlowNs = 60 * 60 * 1e9
	DefaultBurn   = 2.0
)

// Burn is the multi-window burn-rate policy over an error budget: the
// signal's bad/total ratio against a Target good fraction. The
// condition holds while BOTH windows burn budget faster than Rate times
// the budget-neutral rate — the fast window makes the alert prompt, the
// slow one makes it real and clears it once the regression stops
// feeding it, so no timers are needed. The latch is budget exhaustion
// over the whole retention; it never releases.
type Burn struct {
	// Target is the good fraction promised (0 < Target <= 1); the error
	// budget is 1 - Target.
	Target float64
	// FastNs, SlowNs and Rate default to 5m, 1h and 2x when zero.
	FastNs, SlowNs int64
	Rate           float64
}

func (Burn) Kind() string { return PolicyBurn }

func (p Burn) withDefaults() Burn {
	p.FastNs = cmp.Or(p.FastNs, DefaultFastNs)
	p.SlowNs = cmp.Or(p.SlowNs, DefaultSlowNs)
	p.Rate = cmp.Or(p.Rate, DefaultBurn)
	return p
}

// rate turns a window's reading into a burn rate against the budget; a
// window with no traffic burns nothing.
func (p Burn) rate(r Reading) float64 {
	if r.Total == 0 {
		return 0
	}
	budget := 1 - p.Target
	if budget <= 0 {
		budget = 1e-9 // a 100% target: any bad event is an enormous burn
	}
	return float64(r.Bad) / float64(r.Total) / budget
}

func (p Burn) judge(db *tsdb.DB, sig Signal, nowNs int64, st *Status) {
	p = p.withDefaults()
	b := &BurnStatus{
		Target:       p.Target,
		FastBurn:     p.rate(sig(db, p.FastNs)),
		SlowBurn:     p.rate(sig(db, p.SlowNs)),
		FastWindowNs: p.FastNs,
		SlowWindowNs: p.SlowNs,
		BurnAlert:    p.Rate,
	}
	st.observe(b.FastBurn >= p.Rate && b.SlowBurn >= p.Rate, nowNs)
	st.Burn, st.Value = b, p.rate(sig(db, 0))
	st.Latched = st.Latched || st.Value >= 1
}

func (Burn) trigger(s Status) string { return "slo " + s.Name + " error budget exhausted" }

// A Status is one objective's state after an evaluation.
type Status struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Policy      string `json:"policy"`
	// Severity is the objective's severity while its latch is set; a
	// burn-rate alert that is firing with budget left is a warning.
	Severity Severity `json:"severity"`
	// Firing is the raw condition this evaluation; FiredAtNs and
	// ClearedAtNs stamp its most recent rise and fall on the engine
	// clock (0 before the first).
	Firing      bool  `json:"firing"`
	FiredAtNs   int64 `json:"fired_at_ns,omitempty"`
	ClearedAtNs int64 `json:"cleared_at_ns,omitempty"`
	// Latched reports a threshold alert held by its hysteresis, or a
	// burn-rate objective whose error budget is exhausted.
	Latched bool `json:"latched"`
	// Value is the quantity behind the condition: the threshold's
	// measured ratio, level or margin; the fraction of the error budget
	// spent over the whole retention.
	Value  float64     `json:"value"`
	Detail string      `json:"detail,omitempty"`
	Burn   *BurnStatus `json:"burn,omitempty"`
}

// BurnStatus is the burn-rate half of a Status: the window burn rates
// (a window's bad fraction over the error budget; 0 with no traffic).
type BurnStatus struct {
	Target       float64 `json:"target"`
	FastBurn     float64 `json:"fast_burn"`
	SlowBurn     float64 `json:"slow_burn"`
	FastWindowNs int64   `json:"fast_window_ns"`
	SlowWindowNs int64   `json:"slow_window_ns"`
	BurnAlert    float64 `json:"burn_alert"`
}

// A Report is one full evaluation, or one policy's view of it.
type Report struct {
	AtNs int64 `json:"at_ns"`
	// Overall is the maximum severity over the objectives listed;
	// Firing counts those whose raw condition holds.
	Overall    Severity `json:"overall"`
	Firing     int      `json:"firing"`
	Objectives []Status `json:"objectives"`
}

// fold builds the report over a set of statuses.
func fold(atNs int64, objectives []Status) Report {
	rep := Report{AtNs: atNs, Objectives: objectives}
	for _, s := range objectives {
		rep.Overall = max(rep.Overall, s.Severity)
		if s.Firing {
			rep.Firing++
		}
	}
	return rep
}

// View returns the report restricted to one policy's objectives, with
// the fold taken over them — what /healthz (PolicyThreshold) and /slo
// (PolicyBurn) serve.
func (r Report) View(policy string) Report {
	var kept []Status
	for _, s := range r.Objectives {
		if s.Policy == policy {
			kept = append(kept, s)
		}
	}
	return fold(r.AtNs, kept)
}

// An Engine evaluates a fixed objective set against one tsdb ring.
// Evaluate is safe for concurrent use. It never samples: whoever owns
// the ring's cadence does, so two readers between two samples get the
// verdict one would.
type Engine struct {
	mu         sync.Mutex
	db         *tsdb.DB
	clk        clock.Clock
	seal       func(trigger string)
	objectives []Objective
	last       []Status // each objective's status after the previous evaluation
}

// NewEngine builds an engine over db on the given clock (the
// observer's, so stamps share its time base). seal, when non-nil, is
// called each time a critical objective's latch sets — wire the flight
// recorder here, so a breach seals the black box wherever it was
// noticed.
func NewEngine(db *tsdb.DB, clk clock.Clock, seal func(trigger string), objectives ...Objective) *Engine {
	e := &Engine{db: db, clk: clk, seal: seal, objectives: objectives, last: make([]Status, len(objectives))}
	for i, o := range objectives {
		e.last[i] = Status{Name: o.Name, Description: o.Description, Policy: o.Policy.Kind()}
	}
	return e
}

// Evaluate judges every objective against the ring as it stands and
// advances the latches.
func (e *Engine) Evaluate() Report {
	e.mu.Lock()
	now := e.clk.Now().UnixNano()
	var seals []string
	for i, o := range e.objectives {
		st := &e.last[i]
		was := st.Latched
		o.Policy.judge(e.db, o.Signal, now, st)
		switch {
		case st.Latched:
			st.Severity = o.Severity
		case st.Firing && st.Policy == PolicyBurn:
			st.Severity = min(Warn, o.Severity)
		default:
			st.Severity = OK
		}
		if st.Latched && !was && o.Severity >= Critical {
			seals = append(seals, o.Policy.trigger(*st))
		}
	}
	statuses := slices.Clone(e.last)
	e.mu.Unlock()
	if e.seal != nil {
		for _, trigger := range seals {
			e.seal(trigger)
		}
	}
	return fold(now, statuses)
}

// Handler serves a report — /healthz and /slo are this handler over
// the two views of one engine: 200 while the overall severity is below
// critical, 503 at critical (a threshold alert latched, an error
// budget exhausted; a burn alert that is only firing pages an operator,
// not a load balancer). A view that cannot be had answers 404.
func Handler(view func() (Report, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rep, err := view()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		status := http.StatusOK
		if rep.Overall >= Critical {
			status = http.StatusServiceUnavailable
		}
		obs.WriteJSON(w, status, rep)
	}
}
