// Package slo layers declarative service-level objectives over the
// telemetry plane (DESIGN.md §16): each SLO names a good/bad event
// ratio measured from the tsdb ring and a target good fraction, and
// the engine evaluates it as a multi-window burn rate — the classic
// fast/slow pair, where an alert fires only while BOTH windows burn
// error budget faster than the threshold multiple. The fast window
// makes alerts prompt; the slow window makes them sticky enough to be
// real and clears them once the regression stops feeding it.
//
// The engine follows the health package's discipline: it reads
// tsdb/registry data only, takes an injected clock, and is therefore
// deterministic under chaos replay — fire and clear timestamps are
// schedule-clock values that replay bit-identically. Severities reuse
// health.Severity so /slo and /healthz speak the same vocabulary.
package slo

import (
	"sync"

	"relidev/internal/clock"
	"relidev/internal/obs/health"
	"relidev/internal/obs/tsdb"
)

// Default burn-rate windows and threshold: 5m fast / 1h slow, alerting
// at 2x budget-neutral burn. Replayed harnesses on manual clocks
// override the windows with clock-scale values.
const (
	DefaultFastNs = 5 * 60 * 1e9
	DefaultSlowNs = 60 * 60 * 1e9
	DefaultBurn   = 2.0
)

// An SLO is one declarative objective.
type SLO struct {
	// Name identifies the objective in reports and seal triggers.
	Name string
	// Description explains what is being promised.
	Description string
	// Target is the objective's good fraction (0 < Target < 1), e.g.
	// 0.999 for three nines. The error budget is 1 - Target.
	Target float64
	// FastNs and SlowNs are the two burn-rate windows; zero picks the
	// defaults.
	FastNs, SlowNs int64
	// Burn is the alert threshold as a multiple of budget-neutral burn
	// (a burn rate of 1.0 consumes exactly the budget); zero picks the
	// default.
	Burn float64
	// Eval measures (bad, total) events over the trailing window
	// (windowNs <= 0 means the whole retention).
	Eval func(db *tsdb.DB, windowNs int64) (bad, total uint64)
}

// A Status is one SLO's state after an evaluation.
type Status struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	// FastBurn and SlowBurn are the window burn rates: the window's bad
	// fraction divided by the error budget. 0 when the window saw no
	// traffic.
	FastBurn     float64 `json:"fast_burn"`
	SlowBurn     float64 `json:"slow_burn"`
	FastWindowNs int64   `json:"fast_window_ns"`
	SlowWindowNs int64   `json:"slow_window_ns"`
	BurnAlert    float64 `json:"burn_alert"`
	// Firing reports the multi-window alert; FiredAtNs/ClearedAtNs are
	// the engine-clock timestamps of the most recent transitions (0
	// before the first).
	Firing      bool  `json:"firing"`
	FiredAtNs   int64 `json:"fired_at_ns,omitempty"`
	ClearedAtNs int64 `json:"cleared_at_ns,omitempty"`
	// BudgetSpent is the fraction of the error budget consumed over the
	// whole retention; Exhausted latches once it reaches 1, at which
	// point the engine seals the flight recorder (the post-mortem
	// matters precisely when the budget is gone).
	BudgetSpent float64         `json:"budget_spent"`
	Exhausted   bool            `json:"exhausted"`
	Severity    health.Severity `json:"severity"`
}

// A Report is one full evaluation, served at /slo.
type Report struct {
	AtNs    int64           `json:"at_ns"`
	Overall health.Severity `json:"overall"`
	Firing  int             `json:"firing"`
	SLOs    []Status        `json:"slos"`
}

// sloState tracks one SLO's alert latch between evaluations.
type sloState struct {
	firing      bool
	firedAtNs   int64
	clearedAtNs int64
	exhausted   bool
}

// An Engine evaluates a fixed SLO set against one tsdb ring. Evaluate
// is safe for concurrent use.
type Engine struct {
	mu     sync.Mutex
	db     *tsdb.DB
	clk    clock.Clock
	seal   func(trigger string)
	slos   []SLO
	states []sloState
}

// NewEngine builds an engine over db on the given clock. seal, when
// non-nil, is invoked once per SLO the first time its error budget
// exhausts (wire the flight recorder's Seal here).
func NewEngine(db *tsdb.DB, clk clock.Clock, seal func(trigger string), slos ...SLO) *Engine {
	for i := range slos {
		if slos[i].FastNs <= 0 {
			slos[i].FastNs = DefaultFastNs
		}
		if slos[i].SlowNs <= 0 {
			slos[i].SlowNs = DefaultSlowNs
		}
		if slos[i].Burn <= 0 {
			slos[i].Burn = DefaultBurn
		}
	}
	return &Engine{
		db:     db,
		clk:    clk,
		seal:   seal,
		slos:   slos,
		states: make([]sloState, len(slos)),
	}
}

// burnRate turns a window's (bad, total) into a burn rate against the
// SLO's error budget; a window with no traffic burns nothing.
func burnRate(bad, total uint64, target float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9 // a 100% target: any bad event is an infinite burn
	}
	return (float64(bad) / float64(total)) / budget
}

// Evaluate measures every SLO's burn rates and advances the alert
// latches. An alert fires while both windows burn above the threshold
// and clears once either drops below — multi-window hysteresis, no
// extra timers needed. Budget exhaustion (over the whole retention)
// latches and seals the flight recorder once.
func (e *Engine) Evaluate() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clk.Now().UnixNano()
	rep := Report{AtNs: now, SLOs: make([]Status, len(e.slos))}
	var seals []string
	for i, s := range e.slos {
		st := &e.states[i]
		fastBad, fastTotal := s.Eval(e.db, s.FastNs)
		slowBad, slowTotal := s.Eval(e.db, s.SlowNs)
		allBad, allTotal := s.Eval(e.db, 0)
		status := Status{
			Name:         s.Name,
			Description:  s.Description,
			Target:       s.Target,
			FastBurn:     burnRate(fastBad, fastTotal, s.Target),
			SlowBurn:     burnRate(slowBad, slowTotal, s.Target),
			FastWindowNs: s.FastNs,
			SlowWindowNs: s.SlowNs,
			BurnAlert:    s.Burn,
			BudgetSpent:  burnRate(allBad, allTotal, s.Target),
		}
		firing := status.FastBurn >= s.Burn && status.SlowBurn >= s.Burn
		if firing && !st.firing {
			st.firedAtNs = now
		}
		if !firing && st.firing {
			st.clearedAtNs = now
		}
		st.firing = firing
		if status.BudgetSpent >= 1 && !st.exhausted {
			st.exhausted = true
			seals = append(seals, "slo "+s.Name+" error budget exhausted")
		}
		status.Firing = st.firing
		status.FiredAtNs = st.firedAtNs
		status.ClearedAtNs = st.clearedAtNs
		status.Exhausted = st.exhausted
		switch {
		case st.exhausted:
			status.Severity = health.Critical
		case st.firing:
			status.Severity = health.Warn
		}
		if status.Severity > rep.Overall {
			rep.Overall = status.Severity
		}
		if st.firing {
			rep.Firing++
		}
		rep.SLOs[i] = status
	}
	if e.seal != nil {
		for _, trigger := range seals {
			e.seal(trigger)
		}
	}
	return rep
}
