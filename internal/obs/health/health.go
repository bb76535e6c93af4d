// Package health implements a rule-driven health and alerting engine
// over the observability registry: each rule turns one metric-derived
// condition (staleness lag, quorum margin, error rate, batcher
// saturation, conformance drift) into a severity with hysteresis, and
// the engine folds rule verdicts into one overall status served at
// /healthz. The engine reads snapshots only — it never touches
// protocol state — and takes an injected clock, so deterministic
// harnesses can evaluate it without perturbing replay (DESIGN.md §15).
package health

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"relidev/internal/clock"
	"relidev/internal/obs"
)

// Severity orders health states: OK < Warn < Critical.
type Severity int

const (
	OK Severity = iota
	Warn
	Critical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case OK:
		return "ok"
	case Warn:
		return "warn"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// MarshalJSON renders severities as their names.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the name form back, so verdicts embedded in
// chaos reports and flight dumps round-trip.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "ok":
		*s = OK
	case "warn":
		*s = Warn
	case "critical":
		*s = Critical
	default:
		return fmt.Errorf("unknown severity %q", name)
	}
	return nil
}

// A Sample is one rule evaluation's raw outcome, before hysteresis.
type Sample struct {
	// Firing reports whether the rule's condition holds right now.
	Firing bool
	// Value is the measured quantity behind the condition (a lag, a
	// rate, a margin), surfaced in verdicts for operators.
	Value float64
	// Detail is a short human-readable explanation.
	Detail string
}

// Input is what a rule's Check sees: the current registry snapshot,
// the previous evaluation's snapshot for windowed deltas, and the
// engine clock. On the first evaluation Prev is the zero Snapshot and
// First is true — delta-based rules should report not-firing then.
type Input struct {
	NowNs     int64
	ElapsedNs int64
	First     bool
	Snapshot  obs.Snapshot
	Prev      obs.Snapshot
}

// A Rule is one health condition. Check runs on every evaluation; the
// engine applies hysteresis: the alert activates only after Check has
// fired continuously for ForNs, and deactivates only after it has been
// clear continuously for ClearNs (zero means immediate in both
// directions). Hysteresis keeps flapping conditions — a repair lag
// bouncing off zero, a one-scrape error burst — out of the alert
// stream.
type Rule struct {
	Name     string
	Severity Severity
	ForNs    int64
	ClearNs  int64
	Check    func(Input) Sample
}

// A RuleVerdict is one rule's state after an evaluation.
type RuleVerdict struct {
	Rule string `json:"rule"`
	// Severity is the effective severity: the rule's severity while the
	// alert is active, OK otherwise.
	Severity Severity `json:"severity"`
	// Firing is the raw condition this evaluation, pre-hysteresis.
	Firing bool `json:"firing"`
	// Active reports whether the alert has latched (hysteresis passed).
	Active bool `json:"active"`
	// SinceNs is when the current raw condition streak started (firing
	// or clear), on the engine clock; 0 before the first transition.
	SinceNs int64   `json:"since_ns,omitempty"`
	Value   float64 `json:"value"`
	Detail  string  `json:"detail,omitempty"`
}

// A Verdict is one full evaluation: every rule's state plus the fold.
type Verdict struct {
	AtNs    int64         `json:"at_ns"`
	Overall Severity      `json:"overall"`
	Rules   []RuleVerdict `json:"rules"`
}

// ruleState is the hysteresis state machine for one rule.
type ruleState struct {
	active      bool
	streakSince int64 // start of the current contiguous firing/clear streak
	streakFire  bool  // whether that streak is firing or clear
	haveStreak  bool
}

// An Engine evaluates a rule set against registry snapshots. Evaluate
// is safe for concurrent use; each call advances the shared
// previous-snapshot window, so callers wanting fixed-width windows
// should drive it from one place (a checkpoint loop, a poller).
type Engine struct {
	mu      sync.Mutex
	snap    func() obs.Snapshot
	clk     clock.Clock
	seal    func(trigger string)
	rules   []Rule
	states  []ruleState
	prev    obs.Snapshot
	prevAt  int64
	hasPrev bool
}

// NewEngine builds an engine reading snapshots from snap on the given
// clock: the observer's, so alert windows share its time base. seal,
// when non-nil, is invoked by every evaluation whose verdict is
// critical, naming the first active critical rule — so a breach seals
// the flight recorder wherever the verdict was computed.
func NewEngine(snap func() obs.Snapshot, clk clock.Clock, seal func(trigger string), rules ...Rule) *Engine {
	return &Engine{
		snap:   snap,
		clk:    clk,
		seal:   seal,
		rules:  rules,
		states: make([]ruleState, len(rules)),
	}
}

// Evaluate runs every rule against a fresh snapshot and advances the
// hysteresis state machines. The overall severity is the maximum over
// active alerts.
func (e *Engine) Evaluate() Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clk.Now().UnixNano()
	snap := e.snap()
	in := Input{NowNs: now, Snapshot: snap, Prev: e.prev, First: !e.hasPrev}
	if e.hasPrev {
		in.ElapsedNs = now - e.prevAt
	}
	v := Verdict{AtNs: now, Rules: make([]RuleVerdict, len(e.rules))}
	for i, r := range e.rules {
		s := r.Check(in)
		st := &e.states[i]
		if !st.haveStreak || st.streakFire != s.Firing {
			st.haveStreak = true
			st.streakFire = s.Firing
			st.streakSince = now
		}
		streak := now - st.streakSince
		if s.Firing && !st.active && streak >= r.ForNs {
			st.active = true
		}
		if !s.Firing && st.active && streak >= r.ClearNs {
			st.active = false
		}
		rv := RuleVerdict{
			Rule:    r.Name,
			Firing:  s.Firing,
			Active:  st.active,
			SinceNs: st.streakSince,
			Value:   s.Value,
			Detail:  s.Detail,
		}
		if st.active {
			rv.Severity = r.Severity
			if rv.Severity > v.Overall {
				v.Overall = rv.Severity
			}
		}
		v.Rules[i] = rv
	}
	e.prev, e.prevAt, e.hasPrev = snap, now, true
	if e.seal != nil && v.Overall >= Critical {
		for _, rv := range v.Rules {
			if rv.Severity >= Critical {
				e.seal(fmt.Sprintf("health: %s (%s)", rv.Rule, rv.Detail))
				break
			}
		}
	}
	return v
}

// Handler serves the engine at /healthz: each GET evaluates once and
// returns the verdict as JSON — status 200 while overall severity is
// below critical, 503 once a critical alert is active, so load
// balancers and probes can act on it directly. A nil engine answers
// 404.
func Handler(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			http.Error(w, "health engine disabled", http.StatusNotFound)
			return
		}
		v, status := e.Evaluate(), http.StatusOK
		if v.Overall >= Critical {
			status = http.StatusServiceUnavailable
		}
		obs.WriteJSON(w, status, v)
	}
}
