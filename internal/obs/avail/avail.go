// Package avail is the availability observatory: an online estimator
// of the empirical quantities that §4's Markov analysis predicts. It
// consumes the live stream of site up/down transitions (the Fail and
// Restart events of a chaos schedule, or of cmd/simulate's failure
// process) plus per-operation outcomes, and
// maintains per-site empirical availability, MTBF and MTTR, the
// scheme-level fraction of time the replicated block was accessible,
// and — after total failures — the recovery delay that separates the
// available-copy rule ("last site to fail comes back", §3.2) from the
// naive rule ("all sites back", §3.3).
//
// Timestamps are an explicit, monotone, float64 timeline (simulated
// time in chaos/sim contexts, seconds since an epoch for wall-clock
// feeds), never the wall clock itself: the estimator must be
// deterministic under replay.
package avail

import (
	"fmt"
	"sort"
	"sync"

	"relidev/internal/sim"
)

// siteAccount integrates one site's up/down history.
type siteAccount struct {
	up         bool
	lastChange float64
	upTime     float64
	downTime   float64
	fails      int
	repairs    int
}

// Estimator accumulates availability evidence for one cluster. All
// methods are safe for concurrent use; timestamps must be
// non-decreasing across calls (out-of-order times are clamped to the
// latest seen, charging the interval to the later feed).
type Estimator struct {
	mu     sync.Mutex
	scheme string
	n      int
	model  sim.Model
	now    float64 // latest timestamp seen
	sites  []siteAccount

	sysUpTime float64 // ∫ model.Available() dt

	// Total-failure bookkeeping: a total failure begins when the last
	// up site goes down and ends when the scheme makes the block
	// accessible again — for AC when the last-failed site returns, for
	// naive when every site is back (§3.2 vs §3.3).
	inTotalFailure bool
	totalFailAt    float64
	recoveries     []float64

	ops map[string]*opAccount
}

type opAccount struct{ success, failure uint64 }

// New builds an estimator for n sites running the named scheme
// ("voting", "available-copy" or "naive"). All sites start up at t=0.
func New(n int, scheme string) (*Estimator, error) {
	var (
		m   sim.Model
		err error
	)
	switch scheme {
	case "voting":
		m, err = sim.NewVotingModel(n)
	case "available-copy":
		m, err = sim.NewACModel(n)
	case "naive":
		m, err = sim.NewNaiveModel(n)
	default:
		return nil, fmt.Errorf("avail: unknown scheme %q", scheme)
	}
	if err != nil {
		return nil, err
	}
	e := &Estimator{scheme: scheme, n: n, model: m, sites: make([]siteAccount, n), ops: make(map[string]*opAccount)}
	for i := range e.sites {
		e.sites[i].up = true
	}
	return e, nil
}

// advance integrates all accounts up to t (clamped monotone) with the
// lock held.
func (e *Estimator) advance(t float64) {
	if t < e.now {
		t = e.now
	}
	dt := t - e.now
	if dt > 0 {
		for i := range e.sites {
			s := &e.sites[i]
			if s.up {
				s.upTime += dt
			} else {
				s.downTime += dt
			}
		}
		if e.model.Available() {
			e.sysUpTime += dt
		}
	}
	e.now = t
}

// SiteDown records that a site stopped serving at time t. Repeated
// downs for an already-down site are ignored.
func (e *Estimator) SiteDown(site int, t float64) {
	if e == nil || site < 0 || site >= e.n {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advance(t)
	s := &e.sites[site]
	if !s.up {
		return
	}
	s.up = false
	s.fails++
	e.model.Apply(sim.Event{At: t, Site: site, Kind: sim.EventFail})
	if e.upCount() == 0 && !e.inTotalFailure {
		e.inTotalFailure = true
		e.totalFailAt = e.now
	}
}

// SiteUp records that a site came back (repaired, possibly comatose
// pending the scheme's recovery rule) at time t. Repeated ups are
// ignored.
func (e *Estimator) SiteUp(site int, t float64) {
	if e == nil || site < 0 || site >= e.n {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advance(t)
	s := &e.sites[site]
	if s.up {
		return
	}
	s.up = true
	s.repairs++
	e.model.Apply(sim.Event{At: t, Site: site, Kind: sim.EventRepair})
	if e.inTotalFailure && e.model.Available() {
		e.inTotalFailure = false
		e.recoveries = append(e.recoveries, e.now-e.totalFailAt)
	}
}

// upCount counts up sites with the lock held.
func (e *Estimator) upCount() int {
	n := 0
	for i := range e.sites {
		if e.sites[i].up {
			n++
		}
	}
	return n
}

// Op records one operation outcome under the given label ("read",
// "write", "recovery", ...).
func (e *Estimator) Op(op string, ok bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.ops[op]
	if a == nil {
		a = &opAccount{}
		e.ops[op] = a
	}
	if ok {
		a.success++
	} else {
		a.failure++
	}
}

// SiteStats is one site's empirical failure/repair record.
type SiteStats struct {
	Site     int     `json:"site"`
	UpTime   float64 `json:"up_time"`
	DownTime float64 `json:"down_time"`
	Fails    int     `json:"fails"`
	Repairs  int     `json:"repairs"`
	// Availability is UpTime over total; 1 when the site never moved.
	Availability float64 `json:"availability"`
	// MTBF and MTTR are the empirical mean time between failures
	// (UpTime/Fails) and mean time to repair (DownTime/Repairs); zero
	// when the corresponding event never happened.
	MTBF float64 `json:"mtbf"`
	MTTR float64 `json:"mttr"`
}

// OpStats is the outcome tally for one operation label.
type OpStats struct {
	Op      string `json:"op"`
	Success uint64 `json:"success"`
	Failure uint64 `json:"failure"`
}

// Stats is a sealed snapshot of the estimator at some horizon.
type Stats struct {
	Scheme  string  `json:"scheme"`
	Sites   int     `json:"sites"`
	Horizon float64 `json:"horizon"`

	PerSite []SiteStats `json:"per_site"`

	// Lambda and Mu are the pooled empirical rates across sites:
	// failures per unit of site up-time and repairs per unit of site
	// down-time. Rho is their ratio (zero when no failures occurred).
	Lambda float64 `json:"lambda"`
	Mu     float64 `json:"mu"`
	Rho    float64 `json:"rho"`
	// Failures and Repairs total the per-site transition counts.
	Failures int `json:"failures"`
	Repairs  int `json:"repairs"`

	// SystemAvailability is the fraction of the horizon the scheme made
	// the block accessible (the empirical counterpart of §4's A(n)).
	SystemAvailability float64 `json:"system_availability"`

	// TotalFailures counts windows with every site down; Recoveries
	// holds, for the windows already healed, the delay from total
	// failure to the block becoming accessible again (AC: last failed
	// site back; naive: all sites back). InTotalFailure reports a
	// still-open window at the horizon.
	TotalFailures  int       `json:"total_failures"`
	Recoveries     []float64 `json:"recoveries,omitempty"`
	MeanRecovery   float64   `json:"mean_recovery"`
	InTotalFailure bool      `json:"in_total_failure,omitempty"`

	// Ops tallies per-operation outcomes, sorted by label;
	// OpAvailability is the overall success fraction.
	Ops            []OpStats `json:"ops,omitempty"`
	OpAvailability float64   `json:"op_availability"`
}

// Snapshot integrates up to horizon t and returns the sealed stats.
// The estimator remains live; later feeds continue from t.
func (e *Estimator) Snapshot(t float64) Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advance(t)

	st := Stats{Scheme: e.scheme, Sites: e.n, Horizon: e.now}
	var upSum, downSum float64
	for i := range e.sites {
		s := e.sites[i]
		ss := SiteStats{Site: i, UpTime: s.upTime, DownTime: s.downTime, Fails: s.fails, Repairs: s.repairs}
		if total := s.upTime + s.downTime; total > 0 {
			ss.Availability = s.upTime / total
		} else {
			ss.Availability = 1
		}
		if s.fails > 0 {
			ss.MTBF = s.upTime / float64(s.fails)
		}
		if s.repairs > 0 {
			ss.MTTR = s.downTime / float64(s.repairs)
		}
		st.PerSite = append(st.PerSite, ss)
		st.Failures += s.fails
		st.Repairs += s.repairs
		upSum += s.upTime
		downSum += s.downTime
	}
	if upSum > 0 {
		st.Lambda = float64(st.Failures) / upSum
	}
	if downSum > 0 {
		st.Mu = float64(st.Repairs) / downSum
	}
	if st.Mu > 0 {
		st.Rho = st.Lambda / st.Mu
	}
	if e.now > 0 {
		st.SystemAvailability = e.sysUpTime / e.now
	} else {
		st.SystemAvailability = 1
	}

	st.TotalFailures = len(e.recoveries)
	if e.inTotalFailure {
		st.TotalFailures++
		st.InTotalFailure = true
	}
	st.Recoveries = append([]float64(nil), e.recoveries...)
	if len(e.recoveries) > 0 {
		var sum float64
		for _, r := range e.recoveries {
			sum += r
		}
		st.MeanRecovery = sum / float64(len(e.recoveries))
	}

	var succ, fail uint64
	for op, a := range e.ops {
		st.Ops = append(st.Ops, OpStats{Op: op, Success: a.success, Failure: a.failure})
		succ += a.success
		fail += a.failure
	}
	sort.Slice(st.Ops, func(i, j int) bool { return st.Ops[i].Op < st.Ops[j].Op })
	if succ+fail > 0 {
		st.OpAvailability = float64(succ) / float64(succ+fail)
	} else {
		st.OpAvailability = 1
	}
	return st
}
