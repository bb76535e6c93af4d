package sim

import (
	"fmt"

	"relidev/internal/analysis"
)

// Model is an abstract per-scheme availability state machine: it consumes
// the site failure/repair event stream and answers whether the replicated
// block is currently accessible.
type Model interface {
	// Apply consumes one site transition.
	Apply(e Event)
	// Available reports whether the block is accessible now.
	Available() bool
	// AvailableSites returns how many sites can currently serve the
	// block (participation measure U of §5).
	AvailableSites() int
}

// siteMode is the per-site status inside the availability models.
type siteMode int

const (
	modeUp siteMode = iota + 1
	modeDown
	modeComatose
)

// NewModel returns the §4 availability state machine of a scheme over n
// sites, all of them up: the voting quorum condition (equations
// (1.a)/(1.b)) or the Figure 7 or Figure 8 machine.
func NewModel(s analysis.Scheme, n int) (Model, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: %v model needs n > 0, got %d", s, n)
	}
	switch s {
	case analysis.SchemeVoting:
		return NewWitnessVotingModel(n, 0)
	case analysis.SchemeAvailableCopy, analysis.SchemeNaive:
		mode := make([]siteMode, n)
		for i := range mode {
			mode[i] = modeUp
		}
		return &ACModel{mode: mode, nAvail: n, nUp: n, naive: s == analysis.SchemeNaive}, nil
	default:
		return nil, fmt.Errorf("sim: no availability model for %v", s)
	}
}

// WitnessVotingModel is the availability state machine of a voting
// system with data sites and witness sites ([10]): the block is
// accessible when the up sites hold a weight majority (equal weights,
// ε-nudge on data site 0 for even totals, the §4.1 tie-break) and at
// least one data site is up to supply the contents. With no witnesses
// it is plain voting's quorum condition.
type WitnessVotingModel struct {
	data   int
	up     []bool
	nUp    int
	dataUp int
}

var _ Model = (*WitnessVotingModel)(nil)

// NewWitnessVotingModel starts with all sites up. Sites 0..data-1 are
// data sites; the rest are witnesses.
func NewWitnessVotingModel(data, witnesses int) (*WitnessVotingModel, error) {
	if data < 1 || witnesses < 0 {
		return nil, fmt.Errorf("sim: witness model needs data >= 1, witnesses >= 0 (got %d, %d)", data, witnesses)
	}
	n := data + witnesses
	up := make([]bool, n)
	for i := range up {
		up[i] = true
	}
	return &WitnessVotingModel{data: data, up: up, nUp: n, dataUp: data}, nil
}

// Apply implements Model.
func (m *WitnessVotingModel) Apply(e Event) {
	if e.Site < 0 || e.Site >= len(m.up) {
		return
	}
	up := e.Kind == EventRepair
	if m.up[e.Site] == up {
		return
	}
	m.up[e.Site] = up
	d := 1
	if !up {
		d = -1
	}
	m.nUp += d
	if e.Site < m.data {
		m.dataUp += d
	}
}

// Available implements Model.
func (m *WitnessVotingModel) Available() bool {
	if m.dataUp == 0 {
		return false
	}
	switch n := len(m.up); {
	case 2*m.nUp > n:
		return true
	case 2*m.nUp == n:
		// Tie: the ε-weighted site 0 (a data site) casts the deciding vote.
		return m.up[0]
	default:
		return false
	}
}

// AvailableSites implements Model: only up data sites can serve a block,
// and every one of them participates in quorums at once (lazy recovery).
func (m *WitnessVotingModel) AvailableSites() int { return m.dataUp }

// ACModel is the Figure 7 and Figure 8 state machine: available sites
// serve the block, and a site repairing while one is available rejoins
// at once. When the last available site fails the block is lost; sites
// repairing in the interim wait comatose until the total-failure exit
// opens, and then every up site becomes available together. Under
// available copy (Figure 7) the exit is the repair of the site that
// failed last, which holds the most recent versions; under naive
// available copy (Figure 8), which keeps no was-available sets, it is
// the repair of the last of all n sites.
type ACModel struct {
	mode   []siteMode
	nAvail int
	nUp    int // up in any mode
	naive  bool
	// lastAvailable is the available site that failed last, valid while
	// nAvail == 0.
	lastAvailable int
}

var _ Model = (*ACModel)(nil)

// Apply implements Model.
func (m *ACModel) Apply(e Event) {
	switch e.Kind {
	case EventFail:
		switch m.mode[e.Site] {
		case modeDown:
			return
		case modeUp:
			m.nAvail--
			m.lastAvailable = e.Site
		}
		m.mode[e.Site] = modeDown
		m.nUp--
	case EventRepair:
		if m.mode[e.Site] != modeDown {
			return
		}
		m.mode[e.Site] = modeComatose
		m.nUp++
		switch {
		case m.nAvail > 0:
			// Repair from any available copy completes immediately.
			m.mode[e.Site] = modeUp
			m.nAvail++
		case m.naive && m.nUp == len(m.mode), !m.naive && e.Site == m.lastAvailable:
			// The exit opens: a most recent copy is up again, so it and
			// every comatose copy recover together.
			for s := range m.mode {
				if m.mode[s] == modeComatose {
					m.mode[s] = modeUp
					m.nAvail++
				}
			}
		}
	}
}

// Available implements Model.
func (m *ACModel) Available() bool { return m.nAvail > 0 }

// AvailableSites implements Model.
func (m *ACModel) AvailableSites() int { return m.nAvail }

// AvailabilityResult summarises one availability simulation.
type AvailabilityResult struct {
	// Availability is the fraction of simulated time the block was
	// accessible.
	Availability float64
	// MeanAvailableSites is the time-average of AvailableSites given the
	// block was accessible — the empirical participation U of §5.
	MeanAvailableSites float64
	// Horizon is the simulated time span.
	Horizon float64
	// Failures counts site failure events.
	Failures int
}

// SimulateAvailability runs the model against a failure/repair process
// with rates lambda = rho, mu = 1 for `horizon` simulated time units.
func SimulateAvailability(m Model, n int, rho float64, horizon float64, seed int64) (AvailabilityResult, error) {
	if m == nil {
		return AvailabilityResult{}, fmt.Errorf("sim: nil model")
	}
	if horizon <= 0 {
		return AvailabilityResult{}, fmt.Errorf("sim: horizon %v must be positive", horizon)
	}
	proc, err := NewFailureProcess(n, rho, 1, seed)
	if err != nil {
		return AvailabilityResult{}, err
	}
	var (
		res      AvailabilityResult
		now      float64
		upTime   float64
		siteTime float64 // ∫ availableSites dt over accessible periods
	)
	for {
		e, ok := proc.Next()
		if !ok || e.At >= horizon {
			break
		}
		dt := e.At - now
		if m.Available() {
			upTime += dt
			siteTime += dt * float64(m.AvailableSites())
		}
		now = e.At
		if e.Kind == EventFail {
			res.Failures++
		}
		m.Apply(e)
	}
	dt := horizon - now
	if m.Available() {
		upTime += dt
		siteTime += dt * float64(m.AvailableSites())
	}
	res.Availability = upTime / horizon
	if upTime > 0 {
		res.MeanAvailableSites = siteTime / upTime
	}
	res.Horizon = horizon
	return res, nil
}
