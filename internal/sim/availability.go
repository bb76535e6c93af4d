package sim

import (
	"fmt"
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

// VotingModel tracks the quorum condition: the block is available while
// the up sites hold a strict majority of the weight. Equal weights with
// the §4.1 tie-break (site 0 nudged) are assumed, matching equations
// (1.a)/(1.b).
type VotingModel struct {
	n     int
	up    []bool
	nUp   int
	total int
}

var _ Model = (*VotingModel)(nil)

// NewVotingModel starts with all n sites up.
func NewVotingModel(n int) (*VotingModel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: voting model needs n > 0, got %d", n)
	}
	up := make([]bool, n)
	for i := range up {
		up[i] = true
	}
	return &VotingModel{n: n, up: up, nUp: n}, nil
}

// Apply implements Model.
func (m *VotingModel) Apply(e Event) {
	switch e.Kind {
	case EventFail:
		if m.up[e.Site] {
			m.up[e.Site] = false
			m.nUp--
		}
	case EventRepair:
		if !m.up[e.Site] {
			m.up[e.Site] = true
			m.nUp++
		}
	}
}

// Available implements Model.
func (m *VotingModel) Available() bool {
	switch {
	case 2*m.nUp > m.n:
		return true
	case 2*m.nUp == m.n:
		// Tie: the ε-weighted site (site 0) casts the deciding vote.
		return m.up[0]
	default:
		return false
	}
}

// AvailableSites implements Model. Every up site participates in quorums
// immediately (lazy recovery).
func (m *VotingModel) AvailableSites() int { return m.nUp }

// ACModel is the Figure 7 state machine: available sites serve the block;
// when the last available site fails the block is lost until *that* site
// repairs, at which point it and every comatose site become available
// together. Other sites repairing in the interim wait comatose.
type ACModel struct {
	n      int
	mode   []siteMode
	nAvail int
	// lastAvailable is the site whose repair ends a total failure, valid
	// while nAvail == 0.
	lastAvailable int
}

var _ Model = (*ACModel)(nil)

// NewACModel starts with all n sites available.
func NewACModel(n int) (*ACModel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: AC model needs n > 0, got %d", n)
	}
	mode := make([]siteMode, n)
	for i := range mode {
		mode[i] = modeUp
	}
	return &ACModel{n: n, mode: mode, nAvail: n, lastAvailable: -1}, nil
}

// Apply implements Model.
func (m *ACModel) Apply(e Event) {
	switch e.Kind {
	case EventFail:
		switch m.mode[e.Site] {
		case modeUp:
			m.mode[e.Site] = modeDown
			m.nAvail--
			if m.nAvail == 0 {
				m.lastAvailable = e.Site
			}
		case modeComatose:
			m.mode[e.Site] = modeDown
		}
	case EventRepair:
		if m.mode[e.Site] != modeDown {
			return
		}
		switch {
		case m.nAvail > 0:
			// Repair from any available copy completes immediately.
			m.mode[e.Site] = modeUp
			m.nAvail++
		case e.Site == m.lastAvailable:
			// The copy that failed last is back: it holds the most
			// recent versions, so it and every comatose copy recover.
			m.mode[e.Site] = modeUp
			m.nAvail = 1
			for s := range m.mode {
				if m.mode[s] == modeComatose {
					m.mode[s] = modeUp
					m.nAvail++
				}
			}
			m.lastAvailable = -1
		default:
			m.mode[e.Site] = modeComatose
		}
	}
}

// Available implements Model.
func (m *ACModel) Available() bool { return m.nAvail > 0 }

// AvailableSites implements Model.
func (m *ACModel) AvailableSites() int { return m.nAvail }

// NaiveModel is the Figure 8 state machine: after a total failure the
// block stays inaccessible until every site is up again.
type NaiveModel struct {
	n      int
	mode   []siteMode
	nAvail int
	nUp    int // up in any mode
}

var _ Model = (*NaiveModel)(nil)

// NewNaiveModel starts with all n sites available.
func NewNaiveModel(n int) (*NaiveModel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: naive model needs n > 0, got %d", n)
	}
	mode := make([]siteMode, n)
	for i := range mode {
		mode[i] = modeUp
	}
	return &NaiveModel{n: n, mode: mode, nAvail: n, nUp: n}, nil
}

// Apply implements Model.
func (m *NaiveModel) Apply(e Event) {
	switch e.Kind {
	case EventFail:
		switch m.mode[e.Site] {
		case modeUp:
			m.mode[e.Site] = modeDown
			m.nAvail--
			m.nUp--
		case modeComatose:
			m.mode[e.Site] = modeDown
			m.nUp--
		}
	case EventRepair:
		if m.mode[e.Site] != modeDown {
			return
		}
		m.nUp++
		switch {
		case m.nAvail > 0:
			m.mode[e.Site] = modeUp
			m.nAvail++
		case m.nUp == m.n:
			// Everyone is back: the highest-version copy is identified
			// and all copies become available (Figure 6).
			for s := range m.mode {
				m.mode[s] = modeUp
			}
			m.nAvail = m.n
		default:
			m.mode[e.Site] = modeComatose
		}
	}
}

// Available implements Model.
func (m *NaiveModel) Available() bool { return m.nAvail > 0 }

// AvailableSites implements Model.
func (m *NaiveModel) AvailableSites() int { return m.nAvail }

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
