package sim

import "fmt"

// WitnessVotingModel is the availability state machine of a voting
// system with data sites and witness sites ([10]): the block is
// accessible when the up sites hold a weight majority (equal weights,
// ε-nudge on data site 0 for even totals) and at least one data site is
// up to supply the contents.
type WitnessVotingModel struct {
	data      int
	witnesses int
	up        []bool
	nUp       int
	dataUp    int
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
	return &WitnessVotingModel{data: data, witnesses: witnesses, up: up, nUp: n, dataUp: data}, nil
}

// Apply implements Model.
func (m *WitnessVotingModel) Apply(e Event) {
	n := m.data + m.witnesses
	if e.Site < 0 || e.Site >= n {
		return
	}
	switch e.Kind {
	case EventFail:
		if m.up[e.Site] {
			m.up[e.Site] = false
			m.nUp--
			if e.Site < m.data {
				m.dataUp--
			}
		}
	case EventRepair:
		if !m.up[e.Site] {
			m.up[e.Site] = true
			m.nUp++
			if e.Site < m.data {
				m.dataUp++
			}
		}
	}
}

// Available implements Model.
func (m *WitnessVotingModel) Available() bool {
	if m.dataUp == 0 {
		return false
	}
	n := m.data + m.witnesses
	switch {
	case 2*m.nUp > n:
		return true
	case 2*m.nUp == n:
		// ε-weighted site 0 (a data site) breaks the tie.
		return m.up[0]
	default:
		return false
	}
}

// AvailableSites implements Model: only up data sites can serve a block.
func (m *WitnessVotingModel) AvailableSites() int { return m.dataUp }
