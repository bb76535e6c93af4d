package sim

import (
	"math"
	"testing"

	"relidev/internal/analysis"
)

func TestWitnessModelValidation(t *testing.T) {
	if _, err := NewWitnessVotingModel(0, 1); err == nil {
		t.Fatal("accepted zero data sites")
	}
	if _, err := NewWitnessVotingModel(2, -1); err == nil {
		t.Fatal("accepted negative witnesses")
	}
}

func TestWitnessModelSemantics(t *testing.T) {
	// 2 data (sites 0,1) + 1 witness (site 2).
	m, err := NewWitnessVotingModel(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Available() || m.AvailableSites() != 2 {
		t.Fatal("fresh model wrong")
	}
	// Data site down: data site + witness quorum still serves.
	m.Apply(Event{Site: 1, Kind: EventFail})
	if !m.Available() {
		t.Fatal("2-of-3 with a data site should be available")
	}
	// Both data sites down: witness majority is NOT enough.
	m.Apply(Event{Site: 0, Kind: EventFail})
	if m.Available() {
		t.Fatal("witness alone must not serve data")
	}
	m.Apply(Event{Site: 0, Kind: EventRepair})
	if !m.Available() {
		t.Fatal("data site back with witness should serve")
	}
	// Witness down too: 1 of 3 is no quorum.
	m.Apply(Event{Site: 2, Kind: EventFail})
	if m.Available() {
		t.Fatal("1-of-3 should not be quorate")
	}
	// Out-of-range events are ignored.
	m.Apply(Event{Site: 99, Kind: EventFail})
	if m.Available() {
		t.Fatal("out-of-range event changed the state")
	}
}

// The witness model's simulated availability matches the enumeration
// formula.
func TestWitnessSimulationMatchesEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cases := []struct{ data, wit int }{{2, 1}, {2, 2}, {3, 2}}
	for _, tc := range cases {
		m, err := NewWitnessVotingModel(tc.data, tc.wit)
		if err != nil {
			t.Fatal(err)
		}
		const rho = 0.2
		res, err := SimulateAvailability(m, tc.data+tc.wit, rho, 300000, 77)
		if err != nil {
			t.Fatal(err)
		}
		want, err := analysis.AvailabilityVotingWitnesses(tc.data, tc.wit, rho)
		if err != nil {
			t.Fatal(err)
		}
		simU, wantU := 1-res.Availability, 1-want
		if math.Abs(simU-wantU) > 0.10*wantU+0.002 {
			t.Fatalf("%d+%dw: simulated %v vs analytic %v", tc.data, tc.wit, res.Availability, want)
		}
	}
}
