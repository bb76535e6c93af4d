package sim

import (
	"math"
	"testing"

	"relidev/internal/analysis"
)

func TestModelConstructorsReject(t *testing.T) {
	for _, s := range []analysis.Scheme{analysis.SchemeVoting, analysis.SchemeAvailableCopy, analysis.SchemeNaive} {
		if _, err := NewModel(s, 0); err == nil {
			t.Fatalf("%v model accepted n=0", s)
		}
	}
	if _, err := NewModel(analysis.SchemeAvailableCopy, -1); err == nil {
		t.Fatal("AC model accepted n=-1")
	}
	if _, err := NewModel(analysis.Scheme(99), 3); err == nil {
		t.Fatal("accepted an unknown scheme")
	}
}

func TestVotingModelQuorum(t *testing.T) {
	m, err := NewModel(analysis.SchemeVoting, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Available() || m.AvailableSites() != 5 {
		t.Fatal("fresh model not fully available")
	}
	m.Apply(Event{Site: 0, Kind: EventFail})
	m.Apply(Event{Site: 1, Kind: EventFail})
	if !m.Available() {
		t.Fatal("3 of 5 should be quorate")
	}
	m.Apply(Event{Site: 2, Kind: EventFail})
	if m.Available() {
		t.Fatal("2 of 5 should not be quorate")
	}
	m.Apply(Event{Site: 0, Kind: EventRepair})
	if !m.Available() {
		t.Fatal("back to 3 of 5")
	}
}

func TestVotingModelEvenTie(t *testing.T) {
	m, err := NewModel(analysis.SchemeVoting, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Tie with site 0 up: quorate.
	m.Apply(Event{Site: 2, Kind: EventFail})
	m.Apply(Event{Site: 3, Kind: EventFail})
	if !m.Available() {
		t.Fatal("tie containing the weighted site should be quorate")
	}
	// Tie without site 0: not quorate.
	m.Apply(Event{Site: 2, Kind: EventRepair})
	m.Apply(Event{Site: 3, Kind: EventRepair})
	m.Apply(Event{Site: 0, Kind: EventFail})
	m.Apply(Event{Site: 1, Kind: EventFail})
	if m.Available() {
		t.Fatal("tie without the weighted site should not be quorate")
	}
}

func TestACModelTotalFailureSemantics(t *testing.T) {
	m, err := NewModel(analysis.SchemeAvailableCopy, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Apply(Event{Site: 0, Kind: EventFail})
	m.Apply(Event{Site: 1, Kind: EventFail})
	if !m.Available() || m.AvailableSites() != 1 {
		t.Fatal("one copy should keep the block available")
	}
	m.Apply(Event{Site: 2, Kind: EventFail}) // site 2 failed last
	if m.Available() {
		t.Fatal("total failure should make the block unavailable")
	}
	// Sites 0 and 1 repair: comatose, still unavailable.
	m.Apply(Event{Site: 0, Kind: EventRepair})
	m.Apply(Event{Site: 1, Kind: EventRepair})
	if m.Available() {
		t.Fatal("comatose copies must not serve the block")
	}
	// The last-failed site repairs: everyone becomes available.
	m.Apply(Event{Site: 2, Kind: EventRepair})
	if !m.Available() || m.AvailableSites() != 3 {
		t.Fatalf("after last-failed repair: available=%v n=%d", m.Available(), m.AvailableSites())
	}
}

func TestACModelComatoseCanRefail(t *testing.T) {
	m, _ := NewModel(analysis.SchemeAvailableCopy, 2)
	m.Apply(Event{Site: 0, Kind: EventFail})
	m.Apply(Event{Site: 1, Kind: EventFail}) // 1 failed last
	m.Apply(Event{Site: 0, Kind: EventRepair})
	m.Apply(Event{Site: 0, Kind: EventFail}) // comatose fails again
	m.Apply(Event{Site: 1, Kind: EventRepair})
	if !m.Available() || m.AvailableSites() != 1 {
		t.Fatal("last-failed repair should restore availability with one copy")
	}
	m.Apply(Event{Site: 0, Kind: EventRepair})
	if m.AvailableSites() != 2 {
		t.Fatal("repair with an available copy present should be immediate")
	}
}

func TestNaiveModelWaitsForAll(t *testing.T) {
	m, err := NewModel(analysis.SchemeNaive, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		m.Apply(Event{Site: s, Kind: EventFail})
	}
	m.Apply(Event{Site: 2, Kind: EventRepair}) // even the last-failed one
	m.Apply(Event{Site: 1, Kind: EventRepair})
	if m.Available() {
		t.Fatal("naive must wait for all sites")
	}
	m.Apply(Event{Site: 0, Kind: EventRepair})
	if !m.Available() || m.AvailableSites() != 3 {
		t.Fatal("all sites back should restore availability")
	}
}

func TestSimulateAvailabilityValidation(t *testing.T) {
	if _, err := SimulateAvailability(nil, 3, 0.1, 100, 1); err == nil {
		t.Fatal("accepted nil model")
	}
	m, _ := NewModel(analysis.SchemeAvailableCopy, 3)
	if _, err := SimulateAvailability(m, 3, 0.1, 0, 1); err == nil {
		t.Fatal("accepted zero horizon")
	}
}

// The DES agrees with the §4 analytical availabilities. This is the
// stochastic counterpart of the MACSYMA algebra: same chains, measured
// instead of solved.
func TestSimulatedAvailabilityMatchesAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	const horizon = 400000.0
	cases := []struct {
		name   string
		n      int
		rho    float64
		scheme analysis.Scheme
	}{
		{"voting/3", 3, 0.2, analysis.SchemeVoting},
		{"voting/5", 5, 0.2, analysis.SchemeVoting},
		{"voting/4-tiebreak", 4, 0.2, analysis.SchemeVoting},
		{"ac/2", 2, 0.2, analysis.SchemeAvailableCopy},
		{"ac/3", 3, 0.2, analysis.SchemeAvailableCopy},
		{"ac/5", 5, 0.2, analysis.SchemeAvailableCopy},
		{"naive/2", 2, 0.2, analysis.SchemeNaive},
		{"naive/3", 3, 0.2, analysis.SchemeNaive},
		{"naive/5", 5, 0.2, analysis.SchemeNaive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewModel(tc.scheme, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := SimulateAvailability(m, tc.n, tc.rho, horizon, 12345)
			if err != nil {
				t.Fatal(err)
			}
			want, err := analysis.Availability(tc.scheme, tc.n, tc.rho)
			if err != nil {
				t.Fatal(err)
			}
			// Compare unavailabilities with 10% relative + small absolute
			// slack: unavailability is the rare-event quantity here.
			simU, wantU := 1-res.Availability, 1-want
			if math.Abs(simU-wantU) > 0.10*wantU+0.002 {
				t.Fatalf("simulated availability %v vs analytic %v (unavail %v vs %v)",
					res.Availability, want, simU, wantU)
			}
			if res.Failures == 0 {
				t.Fatal("no failures simulated")
			}
		})
	}
}

// The simulated mean participation matches the §5 U formulas.
func TestSimulatedParticipationMatchesAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	const (
		n       = 5
		rho     = 0.1
		horizon = 200000.0
	)
	m, _ := NewModel(analysis.SchemeVoting, n)
	res, err := SimulateAvailability(m, n, rho, horizon, 99)
	if err != nil {
		t.Fatal(err)
	}
	// For voting the participation average conditions on quorum rather
	// than merely >=1 up, so compare loosely.
	want, _ := analysis.ParticipationVoting(n, rho)
	if math.Abs(res.MeanAvailableSites-want) > 0.1 {
		t.Fatalf("mean participating sites %v vs U_V %v", res.MeanAvailableSites, want)
	}

	ac, _ := NewModel(analysis.SchemeAvailableCopy, n)
	resAC, err := SimulateAvailability(ac, n, rho, horizon, 99)
	if err != nil {
		t.Fatal(err)
	}
	wantAC, _ := analysis.ParticipationAC(n, rho)
	if math.Abs(resAC.MeanAvailableSites-wantAC) > 0.05 {
		t.Fatalf("mean available sites %v vs U_A %v", resAC.MeanAvailableSites, wantAC)
	}
}
