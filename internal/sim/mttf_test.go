package sim

import (
	"math"
	"testing"

	"relidev/internal/analysis"
)

func TestMeasureMTTFValidation(t *testing.T) {
	factory := func() (Model, error) { return NewModel(analysis.SchemeAvailableCopy, 2) }
	if _, err := MeasureMTTF(nil, 2, 0.1, 10, 1); err == nil {
		t.Fatal("accepted nil factory")
	}
	if _, err := MeasureMTTF(factory, 2, 0.1, 0, 1); err == nil {
		t.Fatal("accepted zero episodes")
	}
	if _, err := MeasureMTTF(factory, 2, 0, 10, 1); err == nil {
		t.Fatal("accepted rho=0")
	}
}

// Simulated first-passage times agree with the absorbing-chain analysis.
func TestSimulatedMTTFMatchesAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	const (
		rho      = 0.3 // failure-heavy so episodes are short
		episodes = 4000
	)
	cases := []struct {
		name     string
		n        int
		scheme   analysis.Scheme
		analytic func(int, float64) (float64, error)
	}{
		{"ac/2", 2, analysis.SchemeAvailableCopy, analysis.MTTFAvailableCopy},
		{"ac/3", 3, analysis.SchemeAvailableCopy, analysis.MTTFAvailableCopy},
		{"naive/3 (same MTTF as ac)", 3, analysis.SchemeNaive, analysis.MTTFAvailableCopy},
		{"voting/3", 3, analysis.SchemeVoting, analysis.MTTFVoting},
		{"voting/5", 5, analysis.SchemeVoting, analysis.MTTFVoting},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := MeasureMTTF(func() (Model, error) { return NewModel(tc.scheme, tc.n) }, tc.n, rho, episodes, 31)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.analytic(tc.n, rho)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 0.06*want {
				t.Fatalf("simulated MTTF %v vs analytic %v", got, want)
			}
		})
	}
}
