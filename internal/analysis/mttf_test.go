package analysis

import (
	"math"
	"testing"
)

func TestMTTFSingleCopy(t *testing.T) {
	// One copy: the block is lost at the copy's first failure; the mean
	// of an exponential with rate rho is 1/rho, for both schemes.
	for _, rho := range []float64{0.05, 0.1, 0.5, 1.0} {
		v, err := MTTFVoting(1, rho)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := MTTFAvailableCopy(1, rho)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / rho
		if !almostEqual(v, want, 1e-9*want) {
			t.Fatalf("MTTF_V(1, %v) = %v, want %v", rho, v, want)
		}
		if !almostEqual(ac, want, 1e-9*want) {
			t.Fatalf("MTTF_AC(1, %v) = %v, want %v", rho, ac, want)
		}
	}
}

func TestMTTFTwoCopyParallelSystem(t *testing.T) {
	// Classic result for a 2-unit repairable parallel system (loss when
	// both are down): MTTF = (3λ + μ) / (2λ²). With μ = 1, λ = ρ.
	for _, rho := range []float64{0.05, 0.2, 0.5} {
		got, err := MTTFAvailableCopy(2, rho)
		if err != nil {
			t.Fatal(err)
		}
		want := (3*rho + 1) / (2 * rho * rho)
		if !almostEqual(got, want, 1e-9*want) {
			t.Fatalf("MTTF_AC(2, %v) = %v, want %v", rho, got, want)
		}
	}
}

func TestMTTFVotingThreeCopies(t *testing.T) {
	// 3 voting copies fail when 2 are down. Known closed form for a
	// 2-of-3 system: MTTF = (5λ + μ) / (6λ²). With μ = 1, λ = ρ.
	for _, rho := range []float64{0.05, 0.2} {
		got, err := MTTFVoting(3, rho)
		if err != nil {
			t.Fatal(err)
		}
		want := (5*rho + 1) / (6 * rho * rho)
		if !almostEqual(got, want, 1e-9*want) {
			t.Fatalf("MTTF_V(3, %v) = %v, want %v", rho, got, want)
		}
	}
}

func TestMTTFOrderings(t *testing.T) {
	for _, rho := range []float64{0.05, 0.1, 0.2} {
		prevAC := 0.0
		for n := 1; n <= 6; n++ {
			ac, err := MTTFAvailableCopy(n, rho)
			if err != nil {
				t.Fatal(err)
			}
			v, err := MTTFVoting(n, rho)
			if err != nil {
				t.Fatal(err)
			}
			// Surviving until *all* copies are down takes at least as
			// long as surviving until a majority is down.
			if ac < v-1e-9 {
				t.Fatalf("n=%d rho=%v: MTTF_AC %v < MTTF_V %v", n, rho, ac, v)
			}
			// More copies live longer under available copy.
			if ac < prevAC {
				t.Fatalf("n=%d rho=%v: MTTF_AC fell from %v to %v", n, rho, prevAC, ac)
			}
			prevAC = ac
		}
	}
}

func TestMTTFRatioGrowsWithCopies(t *testing.T) {
	const rho = 0.1
	prev := 0.0
	for n := 2; n <= 6; n++ {
		ac, err := MTTFAvailableCopy(n, rho)
		if err != nil {
			t.Fatal(err)
		}
		v, err := MTTFVoting(n, rho)
		if err != nil {
			t.Fatal(err)
		}
		r := ac / v
		if r <= prev {
			t.Fatalf("n=%d: ratio %v did not grow from %v", n, r, prev)
		}
		prev = r
	}
	// At n = 5, rho = 0.1, all-fail takes orders of magnitude longer
	// than majority-loss.
	if prev < 100 {
		t.Fatalf("MTTF ratio at n=6 = %v, want >> 100", prev)
	}
}

func TestMTTFValidation(t *testing.T) {
	if _, err := MTTFVoting(0, 0.1); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := MTTFVoting(3, 0); err == nil {
		t.Fatal("accepted rho=0 (infinite MTTF)")
	}
	if _, err := MTTFAvailableCopy(3, math.NaN()); err == nil {
		t.Fatal("accepted NaN rho")
	}
}
