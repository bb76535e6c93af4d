// Package analysis implements the paper's evaluation machinery: the §4
// availability formulas and Markov models for all three consistency
// schemes, and the §5 network traffic cost models for multi-cast and
// unique-addressing networks.
//
// Throughout, sites fail and repair as independent Poisson processes with
// failure rate λ and repair rate μ; ρ = λ/μ is the failure-to-repair rate
// ratio. ρ = 0 is a perfectly reliable site; ρ = 0.2 repairs five times
// faster than it fails (individual availability 83.33%); real systems sit
// well below ρ = 0.05 (§4.4).
package analysis

import (
	"fmt"
	"math"

	"relidev/internal/markov"
)

// checkN validates a copy count for the closed-form evaluations.
func checkN(n int) error {
	if n < 1 || n > 40 {
		return fmt.Errorf("analysis: copy count %d outside supported range [1,40]", n)
	}
	return nil
}

func checkRho(rho float64) error {
	if rho < 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
		return fmt.Errorf("analysis: rho %v must be a finite non-negative number", rho)
	}
	return nil
}

// binom returns the binomial coefficient C(n, k) as a float64.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 1; i <= k; i++ {
		out *= float64(n - k + i)
		out /= float64(i)
	}
	return out
}

// SiteAvailability returns the availability of a single site, μ/(λ+μ) =
// 1/(1+ρ).
func SiteAvailability(rho float64) float64 { return 1 / (1 + rho) }

// clampProb guards probabilities against tiny floating point excursions
// outside [0, 1].
func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// Availability returns a scheme's §4 availability of n copies:
// AvailabilityVoting, AvailabilityAC or AvailabilityNaive.
func Availability(s Scheme, n int, rho float64) (float64, error) {
	switch s {
	case SchemeVoting:
		return AvailabilityVoting(n, rho)
	case SchemeAvailableCopy:
		return AvailabilityAC(n, rho)
	case SchemeNaive:
		return AvailabilityNaive(n, rho)
	default:
		return 0, fmt.Errorf("analysis: unknown scheme %v", s)
	}
}

// AvailabilityVoting returns A_V(n), the steady-state availability of a
// replicated block with n equally weighted copies managed by majority
// consensus voting (equations 1.a and 1.b). For even n the §4.1
// tie-breaking weight adjustment is assumed: half of the exactly-n/2-up
// states are quorate.
func AvailabilityVoting(n int, rho float64) (float64, error) {
	if err := checkN(n); err != nil {
		return 0, err
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	if rho == 0 {
		return 1, nil
	}
	denom := math.Pow(1+rho, float64(n))
	var sum float64
	if n%2 == 1 {
		// P(at most (n-1)/2 copies down).
		for j := 0; j <= (n-1)/2; j++ {
			sum += binom(n, j) * math.Pow(rho, float64(j))
		}
	} else {
		for j := 0; j < n/2; j++ {
			sum += binom(n, j) * math.Pow(rho, float64(j))
		}
		sum += binom(n, n/2) * math.Pow(rho, float64(n/2)) / 2
	}
	return clampProb(sum / denom), nil
}

// AvailabilityACClosed returns the closed forms the paper reports for the
// available copy scheme, equations (2), (3) and (4): n must be 2, 3 or 4.
// AvailabilityAC computes any n from the Figure 7 Markov chain.
func AvailabilityACClosed(n int, rho float64) (float64, error) {
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	r := rho
	switch n {
	case 2:
		return clampProb((1 + 3*r + r*r) / math.Pow(1+r, 3)), nil
	case 3:
		num := 2 + 9*r + 17*r*r + 11*r*r*r + 2*r*r*r*r
		den := math.Pow(1+r, 3) * (2 + 3*r + 2*r*r)
		return clampProb(num / den), nil
	case 4:
		num := 6 + 37*r + 99*r*r + 152*math.Pow(r, 3) + 124*math.Pow(r, 4) + 47*math.Pow(r, 5) + 6*math.Pow(r, 6)
		den := math.Pow(1+r, 4) * (6 + 13*r + 11*r*r + 6*math.Pow(r, 3))
		return clampProb(num / den), nil
	default:
		return 0, fmt.Errorf("analysis: closed-form A_A known only for n in {2,3,4}, got %d", n)
	}
}

// AvailabilityAC returns A_A(n), the availability of n copies under the
// available copy scheme, computed from the Figure 7 state-transition-rate
// diagram.
func AvailabilityAC(n int, rho float64) (float64, error) {
	return steadyState(n, rho, 1, ACChain, availableMass(n))
}

// AvailabilityACLowerBound returns the §4.2 bound (5):
// A_A(n) >= 1 - nρⁿ/(1+ρ)ⁿ.
func AvailabilityACLowerBound(n int, rho float64) (float64, error) {
	if err := checkN(n); err != nil {
		return 0, err
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	return 1 - float64(n)*math.Pow(rho, float64(n))/math.Pow(1+rho, float64(n)), nil
}

// bPoly evaluates B(n;ρ) from §4.3:
//
//	B(n;ρ) = Σ_{k=1..n} Σ_{j=1..k} (n-j)!(j-1)! / ((n-k)!k!) · ρ^{j-k}
func bPoly(n int, rho float64) float64 {
	var sum float64
	for k := 1; k <= n; k++ {
		for j := 1; j <= k; j++ {
			lg := lfact(n-j) + lfact(j-1) - lfact(n-k) - lfact(k)
			sum += math.Exp(lg) * math.Pow(rho, float64(j-k))
		}
	}
	return sum
}

// lfact returns ln(m!).
func lfact(m int) float64 {
	lg, _ := math.Lgamma(float64(m) + 1)
	return lg
}

// AvailabilityNaive returns A_NA(n), the availability of n copies under
// the naive available copy scheme (§4.3):
//
//	A_NA(n) = B(n;ρ) / (B(n;ρ) + ρ·B(n;1/ρ))
func AvailabilityNaive(n int, rho float64) (float64, error) {
	if err := checkN(n); err != nil {
		return 0, err
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	if rho == 0 {
		return 1, nil
	}
	b := bPoly(n, rho)
	bInv := bPoly(n, 1/rho)
	return clampProb(b / (b + rho*bInv)), nil
}

// AvailabilityNaiveMarkov returns A_NA(n) computed from the Figure 8
// chain: the oracle the closed form is checked against.
func AvailabilityNaiveMarkov(n int, rho float64) (float64, error) {
	return steadyState(n, rho, 1, NaiveChain, availableMass(n))
}

// AvailabilityVotingMarkov returns A_V(n) computed from the voting
// birth-death chain: the oracle equations (1.a)/(1.b) are checked
// against.
func AvailabilityVotingMarkov(n int, rho float64) (float64, error) {
	// State k = k sites up. Strict majority is quorate; with even n the
	// tie state contributes half its mass (the ε-weighted site is up in
	// half of the equally likely tie configurations).
	return steadyState(n, rho, 1, VotingChain, func(_ *markov.Chain, pi []float64) (float64, error) {
		var a float64
		for k := 0; k <= n; k++ {
			switch {
			case 2*k > n:
				a += pi[k]
			case 2*k == n:
				a += pi[k] / 2
			}
		}
		return clampProb(a), nil
	})
}
