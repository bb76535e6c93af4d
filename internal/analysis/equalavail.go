package analysis

import (
	"fmt"
)

// MinCopies returns the smallest number of copies in [1, maxN] whose
// availability under the scheme reaches target at the given rho. §5
// observes that comparing schemes at equal *availability* rather than
// equal copy count amplifies the available copy advantage: voting needs
// roughly twice the copies (Theorem 4.1), and its per-operation cost
// grows with the copy count.
//
// Voting gains nothing from even copy counts (A_V(2k) = A_V(2k-1)), so
// for the voting scheme only odd counts are considered.
func MinCopies(s Scheme, rho, target float64, maxN int) (int, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("analysis: target availability %v must be in (0,1)", target)
	}
	if maxN < 1 || maxN > 40 {
		return 0, fmt.Errorf("analysis: maxN %d outside [1,40]", maxN)
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	step := 1
	start := 1
	if s == SchemeVoting {
		step = 2 // even counts add cost but no availability
	}
	for n := start; n <= maxN; n += step {
		a, err := Availability(s, n, rho)
		if err != nil {
			return 0, err
		}
		if a >= target {
			return n, nil
		}
	}
	return 0, fmt.Errorf("analysis: %v cannot reach availability %v with %d copies at rho=%v",
		s, target, maxN, rho)
}

// EqualAvailabilityCost returns the expected multicast transmissions for
// one write plus x reads when each scheme uses the *fewest* copies that
// reach the target availability — the comparison §5 says makes voting's
// traffic costs "much steeper".
type EqualAvailabilityCost struct {
	Scheme Scheme
	// Copies is the minimal copy count reaching the target.
	Copies int
	// Cost is the expected transmissions for one write + x reads.
	Cost float64
}

// EqualAvailabilityCosts evaluates all three schemes at the target.
func EqualAvailabilityCosts(rho, target, x float64, maxN int) ([]EqualAvailabilityCost, error) {
	out := make([]EqualAvailabilityCost, 0, 3)
	for _, s := range []Scheme{SchemeVoting, SchemeAvailableCopy, SchemeNaive} {
		n, err := MinCopies(s, rho, target, maxN)
		if err != nil {
			return nil, err
		}
		costs, err := MulticastCosts(s, n, rho)
		if err != nil {
			return nil, err
		}
		out = append(out, EqualAvailabilityCost{
			Scheme: s,
			Copies: n,
			Cost:   WorkloadCost(costs, x),
		})
	}
	return out, nil
}
