package analysis

import (
	"fmt"
)

// The paper's introduction motivates replication with *availability and
// reliability*. §4 analyses availability (the long-run fraction of time
// the block is accessible); this file adds the classic reliability
// measure: MTTF, the mean time from a fully-up system to the *first*
// moment the block becomes inaccessible. Time is measured in units of
// the mean repair time (μ = 1, λ = ρ).

// MTTFVoting returns the mean time until a majority is first lost,
// starting from all n sites up.
func MTTFVoting(n int, rho float64) (float64, error) {
	if err := checkN(n); err != nil {
		return 0, err
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	if rho == 0 {
		return 0, fmt.Errorf("analysis: MTTF is infinite at rho=0")
	}
	chain, err := VotingChain(n, rho, 1)
	if err != nil {
		return 0, err
	}
	// State k = k sites up; the block is lost when the up weight stops
	// being a strict majority. With the ε tie-break half the boundary
	// states remain quorate; for MTTF we take the conservative unweighted
	// boundary (2k <= n is a loss), matching A_V(2k) = A_V(2k-1): the
	// even system first fails when it drops to the tie if the ε site is
	// among the down ones. For odd n the boundary is exact.
	return chain.MeanTimeToAbsorption(n, func(k int) bool { return 2*k <= n })
}

// MTTFAvailableCopy returns the mean time until all copies are first
// down simultaneously — identical for the conventional and naive
// variants, which differ only in how they *recover* from that state.
func MTTFAvailableCopy(n int, rho float64) (float64, error) {
	if err := checkN(n); err != nil {
		return 0, err
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	if rho == 0 {
		return 0, fmt.Errorf("analysis: MTTF is infinite at rho=0")
	}
	chain, err := ACChain(n, rho, 1)
	if err != nil {
		return 0, err
	}
	// Chain layout: states 0..n-1 are S_1..S_n (j+1 copies available);
	// states n.. are the total-failure states S'_j. Absorb on any S'.
	return chain.MeanTimeToAbsorption(n-1, func(s int) bool { return s >= n })
}
