package analysis

import (
	"fmt"

	"relidev/internal/markov"
)

// VotingChain builds the birth-death chain for n independent sites with
// failure rate lambda and repair rate mu. State k (0..n) means k sites
// are up. Voting needs no extra state: a restarted site is immediately a
// full participant (§3.1 lazy recovery), so block availability is purely
// a function of how many sites are up.
func VotingChain(n int, lambda, mu float64) (*markov.Chain, error) {
	if n < 1 {
		return nil, fmt.Errorf("analysis: voting chain needs n >= 1, got %d", n)
	}
	c, err := markov.NewChain(n + 1)
	if err != nil {
		return nil, err
	}
	for k := 0; k <= n; k++ {
		c.SetLabel(k, fmt.Sprintf("up%d", k))
		if k > 0 {
			if err := c.SetRate(k, k-1, float64(k)*lambda); err != nil {
				return nil, err
			}
		}
		if k < n {
			if err := c.SetRate(k, k+1, float64(n-k)*mu); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// availableCopyChain builds what Figures 7 and 8 share: 2n states
//
//	0 .. n-1   = S_1 .. S_n   (j copies available)
//	n .. 2n-1  = S'_0 .. S'_{n-1} (total failure; j comatose copies)
//
// and the transitions among S_1..S_n into S'_0, which are the same in
// both diagrams. totalFailure draws the rest with set, where s(j) is
// the index of S_j and sp(j) the index of S'_j.
func availableCopyChain(n int, lambda, mu float64, totalFailure func(set func(i, j int, r float64), s, sp func(j int) int)) (*markov.Chain, error) {
	if n < 1 {
		return nil, fmt.Errorf("analysis: available copy chain needs n >= 1, got %d", n)
	}
	c, err := markov.NewChain(2 * n)
	if err != nil {
		return nil, err
	}
	s := func(j int) int { return j - 1 }
	sp := func(j int) int { return n + j }
	for j := 1; j <= n; j++ {
		c.SetLabel(s(j), fmt.Sprintf("S%d", j))
	}
	for j := 0; j < n; j++ {
		c.SetLabel(sp(j), fmt.Sprintf("S'%d", j))
	}
	set := func(i, j int, r float64) {
		if err == nil {
			err = c.SetRate(i, j, r)
		}
	}

	// S_j, 1 <= j <= n-1: failure of one of j available copies; recovery
	// of one of n-j failed copies.
	for j := 1; j < n; j++ {
		if j == 1 {
			set(s(1), sp(0), lambda) // last available copy fails: total failure
		} else {
			set(s(j), s(j-1), float64(j)*lambda)
		}
		set(s(j), s(j+1), float64(n-j)*mu)
	}
	// S_n: only failures.
	if n > 1 {
		set(s(n), s(n-1), float64(n)*lambda)
	} else {
		set(s(1), sp(0), lambda)
	}
	totalFailure(set, s, sp)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// availableMass is the stationary probability of S_1..S_n, the
// accessible states of the Figure 7 and 8 chains.
func availableMass(n int) func(*markov.Chain, []float64) (float64, error) {
	return func(c *markov.Chain, pi []float64) (float64, error) {
		return clampProb(c.Probe(pi, func(state int) bool { return state < n })), nil
	}
}

// ACChain builds the Figure 7 state-transition-rate diagram for the
// available copy scheme with n copies.
func ACChain(n int, lambda, mu float64) (*markov.Chain, error) {
	return availableCopyChain(n, lambda, mu, func(set func(i, j int, r float64), s, sp func(int) int) {
		// S'_0: the last available copy recovers (-> S_1), or one of the
		// other n-1 copies recovers and stays comatose (-> S'_1).
		set(sp(0), s(1), mu)
		if n > 1 {
			set(sp(0), sp(1), float64(n-1)*mu)
		}

		// S'_j, 1 <= j <= n-2: a comatose copy fails (-> S'_{j-1}); the last
		// available copy recovers, making all j comatose copies repairable
		// (-> S_{j+1}); another failed copy recovers comatose (-> S'_{j+1}).
		for j := 1; j <= n-2; j++ {
			set(sp(j), sp(j-1), float64(j)*lambda)
			set(sp(j), s(j+1), mu)
			set(sp(j), sp(j+1), float64(n-j-1)*mu)
		}
		// S'_{n-1}: only the last available copy is still down.
		if n > 1 {
			set(sp(n-1), sp(n-2), float64(n-1)*lambda)
			set(sp(n-1), s(n), mu)
		}
	})
}

// NaiveChain builds the Figure 8 diagram for the naive available copy
// scheme: same 2n states as Figure 7, but after a total failure the only
// path back to availability is through S'_{n-1} -> S_n once every copy
// has recovered.
func NaiveChain(n int, lambda, mu float64) (*markov.Chain, error) {
	return availableCopyChain(n, lambda, mu, func(set func(i, j int, r float64), s, sp func(int) int) {
		// Total-failure side: j comatose, n-j failed; no distinction of the
		// last copy to fail, so recovery of *any* failed copy moves right,
		// and only S'_{n-1} (everyone back) transitions to S_n.
		for j := 0; j < n-1; j++ {
			if j > 0 {
				set(sp(j), sp(j-1), float64(j)*lambda)
			}
			set(sp(j), sp(j+1), float64(n-j)*mu)
		}
		if n > 1 {
			set(sp(n-1), sp(n-2), float64(n-1)*lambda)
			set(sp(n-1), s(n), mu)
		} else {
			set(sp(0), s(1), mu)
		}
	})
}

// steadyState evaluates measure on the stationary distribution of the
// chain build(n, ρ, 1): time in units of the mean repair time, so λ = ρ.
// At ρ = 0 no site ever fails and the chain has no unique steady state;
// the measure's all-up value allUp is returned instead.
func steadyState(n int, rho, allUp float64, build func(n int, lambda, mu float64) (*markov.Chain, error), measure func(*markov.Chain, []float64) (float64, error)) (float64, error) {
	if err := checkN(n); err != nil {
		return 0, err
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	if rho == 0 {
		return allUp, nil
	}
	chain, err := build(n, rho, 1)
	if err != nil {
		return 0, err
	}
	pi, err := chain.SteadyState()
	if err != nil {
		return 0, err
	}
	return measure(chain, pi)
}
