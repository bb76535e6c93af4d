package analysis

import (
	"fmt"
	"math"

	"relidev/internal/markov"
)

// Scheme enumerates the three consistency algorithms for the cost model.
type Scheme int

// The §3 schemes.
const (
	SchemeVoting Scheme = iota + 1
	SchemeAvailableCopy
	SchemeNaive
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeVoting:
		return "voting"
	case SchemeAvailableCopy:
		return "available-copy"
	case SchemeNaive:
		return "naive"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParticipationVoting returns U_V^n, the average number of sites
// responding to a query from an operational local site under voting
// (§5):
//
//	U_V^n = n(1+ρ)^{n-1} / ((1+ρ)^n − ρ^n)
func ParticipationVoting(n int, rho float64) (float64, error) {
	if err := checkN(n); err != nil {
		return 0, err
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	num := float64(n) * math.Pow(1+rho, float64(n-1))
	den := math.Pow(1+rho, float64(n)) - math.Pow(rho, float64(n))
	return num / den, nil
}

// ParticipationAC returns U_A^n, the average number of available sites
// given at least one is available, from the Figure 7 chain.
func ParticipationAC(n int, rho float64) (float64, error) {
	return steadyState(n, rho, float64(n), ACChain, participation(n))
}

// ParticipationNaive returns U_N^n from the Figure 8 chain.
func ParticipationNaive(n int, rho float64) (float64, error) {
	return steadyState(n, rho, float64(n), NaiveChain, participation(n))
}

// participation computes U = Σ i·p_i / Σ p_i over the available states
// S_1..S_n, which occupy chain indices 0..n-1 (state i-1 = i sites
// available).
func participation(n int) func(*markov.Chain, []float64) (float64, error) {
	return func(_ *markov.Chain, pi []float64) (float64, error) {
		var num, den float64
		for i := 1; i <= n; i++ {
			num += float64(i) * pi[i-1]
			den += pi[i-1]
		}
		if den == 0 {
			return 0, fmt.Errorf("analysis: no probability mass on available states")
		}
		return num / den, nil
	}
}

// Costs is the §5 cost table for one scheme in one network flavour, in
// expected high-level transmissions per operation.
type Costs struct {
	// Write is the cost of one successful block write.
	Write float64
	// Read is the cost of one block read with a current local copy.
	Read float64
	// ReadStale is the cost of a read that must also fetch the block
	// (voting only; identical to Read elsewhere).
	ReadStale float64
	// Recovery is the cost of one site recovery.
	Recovery float64
}

// participationFor returns the model participation level U for one
// scheme at (n, rho).
func participationFor(s Scheme, n int, rho float64) (float64, error) {
	switch s {
	case SchemeVoting:
		return ParticipationVoting(n, rho)
	case SchemeAvailableCopy:
		return ParticipationAC(n, rho)
	case SchemeNaive:
		return ParticipationNaive(n, rho)
	default:
		return 0, fmt.Errorf("analysis: unknown scheme %v", s)
	}
}

// CostsForParticipation returns the §5 cost table for one scheme with
// the participation level U supplied directly instead of derived from
// the failure model. Every §5 formula is affine in U, so the table is
// exact not only for the model's steady-state U but also for a
// *measured* mean participation — this is what lets the observability
// layer hold live message counts against the paper's formulas (the
// obs conformance checker): feed it U = participants/operations as
// actually observed, and the predicted per-operation costs must match
// the observed ones exactly on a reliable network.
//
// Multicast (§5.1):
//
//	voting:  write 1+U, read U (stale +1), recovery 0
//	AC:      write U,   read 0,            recovery U+2
//	naive:   write 1,   read 0,            recovery U+2
//
// Unicast (§5.2):
//
//	voting:  write n+2U−3, read n+U−2 (stale +1), recovery 0
//	AC:      write n+U−2,  read 0,                recovery n+U
//	naive:   write n−1,    read 0,                recovery n+U
func CostsForParticipation(s Scheme, n int, u float64, unicast bool) (Costs, error) {
	if err := checkN(n); err != nil {
		return Costs{}, err
	}
	fn := float64(n)
	if !unicast {
		switch s {
		case SchemeVoting:
			return Costs{Write: 1 + u, Read: u, ReadStale: u + 1, Recovery: 0}, nil
		case SchemeAvailableCopy:
			return Costs{Write: u, Read: 0, ReadStale: 0, Recovery: u + 2}, nil
		case SchemeNaive:
			return Costs{Write: 1, Read: 0, ReadStale: 0, Recovery: u + 2}, nil
		default:
			return Costs{}, fmt.Errorf("analysis: unknown scheme %v", s)
		}
	}
	switch s {
	case SchemeVoting:
		return Costs{Write: fn + 2*u - 3, Read: fn + u - 2, ReadStale: fn + u - 1, Recovery: 0}, nil
	case SchemeAvailableCopy:
		return Costs{Write: fn + u - 2, Read: 0, ReadStale: 0, Recovery: fn + u}, nil
	case SchemeNaive:
		return Costs{Write: fn - 1, Read: 0, ReadStale: 0, Recovery: fn + u}, nil
	default:
		return Costs{}, fmt.Errorf("analysis: unknown scheme %v", s)
	}
}

// MulticastCosts returns the §5.1 cost table.
//
//	voting:  write 1+U_V, read U_V (stale +1), recovery 0
//	AC:      write U_A,   read 0,              recovery U_A+2
//	naive:   write 1,     read 0,              recovery U_N+2
func MulticastCosts(s Scheme, n int, rho float64) (Costs, error) {
	u, err := participationFor(s, n, rho)
	if err != nil {
		return Costs{}, err
	}
	return CostsForParticipation(s, n, u, false)
}

// UnicastCosts returns the §5.2 cost table.
//
//	voting:  write n+2U_V−3, read n+U_V−2 (stale +1), recovery 0
//	AC:      write n+U_A−2,  read 0,                  recovery n+U_A
//	naive:   write n−1,      read 0,                  recovery n+U_N
func UnicastCosts(s Scheme, n int, rho float64) (Costs, error) {
	u, err := participationFor(s, n, rho)
	if err != nil {
		return Costs{}, err
	}
	return CostsForParticipation(s, n, u, true)
}

// WorkloadCost returns the expected transmissions generated by one write
// and x reads — the dependent axis of Figures 11 and 12. x is the read
// to write ratio; [9] observed roughly 2.5:1 on 4.2 BSD.
func WorkloadCost(c Costs, x float64) float64 {
	return c.Write + x*c.Read
}
