package relidev

import "relidev/internal/analysis"

// Availability returns the steady-state probability that a replicated
// block with n copies under the given scheme is accessible, where rho =
// λ/μ is the per-site failure-to-repair rate ratio (§4).
func Availability(scheme Scheme, n int, rho float64) (float64, error) {
	return analysis.Availability(scheme, n, rho)
}

// Costs is the expected number of high-level network transmissions per
// operation (§5).
type Costs = analysis.Costs

// TrafficCosts returns the §5 cost model for a scheme on an n-site
// system: multicast selects the §5.1 multi-cast network, otherwise the
// §5.2 unique-addressing network.
func TrafficCosts(scheme Scheme, n int, rho float64, multicast bool) (Costs, error) {
	if multicast {
		return analysis.MulticastCosts(scheme, n, rho)
	}
	return analysis.UnicastCosts(scheme, n, rho)
}

// SiteAvailability returns the availability of one site, 1/(1+rho).
func SiteAvailability(rho float64) float64 { return analysis.SiteAvailability(rho) }
