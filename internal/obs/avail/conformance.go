package avail

import (
	"fmt"
	"math"

	"relidev/internal/analysis"
	"relidev/internal/obs"
)

// Availability conformance: feed the *measured* failure and repair
// rates into the §4 Markov chain for the running scheme and check that
// the empirical fraction of accessible time brackets the steady-state
// prediction. Strict mode (deterministic integration tests) uses the
// caller's tolerance as-is; standing mode (cmd/chaos) widens it by the
// sampling error implied by the number of observed transitions, so a
// short or quiet run cannot produce a spurious violation.

// Check is one conformance comparison.
type Check struct {
	Name string `json:"name"`
	// Empirical and Predicted are the measured quantity and its §4
	// Markov prediction at the measured rates.
	Empirical float64 `json:"empirical"`
	Predicted float64 `json:"predicted"`
	// Tolerance is the absolute acceptance band actually applied.
	Tolerance float64 `json:"tolerance"`
	OK        bool    `json:"ok"`
	// Note explains a vacuous pass (insufficient data).
	Note string `json:"note,omitempty"`
}

// Report is the outcome of one conformance evaluation.
type Report struct {
	Scheme string  `json:"scheme"`
	Sites  int     `json:"sites"`
	Lambda float64 `json:"lambda"`
	Mu     float64 `json:"mu"`
	Rho    float64 `json:"rho"`
	Strict bool    `json:"strict"`
	OK     bool    `json:"ok"`
	Checks []Check `json:"checks"`
}

// Violations renders the failed checks as human-readable strings, one
// per check, empty when the report is OK.
func (r Report) Violations() []string {
	var out []string
	for _, c := range r.Checks {
		if c.OK {
			continue
		}
		out = append(out, fmt.Sprintf("§4 availability conformance (%s/n=%d): %s empirical %.6f vs predicted %.6f exceeds tolerance %.6f (rho=%.4f)",
			r.Scheme, r.Sites, c.Name, c.Empirical, c.Predicted, c.Tolerance, r.Rho))
	}
	return out
}

// minTransitions is the evidence floor below which conformance is
// vacuously satisfied: with only a handful of failure/repair samples
// the empirical rates carry no information about the steady state.
const minTransitions = 4

// CheckConformance compares st against the §4 Markov prediction at the
// measured rates. tol is the absolute availability tolerance; in
// non-strict mode it is widened by an O(1/sqrt(transitions)) sampling
// allowance. An unknown scheme or invalid rates yield an error rather
// than a report — those are harness bugs, not violations.
func CheckConformance(st Stats, tol float64, strict bool) (Report, error) {
	r := Report{Scheme: st.Scheme, Sites: st.Sites, Lambda: st.Lambda, Mu: st.Mu, Rho: st.Rho, Strict: strict, OK: true}
	scheme, ok := obs.SchemeFromName(st.Scheme)
	if !ok {
		return r, fmt.Errorf("avail: unknown scheme %q", st.Scheme)
	}

	if st.Failures < minTransitions || st.Repairs < minTransitions {
		r.Checks = append(r.Checks, Check{
			Name: "system-availability", Empirical: st.SystemAvailability,
			Predicted: math.NaN(), Tolerance: tol, OK: true,
			Note: fmt.Sprintf("insufficient data: %d failures / %d repairs (< %d)", st.Failures, st.Repairs, minTransitions),
		})
		return r, nil
	}

	predicted, err := analysis.MarkovAvailability(scheme, st.Sites, st.Lambda, st.Mu)
	if err != nil {
		return r, err
	}
	band := tol
	if !strict {
		// Sampling allowance: the empirical availability of a run with k
		// observed transitions fluctuates with standard error ~1/sqrt(k).
		band += 1 / math.Sqrt(float64(st.Failures+st.Repairs))
	}
	c := Check{
		Name:      "system-availability",
		Empirical: st.SystemAvailability,
		Predicted: predicted,
		Tolerance: band,
		OK:        math.Abs(st.SystemAvailability-predicted) <= band,
	}
	r.Checks = append(r.Checks, c)
	if !c.OK {
		r.OK = false
	}
	return r, nil
}
