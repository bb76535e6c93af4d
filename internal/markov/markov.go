// Package markov provides a small continuous-time Markov chain (CTMC)
// toolkit: build a chain from transition rates and solve for its steady
// state distribution.
//
// The paper derived its availability results (§4) symbolically with
// MACSYMA from the state-transition-rate diagrams of Figures 7 and 8.
// This package is the numeric counterpart: the same diagrams are encoded
// as chains (see the builders in internal/analysis) and solved by dense
// Gaussian elimination; the closed forms the paper reports are then
// cross-validated against the numeric solution in the test suites.
package markov

import (
	"errors"
	"fmt"
	"math"
)

// Chain is a finite CTMC described by its transition rates.
type Chain struct {
	n      int
	rates  [][]float64
	labels []string
}

// NewChain returns a chain with n states and no transitions.
func NewChain(n int) (*Chain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: chain needs at least one state, got %d", n)
	}
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
	}
	return &Chain{n: n, rates: rates, labels: make([]string, n)}, nil
}

// SetLabel names a state for diagnostics.
func (c *Chain) SetLabel(i int, label string) error {
	if i < 0 || i >= c.n {
		return fmt.Errorf("markov: state %d out of range", i)
	}
	c.labels[i] = label
	return nil
}

// Label returns a state's name ("s<i>" when unnamed).
func (c *Chain) Label(i int) string {
	if i < 0 || i >= c.n || c.labels[i] == "" {
		return fmt.Sprintf("s%d", i)
	}
	return c.labels[i]
}

// SetRate sets the transition rate from state i to state j. Self loops
// and negative rates are rejected.
func (c *Chain) SetRate(i, j int, rate float64) error {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		return fmt.Errorf("markov: transition %d->%d out of range", i, j)
	}
	if i == j {
		return fmt.Errorf("markov: self transition %d->%d", i, j)
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("markov: rate %v for %d->%d is not a finite non-negative number", rate, i, j)
	}
	c.rates[i][j] = rate
	return nil
}

// ErrReducible is returned when the steady state is not unique — the
// chain has unreachable or absorbing components.
var ErrReducible = errors.New("markov: chain has no unique steady state")

// SteadyState solves πQ = 0, Σπ = 1 for the stationary distribution π,
// where Q is the infinitesimal generator built from the rates. The chain
// must be irreducible.
func (c *Chain) SteadyState() ([]float64, error) {
	n := c.n
	if n == 1 {
		return []float64{1}, nil
	}
	// Build the transposed generator: a[i][j] = Q[j][i], so that the
	// linear system a·π = 0 row-wise encodes the balance equations.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	for i := 0; i < n; i++ {
		var out float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			out += c.rates[i][j]
			a[j][i] += c.rates[i][j]
		}
		a[i][i] -= out
	}
	// Replace the last balance equation (linearly dependent on the rest)
	// with the normalisation Σπ = 1.
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	a[n-1][n] = 1

	pi, err := solve(a)
	if err != nil {
		return nil, err
	}
	// Guard against tiny negative components from roundoff, and reject
	// genuinely negative solutions (reducible chains).
	const tol = 1e-9
	for i, p := range pi {
		if p < -tol {
			return nil, fmt.Errorf("%w: state %s has stationary probability %g", ErrReducible, c.Label(i), p)
		}
		if p < 0 {
			pi[i] = 0
		}
	}
	return pi, nil
}

// solve performs Gaussian elimination with partial pivoting on the
// augmented matrix a (n rows, n+1 columns) and returns the solution.
func solve(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		best := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[best][col]) {
				best = r
			}
		}
		if math.Abs(a[best][col]) < 1e-14 {
			return nil, ErrReducible
		}
		a[col], a[best] = a[best], a[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := a[r][n]
		for k := r + 1; k < n; k++ {
			sum -= a[r][k] * x[k]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// MeanTimeToAbsorption returns the expected time to first reach any
// state selected by absorbing, starting from state start. It solves the
// standard first-passage system over the transient states:
//
//	out_i · t_i − Σ_{j transient} q_ij · t_j = 1
//
// This is the reliability counterpart of SteadyState: with "absorbing" =
// "the replicated block is inaccessible", the result is the system MTTF
// the paper's introduction motivates ("availability and reliability of a
// file can be made arbitrarily high").
func (c *Chain) MeanTimeToAbsorption(start int, absorbing func(int) bool) (float64, error) {
	if start < 0 || start >= c.n {
		return 0, fmt.Errorf("markov: start state %d out of range", start)
	}
	if absorbing == nil {
		return 0, errors.New("markov: nil absorbing predicate")
	}
	if absorbing(start) {
		return 0, nil
	}
	// Index the transient states.
	index := make(map[int]int)
	var transient []int
	for i := 0; i < c.n; i++ {
		if !absorbing(i) {
			index[i] = len(transient)
			transient = append(transient, i)
		}
	}
	if len(transient) == c.n {
		return math.Inf(1), fmt.Errorf("markov: no absorbing states: %w", ErrReducible)
	}
	m := len(transient)
	a := make([][]float64, m)
	for r, i := range transient {
		a[r] = make([]float64, m+1)
		var out float64
		for j := 0; j < c.n; j++ {
			if j == i {
				continue
			}
			rate := c.rates[i][j]
			if rate == 0 {
				continue
			}
			out += rate
			if col, ok := index[j]; ok {
				a[r][col] -= rate
			}
		}
		if out == 0 {
			// A transient state with no way out can never be absorbed.
			return math.Inf(1), fmt.Errorf("markov: state %s is absorbing-by-accident: %w", c.Label(i), ErrReducible)
		}
		a[r][index[i]] += out
		a[r][m] = 1
	}
	t, err := solve(a)
	if err != nil {
		return 0, err
	}
	return t[index[start]], nil
}

// Probe sums the stationary probability of the states selected by keep.
// It is the building block for availability measures: availability is
// the probed mass of the "block is accessible" states.
func (c *Chain) Probe(pi []float64, keep func(state int) bool) float64 {
	var sum float64
	for i := 0; i < c.n && i < len(pi); i++ {
		if keep(i) {
			sum += pi[i]
		}
	}
	return sum
}
