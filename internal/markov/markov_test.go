package markov

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(0); err == nil {
		t.Fatal("accepted zero states")
	}
	if _, err := NewChain(-3); err == nil {
		t.Fatal("accepted negative states")
	}
}

func TestSetRateValidation(t *testing.T) {
	c, err := NewChain(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetRate(0, 0, 1); err == nil {
		t.Fatal("accepted self transition")
	}
	if err := c.SetRate(0, 5, 1); err == nil {
		t.Fatal("accepted out-of-range state")
	}
	if err := c.SetRate(0, 1, -2); err == nil {
		t.Fatal("accepted negative rate")
	}
	if err := c.SetRate(0, 1, math.NaN()); err == nil {
		t.Fatal("accepted NaN rate")
	}
	if err := c.SetRate(0, 1, 3); err != nil {
		t.Fatalf("rejected valid rate: %v", err)
	}
	if got := c.rates[0][1]; got != 3 {
		t.Fatalf("rate = %v, want 3", got)
	}
}

func TestTwoStateChain(t *testing.T) {
	// Classic up/down machine: pi_up = mu/(lambda+mu).
	lambda, mu := 0.3, 2.0
	c, _ := NewChain(2)
	c.SetRate(0, 1, lambda) // up -> down
	c.SetRate(1, 0, mu)     // down -> up
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	want := mu / (lambda + mu)
	if !almostEqual(pi[0], want, 1e-12) {
		t.Fatalf("pi_up = %v, want %v", pi[0], want)
	}
	if !almostEqual(pi[0]+pi[1], 1, 1e-12) {
		t.Fatalf("probabilities sum to %v", pi[0]+pi[1])
	}
}

func TestSingleStateChain(t *testing.T) {
	c, _ := NewChain(1)
	pi, err := c.SteadyState()
	if err != nil || len(pi) != 1 || pi[0] != 1 {
		t.Fatalf("pi = %v, err = %v", pi, err)
	}
}

func TestBirthDeathMatchesBinomial(t *testing.T) {
	// n independent sites with rates lambda, mu collapse to a birth-death
	// chain whose steady state is Binomial(n, mu/(lambda+mu)).
	const n = 6
	lambda, mu := 0.1, 1.0
	c, _ := NewChain(n + 1)
	for k := 0; k <= n; k++ {
		if k > 0 {
			c.SetRate(k, k-1, float64(k)*lambda)
		}
		if k < n {
			c.SetRate(k, k+1, float64(n-k)*mu)
		}
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	p := mu / (lambda + mu)
	binom := func(n, k int) float64 {
		out := 1.0
		for i := 1; i <= k; i++ {
			out *= float64(n-k+i) / float64(i)
		}
		return out
	}
	for k := 0; k <= n; k++ {
		want := binom(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		if !almostEqual(pi[k], want, 1e-12) {
			t.Fatalf("pi[%d] = %v, want %v", k, pi[k], want)
		}
	}
}

func TestReducibleChainRejected(t *testing.T) {
	// Two disconnected components: no unique steady state.
	c, _ := NewChain(4)
	c.SetRate(0, 1, 1)
	c.SetRate(1, 0, 1)
	c.SetRate(2, 3, 1)
	c.SetRate(3, 2, 1)
	if _, err := c.SteadyState(); !errors.Is(err, ErrReducible) {
		t.Fatalf("err = %v, want ErrReducible", err)
	}
}

func TestAbsorbingChainHasDegenerateSteadyState(t *testing.T) {
	// 0 -> 1 with no way back: all mass ends in state 1.
	c, _ := NewChain(2)
	c.SetRate(0, 1, 1)
	pi, err := c.SteadyState()
	if err != nil {
		// Rejection is also acceptable behaviour for a chain that is not
		// irreducible; accept either outcome but never a wrong answer.
		return
	}
	if !almostEqual(pi[1], 1, 1e-9) || !almostEqual(pi[0], 0, 1e-9) {
		t.Fatalf("pi = %v, want [0 1]", pi)
	}
}

func TestDetailedBalanceRandomBirthDeath(t *testing.T) {
	// Property: for random birth-death chains, the solver satisfies the
	// detailed balance equations pi_k q_{k,k+1} = pi_{k+1} q_{k+1,k}.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(10)
		c, _ := NewChain(n)
		up := make([]float64, n-1)
		down := make([]float64, n-1)
		for k := 0; k < n-1; k++ {
			up[k] = 0.1 + rng.Float64()*5
			down[k] = 0.1 + rng.Float64()*5
			c.SetRate(k, k+1, up[k])
			c.SetRate(k+1, k, down[k])
		}
		pi, err := c.SteadyState()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sum float64
		for _, p := range pi {
			if p < 0 {
				t.Fatalf("trial %d: negative probability %v", trial, p)
			}
			sum += p
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Fatalf("trial %d: sum = %v", trial, sum)
		}
		for k := 0; k < n-1; k++ {
			lhs := pi[k] * up[k]
			rhs := pi[k+1] * down[k]
			if !almostEqual(lhs, rhs, 1e-9*(1+lhs)) {
				t.Fatalf("trial %d: detailed balance broken at %d: %v vs %v", trial, k, lhs, rhs)
			}
		}
	}
}

func TestGlobalBalanceRandomDenseChain(t *testing.T) {
	// Property: for random irreducible dense chains, flow in equals flow
	// out of every state.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		c, _ := NewChain(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					c.SetRate(i, j, 0.05+rng.Float64())
				}
			}
		}
		pi, err := c.SteadyState()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			var in, out float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				in += pi[j] * c.rates[j][i]
				out += pi[i] * c.rates[i][j]
			}
			if !almostEqual(in, out, 1e-9*(1+in)) {
				t.Fatalf("trial %d state %d: in %v != out %v", trial, i, in, out)
			}
		}
	}
}

func TestProbe(t *testing.T) {
	c, _ := NewChain(3)
	c.SetRate(0, 1, 1)
	c.SetRate(1, 2, 1)
	c.SetRate(2, 0, 1)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	got := c.Probe(pi, func(s int) bool { return s != 1 })
	if !almostEqual(got, 2.0/3.0, 1e-12) {
		t.Fatalf("Probe = %v, want 2/3", got)
	}
	if all := c.Probe(pi, func(int) bool { return true }); !almostEqual(all, 1, 1e-12) {
		t.Fatalf("Probe(all) = %v", all)
	}
}

func TestMeanTimeToAbsorption(t *testing.T) {
	// Pure death chain 2 -> 1 -> 0 with rates 2 and 1: expected time from
	// state 2 to state 0 is 1/2 + 1/1.
	c, _ := NewChain(3)
	c.SetRate(2, 1, 2)
	c.SetRate(1, 0, 1)
	got, err := c.MeanTimeToAbsorption(2, func(s int) bool { return s == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1.5, 1e-12) {
		t.Fatalf("MTTA = %v, want 1.5", got)
	}
	// Starting in the absorbing set costs nothing.
	got, err = c.MeanTimeToAbsorption(0, func(s int) bool { return s == 0 })
	if err != nil || got != 0 {
		t.Fatalf("absorbed start = %v, %v", got, err)
	}
}

func TestMeanTimeToAbsorptionWithRepair(t *testing.T) {
	// Birth-death on {0,1,2}, absorb at 0: M/M/1-like first passage.
	// From 2: t2 = 1/d2 + t1; from 1: t1 = 1/(u1+d1) + (u1 t2)/(u1+d1).
	u1, d1, d2 := 3.0, 1.0, 2.0
	c, _ := NewChain(3)
	c.SetRate(2, 1, d2)
	c.SetRate(1, 0, d1)
	c.SetRate(1, 2, u1)
	got, err := c.MeanTimeToAbsorption(2, func(s int) bool { return s == 0 })
	if err != nil {
		t.Fatal(err)
	}
	// Solve by hand: t1 = (1 + u1*t2)/(u1+d1), t2 = 1/d2 + t1
	// => t1 = (1 + u1/d2 + u1 t1)/(u1+d1) => t1 (1 - u1/(u1+d1)) = (1+u1/d2)/(u1+d1)
	t1 := (1 + u1/d2) / d1
	want := 1/d2 + t1
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("MTTA = %v, want %v", got, want)
	}
}

func TestMeanTimeToAbsorptionErrors(t *testing.T) {
	c, _ := NewChain(2)
	c.SetRate(0, 1, 1)
	c.SetRate(1, 0, 1)
	if _, err := c.MeanTimeToAbsorption(5, func(int) bool { return false }); err == nil {
		t.Fatal("accepted out-of-range start")
	}
	if _, err := c.MeanTimeToAbsorption(0, nil); err == nil {
		t.Fatal("accepted nil predicate")
	}
	if _, err := c.MeanTimeToAbsorption(0, func(int) bool { return false }); err == nil {
		t.Fatal("accepted chain with no absorbing states")
	}
	// A transient state that cannot move is a modelling error.
	c2, _ := NewChain(3)
	c2.SetRate(0, 1, 1) // state 1 has no outgoing rate
	if _, err := c2.MeanTimeToAbsorption(0, func(s int) bool { return s == 2 }); err == nil {
		t.Fatal("accepted stuck transient state")
	}
}

func TestLabels(t *testing.T) {
	c, _ := NewChain(2)
	if err := c.SetLabel(0, "up"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLabel(5, "x"); err == nil {
		t.Fatal("accepted out-of-range label")
	}
	if c.Label(0) != "up" || c.Label(1) != "s1" || c.Label(9) != "s9" {
		t.Fatalf("labels = %q %q %q", c.Label(0), c.Label(1), c.Label(9))
	}
}
