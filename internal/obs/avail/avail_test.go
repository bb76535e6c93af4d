package avail

import (
	"math"
	"sync"
	"testing"

	"relidev/internal/analysis"
	"relidev/internal/obs"
	"relidev/internal/sim"
)

func TestNewRejects(t *testing.T) {
	if _, err := New(3, "paxos"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := New(0, "voting"); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestHandComputedIntegration drives a tiny deterministic history and
// checks every aggregate against hand-computed values.
func TestHandComputedIntegration(t *testing.T) {
	e, err := New(2, "available-copy")
	if err != nil {
		t.Fatal(err)
	}
	// t=0..10: both up. t=10: site 0 down. t=30: site 0 up. Horizon 40.
	e.SiteDown(0, 10)
	e.SiteUp(0, 30)
	e.Op("write", true)
	e.Op("write", true)
	e.Op("write", false)
	e.Op("read", true)
	st := e.Snapshot(40)

	if st.Scheme != "available-copy" || st.Sites != 2 || st.Horizon != 40 {
		t.Fatalf("header = %+v", st)
	}
	s0 := st.PerSite[0]
	if s0.UpTime != 20 || s0.DownTime != 20 || s0.Fails != 1 || s0.Repairs != 1 {
		t.Fatalf("site 0 = %+v", s0)
	}
	if s0.Availability != 0.5 || s0.MTBF != 20 || s0.MTTR != 20 {
		t.Fatalf("site 0 derived = %+v", s0)
	}
	s1 := st.PerSite[1]
	if s1.UpTime != 40 || s1.DownTime != 0 || s1.Availability != 1 || s1.MTBF != 0 {
		t.Fatalf("site 1 = %+v", s1)
	}
	// Pooled rates: 1 failure over 60 site-up units, 1 repair over 20
	// site-down units.
	if got := st.Lambda; math.Abs(got-1.0/60) > 1e-12 {
		t.Fatalf("lambda = %v", got)
	}
	if got := st.Mu; math.Abs(got-1.0/20) > 1e-12 {
		t.Fatalf("mu = %v", got)
	}
	if got := st.Rho; math.Abs(got-20.0/60) > 1e-12 {
		t.Fatalf("rho = %v", got)
	}
	// Site 1 stayed up throughout: AC keeps the block accessible.
	if st.SystemAvailability != 1 || st.TotalFailures != 0 {
		t.Fatalf("system = %+v", st)
	}
	if st.OpAvailability != 0.75 || len(st.Ops) != 2 {
		t.Fatalf("ops = %+v", st.Ops)
	}
	if st.Ops[0].Op != "read" || st.Ops[1].Op != "write" || st.Ops[1].Failure != 1 {
		t.Fatalf("ops sorted = %+v", st.Ops)
	}
}

// TestTotalFailureRecoverySemantics checks the §3.2 vs §3.3 recovery
// rules: after all sites fail, AC heals when the last-failed site
// returns, naive only when every site is back.
func TestTotalFailureRecoverySemantics(t *testing.T) {
	// History: site 0 down at 10, site 1 down at 20 (total failure).
	// Site 1 (last failed) back at 35, site 0 back at 50. Horizon 60.
	run := func(scheme string) Stats {
		e, err := New(2, scheme)
		if err != nil {
			t.Fatal(err)
		}
		e.SiteDown(0, 10)
		e.SiteDown(1, 20)
		e.SiteUp(1, 35)
		e.SiteUp(0, 50)
		return e.Snapshot(60)
	}

	ac := run("available-copy")
	if ac.TotalFailures != 1 || len(ac.Recoveries) != 1 || ac.Recoveries[0] != 15 {
		t.Fatalf("AC recoveries = %+v", ac)
	}
	// Accessible except 20..35: availability 45/60.
	if math.Abs(ac.SystemAvailability-0.75) > 1e-12 {
		t.Fatalf("AC availability = %v", ac.SystemAvailability)
	}

	na := run("naive")
	if na.TotalFailures != 1 || len(na.Recoveries) != 1 || na.Recoveries[0] != 30 {
		t.Fatalf("naive recoveries = %+v", na)
	}
	// Naive waits for all sites: down 20..50, availability 30/60.
	if math.Abs(na.SystemAvailability-0.5) > 1e-12 {
		t.Fatalf("naive availability = %v", na.SystemAvailability)
	}

	// An unhealed window at the horizon counts but yields no recovery
	// sample.
	e, _ := New(2, "naive")
	e.SiteDown(0, 1)
	e.SiteDown(1, 2)
	st := e.Snapshot(10)
	if st.TotalFailures != 1 || len(st.Recoveries) != 0 || !st.InTotalFailure {
		t.Fatalf("open window = %+v", st)
	}
}

func TestDuplicateAndOutOfRangeTransitionsIgnored(t *testing.T) {
	e, err := New(2, "voting")
	if err != nil {
		t.Fatal(err)
	}
	e.SiteDown(0, 5)
	e.SiteDown(0, 6) // duplicate
	e.SiteDown(-1, 7)
	e.SiteDown(9, 7)
	e.SiteUp(0, 10)
	e.SiteUp(0, 11) // duplicate
	st := e.Snapshot(20)
	if st.Failures != 1 || st.Repairs != 1 {
		t.Fatalf("transitions = %+v", st)
	}
	// Voting with n=2: the tie (one site up) resolves by site 0's nudged
	// weight, so the 5..10 window (site 0 down) is unavailable.
	if math.Abs(st.SystemAvailability-0.75) > 1e-12 {
		t.Fatalf("availability = %v", st.SystemAvailability)
	}
}

// TestConvergesToMarkovPrediction replays a seeded §4 failure/repair
// process into the estimator and checks both that the measured rates
// recover the generator's (lambda, mu) and that the empirical
// availability converges to the Markov steady state at the measured
// rates — the core property the chaos conformance invariant relies on.
func TestConvergesToMarkovPrediction(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		n      int
	}{
		{"voting", 3}, {"voting", 5},
		{"available-copy", 3}, {"available-copy", 5},
		{"naive", 3}, {"naive", 5},
	} {
		e, err := New(tc.n, tc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		const (
			rho     = 0.2
			horizon = 30000.0
		)
		proc, err := sim.NewFailureProcess(tc.n, rho, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		for {
			ev, ok := proc.Next()
			if !ok || ev.At >= horizon {
				break
			}
			if ev.Kind == sim.EventFail {
				e.SiteDown(ev.Site, ev.At)
			} else {
				e.SiteUp(ev.Site, ev.At)
			}
		}
		st := e.Snapshot(horizon)

		if math.Abs(st.Rho-rho) > 0.03 {
			t.Errorf("%s/n=%d: measured rho %v, generator %v", tc.scheme, tc.n, st.Rho, rho)
		}
		rep, err := CheckConformance(st, 0.01, true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Errorf("%s/n=%d: %v", tc.scheme, tc.n, rep.Violations())
		}
		// Cross-check against the analytic value at the generator's rho.
		want, err := analysis.MarkovAvailability(mustScheme(t, tc.scheme), tc.n, rho, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.SystemAvailability-want) > 0.01 {
			t.Errorf("%s/n=%d: empirical %v vs analytic %v", tc.scheme, tc.n, st.SystemAvailability, want)
		}
	}
}

func mustScheme(t *testing.T, name string) analysis.Scheme {
	t.Helper()
	s, ok := obs.SchemeFromName(name)
	if !ok {
		t.Fatalf("SchemeFromName(%q)", name)
	}
	return s
}

func TestConformanceInsufficientDataIsVacuous(t *testing.T) {
	e, err := New(3, "voting")
	if err != nil {
		t.Fatal(err)
	}
	e.SiteDown(0, 1)
	e.SiteUp(0, 2)
	rep, err := CheckConformance(e.Snapshot(10), 0.001, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || len(rep.Checks) != 1 || rep.Checks[0].Note == "" {
		t.Fatalf("report = %+v", rep)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("violations = %v", v)
	}
}

func TestConformanceViolationReported(t *testing.T) {
	// Fabricate stats whose empirical availability cannot match the
	// prediction at the measured (tiny) rho.
	st := Stats{
		Scheme: "voting", Sites: 3, Horizon: 1000,
		Lambda: 0.01, Mu: 1, Rho: 0.01,
		Failures: 10, Repairs: 10,
		SystemAvailability: 0.5,
	}
	rep, err := CheckConformance(st, 0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("gross mismatch passed")
	}
	v := rep.Violations()
	if len(v) != 1 {
		t.Fatalf("violations = %v", v)
	}
}

func TestNonStrictWidensTolerance(t *testing.T) {
	st := Stats{
		Scheme: "naive", Sites: 3,
		Lambda: 0.1, Mu: 1, Rho: 0.1,
		Failures: 25, Repairs: 25,
		SystemAvailability: 0.9,
	}
	strict, err := CheckConformance(st, 1e-6, true)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := CheckConformance(st, 1e-6, false)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Checks[0].Tolerance <= strict.Checks[0].Tolerance {
		t.Fatalf("non-strict tolerance %v not wider than strict %v",
			loose.Checks[0].Tolerance, strict.Checks[0].Tolerance)
	}
}

// TestConcurrentFeedsRaceFree exercises the estimator under the race
// detector: concurrent transition, op and snapshot feeds.
func TestConcurrentFeedsRaceFree(t *testing.T) {
	e, err := New(4, "available-copy")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tm := float64(i)
				e.SiteDown(site, tm)
				e.Op("write", i%3 != 0)
				e.SiteUp(site, tm+0.5)
				if i%50 == 0 {
					_ = e.Snapshot(tm)
				}
			}
		}(g)
	}
	wg.Wait()
	st := e.Snapshot(300)
	if st.Failures == 0 || st.Repairs == 0 {
		t.Fatalf("no transitions recorded: %+v", st)
	}
}
