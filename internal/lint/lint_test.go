package lint_test

import (
	"testing"

	"relidev/internal/lint"
	"relidev/internal/lint/linttest"
)

const testdata = "testdata"

func TestLockCheckFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/lockcheck/voting", lint.LockCheck)
}

// TestLockCheckSeededMutation is lockcheck's planted-bug test: fixture
// copies of availcopy.Write with the end not deferred and with the
// was-available reset hoisted above the acquisition must be flagged.
func TestLockCheckSeededMutation(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/lockcheck/availcopy", lint.LockCheck)
}

func TestLockCheckOutOfScope(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/lockcheck/outofscope", lint.LockCheck)
}

func TestLockCheckStoreFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/lockcheck/store", lint.LockCheck)
}

func TestDetCheckFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/detcheck/chaos", lint.DetCheck)
}

func TestDetCheckObsFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/detcheck/obs", lint.DetCheck)
}

func TestDetCheckStoreFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/detcheck/store", lint.DetCheck)
}

func TestDetCheckFlightFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/detcheck/flight", lint.DetCheck)
}

func TestDetCheckAlertFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/detcheck/alert", lint.DetCheck)
}

func TestDetCheckTsdbFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/detcheck/tsdb", lint.DetCheck)
}

func TestDetCheckClockFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/detcheck/clock", lint.DetCheck)
}

func TestDetCheckOutOfScope(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/detcheck/other", lint.DetCheck)
}

func TestTransportCheckWirePath(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/transportcheck/rpcnet", lint.TransportCheck)
}

func TestTransportCheckRepoWide(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/transportcheck/client", lint.TransportCheck)
}

func TestCtxCheckFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/ctxcheck/lib", lint.CtxCheck)
}

func TestCtxCheckMainPackage(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/ctxcheck/cmd", lint.CtxCheck)
}

func TestLeakCheckFixtures(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/leakcheck/lib", lint.LeakCheck)
}

// TestLeakCheckSeededMutation is leakcheck's planted-bug test: a
// fan-out that spawns its legs, with the WaitGroup join deleted, must
// be flagged.
func TestLeakCheckSeededMutation(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/leakcheck/fanout", lint.LeakCheck)
}

func TestLeakCheckMainPackage(t *testing.T) {
	linttest.Run(t, testdata, "fixtures/leakcheck/cmd", lint.LeakCheck)
}

// TestSuiteStable pins the analyzer roster: CI wiring and the DESIGN
// docs reference these names.
func TestSuiteStable(t *testing.T) {
	want := []string{"lockcheck", "detcheck", "transportcheck", "ctxcheck", "leakcheck"}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, an := range got {
		if an.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, an.Name, want[i])
		}
		if an.Topic == "" || an.Doc == "" || an.Run == nil {
			t.Errorf("analyzer %q is missing Topic/Doc/Run", an.Name)
		}
	}
}

// TestBareAllowDirective verifies that suppressions without a reason
// are themselves findings.
func TestBareAllowDirective(t *testing.T) {
	pkg := linttest.Load(t, testdata, "fixtures/detcheck/chaos")
	diags := lint.Run(pkg, nil)
	for _, d := range diags {
		t.Errorf("reasoned allow directives should not be flagged: %s", d)
	}
}
