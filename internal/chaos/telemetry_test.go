package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"relidev/internal/core"
)

// TestSLOAlertsFireAndClearDeterministically is the acceptance claim
// for burn-rate alerting: a schedule with heavy injected degradation
// (voting under high churn loses its quorum routinely) makes the write
// availability objective fire, the fault-free coda lets it clear, and
// both transitions carry identical schedule-clock timestamps on
// replay.
func TestSLOAlertsFireAndClearDeterministically(t *testing.T) {
	cfg := Defaults(core.Voting)
	cfg.Seed = 11
	cfg.Events = 80
	cfg.OpsPerEvent = 6
	cfg.Rho = 1.5
	cfg.Coda = 8

	a := run(t, cfg)
	b := run(t, cfg)

	if len(a.SLOAlerts) == 0 {
		t.Fatal("heavy degradation fired no burn-rate alerts")
	}
	var fired, cleared bool
	for _, al := range a.SLOAlerts {
		if al.FiredAtNs <= 0 {
			t.Fatalf("alert %q has no fire timestamp: %+v", al.Name, al)
		}
		if strings.HasPrefix(al.Name, "write_availability_") {
			fired = true
			if al.ClearedAtNs > 0 {
				cleared = true
				if al.ClearedAtNs <= al.FiredAtNs {
					t.Fatalf("alert cleared before it fired: %+v", al)
				}
			}
		}
	}
	if !fired {
		t.Fatalf("write availability never fired under quorum loss: %+v", a.SLOAlerts)
	}
	if !cleared {
		t.Fatalf("the fault-free coda never cleared the availability alert: %+v", a.SLOAlerts)
	}

	// Replay: the full transition log and the final evaluation are
	// bit-identical — timestamps included, because the clock moves only
	// at schedule points.
	if !reflect.DeepEqual(a.SLOAlerts, b.SLOAlerts) {
		t.Fatalf("alert logs diverged:\n%+v\n---\n%+v", a.SLOAlerts, b.SLOAlerts)
	}
	aj, err := json.Marshal(a.SLO)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.SLO)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("final SLO reports diverged:\n%s\n---\n%s", aj, bj)
	}
}

// TestSLOQuietRunNoAlerts: a gentle schedule on a loss-free menu — few
// events, light churn — must end with an empty alert log. The burn-rate
// thresholds exist to page on sustained degradation, not on the routine
// noise of a healthy cluster.
func TestSLOQuietRunNoAlerts(t *testing.T) {
	cfg := Defaults(core.AvailableCopy)
	cfg.Seed = 3
	cfg.Events = 8
	cfg.OpsPerEvent = 8
	cfg.Rho = 0.05
	rep := run(t, cfg)
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if len(rep.SLOAlerts) != 0 {
		t.Fatalf("quiet run fired alerts: %+v", rep.SLOAlerts)
	}
	if rep.SLO == nil || rep.SLO.Firing != 0 {
		t.Fatalf("quiet run ends firing: %+v", rep.SLO)
	}
}
