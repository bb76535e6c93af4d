package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"relidev/internal/chaos"
	"relidev/internal/core"
)

func testConfig(t *testing.T, scheme string, seed int64, events, ops int) chaos.Config {
	t.Helper()
	kind, err := core.ParseScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return chaos.Config{
		Scheme:      kind,
		Sites:       4,
		Blocks:      8,
		Seed:        seed,
		Events:      events,
		OpsPerEvent: ops,
		Rho:         0.25,
	}
}

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range []string{"voting", "ac", "nac"} {
		var buf bytes.Buffer
		ok, err := run(&buf, nil, testConfig(t, scheme, 3, 40, 4), false)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !ok {
			t.Fatalf("%s: invariant violations:\n%s", scheme, buf.String())
		}
		if !strings.Contains(buf.String(), "invariants OK") {
			t.Fatalf("%s: unexpected output:\n%s", scheme, buf.String())
		}
		if !strings.Contains(buf.String(), "§5 conf  OK") {
			t.Fatalf("%s: report missing conformance line:\n%s", scheme, buf.String())
		}
	}
}

// TestRunJSONOutput: -json writes the whole report — every section the
// invariants are judged from, not a slice of it — to the first writer
// as one JSON document, and the summary to the second.
func TestRunJSONOutput(t *testing.T) {
	var out, summary bytes.Buffer
	ok, err := run(&out, &summary, testConfig(t, "voting", 3, 20, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("violations:\n%s", summary.String())
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not one JSON document: %v\n%s", err, out.String())
	}
	for _, k := range []string{"digest", "metrics", "conformance", "health", "slo"} {
		if len(rep[k]) == 0 || string(rep[k]) == "null" {
			t.Errorf("JSON report missing %q", k)
		}
	}
	if !strings.Contains(summary.String(), "invariants OK") {
		t.Fatalf("summary did not reach the second writer:\n%s", summary.String())
	}
}

func TestRunDigestStableAcrossInvocations(t *testing.T) {
	digest := func() string {
		var buf bytes.Buffer
		if _, err := run(&buf, io.Discard, testConfig(t, "voting", 11, 30, 4), true); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("reports diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestParseSchemeRejectsUnknown(t *testing.T) {
	if _, err := core.ParseScheme("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestReportBytesPinned pins the whole -json report — metrics, alerts
// and flight dump, not only the digest — of the CI schedule (`chaos
// -scheme=S -seed=7 -events=150 -ops-per-event=4 -json`, the bytes
// `make chaos-short` writes to artifacts/chaos-S.json): a refactor
// must leave every trace event, metric and verdict where it was. The
// hashes moved deliberately when the health and SLO engines became one
// alert engine (report shape of health/slo, the flight dump as a sealed
// view, conformance drift deleted) and when background repair was
// retired (each report is the one the repair-off run gave, less the
// op="repair" series and the repair conformance row), when faultnet
// lost its crash windows (each report less its `"CrashBlocks": 0` line,
// the only difference), and when the availability estimator was
// retired (each report less its "avail" and "avail_conformance"
// sections, the only difference); what the first may not touch is
// pinned by the test below, and the verdicts themselves by
// internal/chaos TestVerdictStreamPinned.
func TestReportBytesPinned(t *testing.T) {
	for scheme, want := range map[string]string{
		"voting": "3d372fa528c9f74c07a616d32aeb0b3d43c52acca0abaeeb58d321fc3a650a45",
		"ac":     "edafac76856ca3af1d58d92804a8bdd2861dc45e5c5cab4387bdd9bf4f9b7352",
		"nac":    "59015a59572b629fe29d94739fdba2014a691312650a254f0637520752efaeee",
	} {
		cfg := testConfig(t, scheme, 7, 150, 4)
		cfg.Sites, cfg.Blocks = 5, 12 // the command's flag defaults
		cfg.Coda = 4
		var buf bytes.Buffer
		if _, err := run(&buf, io.Discard, cfg, true); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s: report sha256 = %s, want %s", scheme, got, want)
		}
	}
}

// TestReportBytesPinnedWithoutAlerts pins the same three reports with
// the alert-engine sections (health, slo, slo_alerts, flight) cut out,
// to the bytes captured before the two engines were merged (re-captured
// when background repair was retired, when faultnet's Stats lost
// CrashBlocks and when the availability estimator's sections were
// deleted): schedule, digest, metrics and conformance do not depend on
// how alerts are evaluated, so this hash must not move when the
// sections above change shape.
func TestReportBytesPinnedWithoutAlerts(t *testing.T) {
	for scheme, want := range map[string]string{
		"voting": "8fb5ca4389f72e2c91cba8c2362d338a47819c2801a3788691cc3d450e5b0429",
		"ac":     "c4e521a34b007632558c6c7e9c46b7c84c22c2b4e349364d2ff18e0152ca6ee2",
		"nac":    "10ae1b73fc5f8bd7724e0b4b9d9529464793df63de38a4bb38ba83be00fe0827",
	} {
		cfg := testConfig(t, scheme, 7, 150, 4)
		cfg.Sites, cfg.Blocks = 5, 12
		cfg.Coda = 4
		var buf bytes.Buffer
		if _, err := run(&buf, io.Discard, cfg, true); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		var rep map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		// slo_alerts and flight are absent from a run that never paged.
		for _, k := range []string{"health", "slo", "slo_alerts", "flight"} {
			if _, ok := rep[k]; !ok && (k == "health" || k == "slo") {
				t.Errorf("%s: report has no %q section to cut", scheme, k)
			}
			delete(rep, k)
		}
		stripped, err := json.Marshal(rep) // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(stripped)); got != want {
			t.Errorf("%s: stripped report sha256 = %s, want %s", scheme, got, want)
		}
	}
}
