package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relidev/internal/chaos"
)

func testConfig(t *testing.T, scheme string, seed int64, events, ops int) chaos.Config {
	t.Helper()
	kind, err := parseScheme(scheme)
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
		Observe:     true,
	}
}

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range []string{"voting", "ac", "nac"} {
		var buf bytes.Buffer
		ok, err := run(&buf, testConfig(t, scheme, 3, 40, 4), false, "", "", "", "")
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
		if !strings.Contains(buf.String(), "§4 avail empirical") {
			t.Fatalf("%s: report missing availability line:\n%s", scheme, buf.String())
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	ok, err := run(&buf, testConfig(t, "voting", 3, 20, 2), true, "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("violations:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"digest"`) {
		t.Fatalf("JSON output missing digest:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"conformance"`) {
		t.Fatalf("JSON output missing conformance:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"avail_conformance"`) {
		t.Fatalf("JSON output missing availability conformance:\n%s", buf.String())
	}
}

func TestRunDigestStableAcrossInvocations(t *testing.T) {
	digest := func() string {
		var buf bytes.Buffer
		if _, err := run(&buf, testConfig(t, "voting", 11, 30, 4), true, "", "", "", ""); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("reports diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestRunWritesMetricsArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	ok, err := run(&buf, testConfig(t, "ac", 3, 30, 4), false, path, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("violations:\n%s", buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Scheme      string          `json:"scheme"`
		Digest      string          `json:"digest"`
		Conformance json.RawMessage `json:"conformance"`
		Metrics     json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatalf("artifact is not JSON: %v\n%s", err, raw)
	}
	if artifact.Scheme != "available-copy" || artifact.Digest == "" {
		t.Fatalf("artifact header incomplete: %+v", artifact)
	}
	if len(artifact.Conformance) == 0 || len(artifact.Metrics) == 0 {
		t.Fatalf("artifact missing conformance/metrics sections:\n%s", raw)
	}
}

func TestRunMetricsOutRequiresObservation(t *testing.T) {
	cfg := testConfig(t, "voting", 3, 10, 2)
	cfg.Observe = false
	path := filepath.Join(t.TempDir(), "metrics.json")
	if _, err := run(&bytes.Buffer{}, cfg, false, path, "", "", ""); err == nil {
		t.Fatal("metrics-out accepted without observation")
	}
}

func TestParseSchemeRejectsUnknown(t *testing.T) {
	if _, err := parseScheme("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRunWritesAvailArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "avail.json")
	var buf bytes.Buffer
	ok, err := run(&buf, testConfig(t, "nac", 3, 60, 4), false, "", path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("violations:\n%s", buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Scheme string `json:"scheme"`
		Digest string `json:"digest"`
		Avail  *struct {
			Failures uint64 `json:"failures"`
			Repairs  uint64 `json:"repairs"`
		} `json:"avail"`
		Conformance *struct {
			OK bool `json:"ok"`
		} `json:"conformance"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatalf("artifact is not JSON: %v\n%s", err, raw)
	}
	if artifact.Scheme != "naive" || artifact.Digest == "" {
		t.Fatalf("artifact header incomplete: %+v", artifact)
	}
	if artifact.Avail == nil || artifact.Avail.Failures == 0 {
		t.Fatalf("artifact missing estimator stats:\n%s", raw)
	}
	if artifact.Conformance == nil || !artifact.Conformance.OK {
		t.Fatalf("artifact missing passing §4 verdict:\n%s", raw)
	}
}

func TestRunWritesSLOArtifact(t *testing.T) {
	cfg := testConfig(t, "voting", 3, 60, 4)
	cfg.Telemetry = true
	path := filepath.Join(t.TempDir(), "slo.json")
	var buf bytes.Buffer
	ok, err := run(&buf, cfg, false, "", "", "", path)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("violations:\n%s", buf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Scheme string `json:"scheme"`
		Digest string `json:"digest"`
		SLO    *struct {
			Overall string `json:"overall"`
			SLOs    []struct {
				Name string `json:"name"`
			} `json:"objectives"`
		} `json:"slo"`
		Alerts json.RawMessage `json:"alerts"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatalf("artifact is not JSON: %v\n%s", err, raw)
	}
	if artifact.Scheme != "voting" || artifact.Digest == "" {
		t.Fatalf("artifact header incomplete: %+v", artifact)
	}
	if artifact.SLO == nil || len(artifact.SLO.SLOs) == 0 {
		t.Fatalf("artifact missing the SLO evaluation:\n%s", raw)
	}
	// The alerts key is always present — null on a quiet run — so its
	// absence in an upload means the writer broke, not that all was well.
	if len(artifact.Alerts) == 0 {
		t.Fatalf("artifact missing the alerts key:\n%s", raw)
	}
}

func TestRunSLOOutRequiresTelemetry(t *testing.T) {
	cfg := testConfig(t, "voting", 3, 10, 2)
	path := filepath.Join(t.TempDir(), "slo.json")
	if _, err := run(&bytes.Buffer{}, cfg, false, "", "", "", path); err == nil {
		t.Fatal("slo-out accepted without telemetry enabled")
	}
}

func TestRunAvailOutRequiresObservation(t *testing.T) {
	cfg := testConfig(t, "voting", 3, 10, 2)
	cfg.Observe = false
	path := filepath.Join(t.TempDir(), "avail.json")
	if _, err := run(&bytes.Buffer{}, cfg, false, "", path, "", ""); err == nil {
		t.Fatal("avail-out accepted without observation")
	}
}

// TestReportBytesPinned pins the whole -json report — metrics, alerts
// and flight dump, not only the digest — of the CI schedule (`chaos
// -scheme=S -seed=7 -events=150 -ops-per-event=4 -json`): a refactor
// must leave every trace event, metric and verdict where it was. The
// hashes moved deliberately when the health and SLO engines became one
// alert engine (report shape of health/slo, the flight dump as a sealed
// view, conformance drift deleted) and when background repair was
// retired (each report is the one the repair-off run gave, less the
// op="repair" series and the repair conformance row), and when faultnet
// lost its crash windows (each report less its `"CrashBlocks": 0` line,
// the only difference); what the first
// may not touch is pinned by the test below, and the verdicts
// themselves by internal/chaos TestVerdictStreamPinned.
func TestReportBytesPinned(t *testing.T) {
	for scheme, want := range map[string]string{
		"voting": "d2c0519e92dfe8fb8ada5c817b1949661f3ffed5a44d67a332ba3ade479b2acb",
		"ac":     "f5b4c746800aba174a06f579ddc9f07122a1141598b7620cf56784d1d540a75b",
		"nac":    "0b131f4552c64c5776385e80fcb42d7b821f46a8f24ef70cd47b4c42accb5c29",
	} {
		cfg := testConfig(t, scheme, 7, 150, 4)
		cfg.Sites, cfg.Blocks = 5, 12 // the command's flag defaults
		cfg.Flight, cfg.Telemetry, cfg.Coda = true, true, 4
		var buf bytes.Buffer
		if _, err := run(&buf, cfg, true, "", "", "", ""); err != nil {
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
// when background repair was retired and when faultnet's Stats lost
// CrashBlocks): schedule, digest, metrics,
// conformance and availability do not depend on how alerts are
// evaluated, so this hash must not move when the sections above change
// shape.
func TestReportBytesPinnedWithoutAlerts(t *testing.T) {
	for scheme, want := range map[string]string{
		"voting": "60489b78a1742344f552758defbe33b2a9d44196814a2da651b08de065f03339",
		"ac":     "0597a73be74e88ab8cb46e159d33dedec93e41a84f8e609c8e30859edea06c0c",
		"nac":    "9e9638d6a3423e566a252dc49e68c3fce6d119b15c6b2726828209a0b1d52608",
	} {
		cfg := testConfig(t, scheme, 7, 150, 4)
		cfg.Sites, cfg.Blocks = 5, 12
		cfg.Flight, cfg.Telemetry, cfg.Coda = true, true, 4
		var buf bytes.Buffer
		if _, err := run(&buf, cfg, true, "", "", "", ""); err != nil {
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
