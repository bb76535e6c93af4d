package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestRunAvailabilityAllSchemes(t *testing.T) {
	for _, scheme := range []string{"voting", "ac", "naive"} {
		if err := run(io.Discard, false, "availability", scheme, 3, 0.1, 5000, "multicast", 0, 0, 1); err != nil {
			t.Fatalf("availability %s: %v", scheme, err)
		}
	}
}

func TestRunTrafficAllSchemes(t *testing.T) {
	for _, scheme := range []string{"voting", "ac", "naive"} {
		for _, net := range []string{"multicast", "unicast"} {
			if err := run(io.Discard, false, "traffic", scheme, 4, 0.05, 0, net, 300, 2.5, 1); err != nil {
				t.Fatalf("traffic %s/%s: %v", scheme, net, err)
			}
		}
	}
	// The text reports of `simulate -kind traffic -sites 5 -ops 3000
	// -seed 3`, one per scheme, pin the workload generator's two seeded
	// streams (block indices and op kinds) and every count they drive.
	var buf bytes.Buffer
	for _, scheme := range []string{"voting", "ac", "naive"} {
		if err := run(&buf, false, "traffic", scheme, 5, 0.05, 0, "multicast", 3000, 2.5, 3); err != nil {
			t.Fatalf("traffic %s: %v", scheme, err)
		}
	}
	const want = "638bd611064af67ceb9567b91a391af19e4ad457dad2750250951dd837b1cfc9"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("traffic reports sha256 = %s, want %s\n%s", got, want, buf.String())
	}
}

// TestRunTrafficJSONCarriesObservability pins the machine-readable
// report shape: the metrics snapshot and the §5 bracket conformance
// verdict ride along with the measured traffic.
func TestRunTrafficJSONCarriesObservability(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, true, "traffic", "voting", 4, 0.05, 0, "multicast", 300, 2.5, 1); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Kind        string `json:"kind"`
		Scheme      string `json:"scheme"`
		Conformance *struct {
			OK     bool `json:"ok"`
			Strict bool `json:"strict"`
		} `json:"conformance"`
		Metrics *struct {
			Counters []json.RawMessage `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if rep.Kind != "traffic" || rep.Scheme != "voting" {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Conformance == nil || !rep.Conformance.OK || rep.Conformance.Strict {
		t.Fatalf("conformance verdict: %+v\n%s", rep.Conformance, buf.String())
	}
	if rep.Metrics == nil || len(rep.Metrics.Counters) == 0 {
		t.Fatal("metrics snapshot missing or empty")
	}
}

func TestRunAvailabilityJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, true, "availability", "ac", 3, 0.1, 5000, "multicast", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"analytic_availability"`) {
		t.Fatalf("availability JSON incomplete:\n%s", buf.String())
	}
}

func TestRunRepairOrder(t *testing.T) {
	if err := runRepairOrder(3, 0.3, 1, 20000, 1); err != nil {
		t.Fatal(err)
	}
	if err := runRepairOrder(3, 0.3, 8, 20000, 1); err != nil {
		t.Fatal(err)
	}
	if err := runRepairOrder(3, 0.3, 0, 20000, 1); err == nil {
		t.Fatal("shape 0 accepted")
	}
	if err := runRepairOrder(1, 0.3, 1, 20000, 1); err == nil {
		t.Fatal("single site accepted")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(io.Discard, false, "nope", "ac", 3, 0.1, 100, "multicast", 0, 0, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := run(io.Discard, false, "availability", "nope", 3, 0.1, 100, "multicast", 0, 0, 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := run(io.Discard, false, "traffic", "ac", 3, 0.1, 100, "carrier-pigeon", 100, 2, 1); err == nil {
		t.Fatal("unknown network accepted")
	}
	if err := run(io.Discard, false, "traffic", "nope", 3, 0.1, 100, "multicast", 100, 2, 1); err == nil {
		t.Fatal("unknown traffic scheme accepted")
	}
	if err := run(io.Discard, false, "availability", "ac", 0, 0.1, 100, "multicast", 0, 0, 1); err == nil {
		t.Fatal("zero sites accepted")
	}
}
