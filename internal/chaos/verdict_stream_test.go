package chaos

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"relidev/internal/core"
	"relidev/internal/obs/alert"
)

var (
	updateStream = flag.Bool("update", false, "rewrite testdata/verdict_stream.golden")
	streamOut    = flag.String("stream-out", "", "also write every run's full verdict stream into this directory")
)

// A verdict is one objective's outcome at one checkpoint, in the
// vocabulary both alert policies share: the raw condition, the latch
// (a threshold alert held by hysteresis, a burn-rate budget exhausted)
// and the measured value (the threshold's quantity, the budget spent),
// plus the two window burn rates of a burn-rate objective.
type verdict struct {
	name            string
	firing, latched bool
	value           float64
	burns           []float64
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// verdictsOf flattens one checkpoint's evaluation, thresholds first —
// the order the separate engines ran in. (The golden was captured with
// the since-deleted conformance drift objective left out.)
func verdictsOf(rep *alert.Report) []verdict {
	var out []verdict
	for _, policy := range []string{alert.PolicyThreshold, alert.PolicyBurn} {
		for _, s := range rep.View(policy).Objectives {
			v := verdict{name: s.Name, firing: s.Firing, latched: s.Latched, value: s.Value}
			if s.Burn != nil {
				v.burns = []float64{s.Burn.FastBurn, s.Burn.SlowBurn}
			}
			out = append(out, v)
		}
	}
	return out
}

// verdictStream runs cfg and returns every checkpoint's verdicts as
// lines, and the subset of lines where an objective's firing or latched
// state differs from its previous checkpoint.
func verdictStream(t *testing.T, cfg Config) (full, transitions []string) {
	t.Helper()
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string][2]bool{}
	e.onVerdict = func(rep *alert.Report) {
		for _, v := range verdictsOf(rep) {
			line := fmt.Sprintf("t=%d %s firing=%t latched=%t value=%s",
				e.clk.Now().UnixNano(), v.name, v.firing, v.latched, fmtFloat(v.value))
			for _, b := range v.burns {
				line += " burn=" + fmtFloat(b)
			}
			full = append(full, line)
			if now := [2]bool{v.firing, v.latched}; now != last[v.name] {
				last[v.name] = now
				transitions = append(transitions, line)
			}
		}
	}
	if _, err := e.finish(e.run(context.Background())); err != nil {
		t.Fatal(err)
	}
	return full, transitions
}

// TestVerdictStreamPinned is the safety net for "same alerts, one
// engine": at every checkpoint of the CI schedule (seed 7, 150 events,
// 4 ops per event) under each scheme, and of the degraded schedule of
// TestSLOAlertsFireAndClearDeterministically, every objective's
// (firing, latched, value) must equal what the separate health and SLO
// engines produced before they were merged. The golden file holds each
// run's transitions in full and a hash over every line.
func TestVerdictStreamPinned(t *testing.T) {
	ci := func(kind core.SchemeKind) Config {
		cfg := Defaults(kind)
		cfg.Seed, cfg.Events, cfg.OpsPerEvent = 7, 150, 4
		return cfg
	}
	degraded := Defaults(core.Voting)
	degraded.Seed, degraded.Events, degraded.OpsPerEvent, degraded.Rho, degraded.Coda = 11, 80, 6, 1.5, 8
	var got bytes.Buffer
	for _, run := range []struct {
		name string
		cfg  Config
	}{
		{"voting-ci", ci(core.Voting)},
		{"available-copy-ci", ci(core.AvailableCopy)},
		{"naive-ci", ci(core.NaiveAvailableCopy)},
		{"voting-degraded", degraded},
	} {
		full, transitions := verdictStream(t, run.cfg)
		all := strings.Join(full, "\n") + "\n"
		fmt.Fprintf(&got, "## %s: %d lines, sha256 %x\n%s\n", run.name, len(full),
			sha256.Sum256([]byte(all)), strings.Join(transitions, "\n"))
		if *streamOut != "" {
			if err := os.WriteFile(filepath.Join(*streamOut, run.name+".stream"), []byte(all), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	const path = "testdata/verdict_stream.golden"
	if *updateStream {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("verdict stream moved (diff the -stream-out files of both trees):\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
