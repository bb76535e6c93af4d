// Command chaos runs a seeded fault-injection schedule against a live
// in-process replica cluster and checks the paper's consistency claims
// as invariants. The same seed replays the same schedule bit-identically
// (compare the digest field); the exit status is non-zero when any
// invariant was violated.
//
// Usage:
//
//	chaos -scheme voting -seed 42 -events 1000
//	chaos -scheme ac -events 1000 -ops-per-event 8 -rho 0.3 -json
//	chaos -scheme nac -seed 7 -sites 6
//	chaos -scheme voting -metrics-out metrics.json
//	chaos -scheme ac -avail-out avail.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"relidev/internal/chaos"
	"relidev/internal/core"
)

func main() {
	var (
		schemeF    = flag.String("scheme", "voting", "scheme: voting, ac, nac")
		sites      = flag.Int("sites", 5, "number of replica sites")
		blocks     = flag.Int("blocks", 12, "device size in blocks")
		seed       = flag.Int64("seed", 1, "schedule seed (same seed = same run)")
		events     = flag.Int("events", 1000, "failure/repair events to apply")
		ops        = flag.Int("ops-per-event", 8, "workload operations between events")
		rho        = flag.Float64("rho", 0.25, "failure-to-repair rate ratio")
		asJSON     = flag.Bool("json", false, "emit the full report as JSON")
		observe    = flag.Bool("obs", true, "attach the observability layer and check §5 bracket conformance")
		metricsOut = flag.String("metrics-out", "", "write the metrics snapshot (JSON) to this file (implies -obs)")
		availOut   = flag.String("avail-out", "", "write the availability observatory stats and §4 conformance verdict (JSON) to this file (implies -obs)")
		flightF    = flag.Bool("flight", true, "attach the black-box flight recorder and the threshold objectives (requires -obs)")
		flightOut  = flag.String("flight-out", "", "write the sealed flight-recorder dump (JSON) to this file (implies -flight; dump is null unless a violation or a critical objective sealed it)")
		telemetryF = flag.Bool("telemetry", true, "attach the burn-rate objectives, evaluated at every checkpoint over a ring that spans the run (requires -obs)")
		sloOut     = flag.String("slo-out", "", "write the final SLO evaluation and the alert transition log (JSON) to this file (implies -telemetry; alerts are null on a quiet run)")
		coda       = flag.Int("coda", 4, "fault-free workload batches appended after convergence, so burn-rate alerts can clear inside the run")
	)
	flag.Parse()
	kind, err := parseScheme(*schemeF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	cfg := chaos.Config{
		Scheme:      kind,
		Sites:       *sites,
		Blocks:      *blocks,
		Seed:        *seed,
		Events:      *events,
		OpsPerEvent: *ops,
		Rho:         *rho,
		Observe:     *observe || *metricsOut != "" || *availOut != "",
		Flight:      *flightF || *flightOut != "",
		Telemetry:   *telemetryF || *sloOut != "",
		Coda:        *coda,
	}
	ok, err := run(os.Stdout, cfg, *asJSON, *metricsOut, *availOut, *flightOut, *sloOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

func run(w io.Writer, cfg chaos.Config, asJSON bool, metricsOut, availOut, flightOut, sloOut string) (bool, error) {
	rep, err := chaos.Run(context.Background(), cfg)
	if err != nil {
		return false, err
	}
	if metricsOut != "" {
		if err := writeMetrics(metricsOut, rep); err != nil {
			return false, err
		}
	}
	if availOut != "" {
		if err := writeAvail(availOut, rep); err != nil {
			return false, err
		}
	}
	if flightOut != "" {
		if err := writeFlight(flightOut, rep); err != nil {
			return false, err
		}
	}
	if sloOut != "" {
		if err := writeSLO(sloOut, rep); err != nil {
			return false, err
		}
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return false, err
		}
	} else {
		printReport(w, rep)
	}
	return len(rep.Violations) == 0, nil
}

// writeMetrics stores the run's metrics snapshot plus the conformance
// verdict as a standalone JSON artifact (the CI chaos job uploads it).
func writeMetrics(path string, rep *chaos.Report) error {
	if rep.Metrics == nil {
		return fmt.Errorf("no metrics collected (observability disabled)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Scheme      string      `json:"scheme"`
		Seed        int64       `json:"seed"`
		Digest      string      `json:"digest"`
		Conformance interface{} `json:"conformance,omitempty"`
		Metrics     interface{} `json:"metrics"`
	}{rep.Scheme, rep.Seed, rep.Digest, rep.Conformance, rep.Metrics})
}

// writeAvail stores the availability observatory's stats plus the §4
// Markov-conformance verdict as a standalone JSON artifact (the CI
// chaos job uploads it alongside the metrics snapshot).
func writeAvail(path string, rep *chaos.Report) error {
	if rep.Avail == nil {
		return fmt.Errorf("no availability stats collected (observability disabled)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Scheme      string      `json:"scheme"`
		Seed        int64       `json:"seed"`
		Digest      string      `json:"digest"`
		Avail       interface{} `json:"avail"`
		Conformance interface{} `json:"conformance,omitempty"`
	}{rep.Scheme, rep.Seed, rep.Digest, rep.Avail, rep.AvailConformance})
}

// writeFlight stores the sealed flight-recorder dump (plus the final
// health verdict) as a standalone JSON artifact. Unlike the other
// writers it succeeds on a healthy run — the dump is null when nothing
// triggered a seal — so the CI chaos job can upload it
// unconditionally and its mere presence does not imply failure.
func writeFlight(path string, rep *chaos.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Scheme string      `json:"scheme"`
		Seed   int64       `json:"seed"`
		Digest string      `json:"digest"`
		Health interface{} `json:"health,omitempty"`
		Flight interface{} `json:"flight"`
	}{rep.Scheme, rep.Seed, rep.Digest, rep.Health, rep.Flight})
}

// writeSLO stores the final SLO evaluation and the alert transition log
// as a standalone JSON artifact. Like the flight writer it succeeds on
// a quiet run — the alert log is null when nothing fired — so the CI
// chaos job can upload it unconditionally.
func writeSLO(path string, rep *chaos.Report) error {
	if rep.SLO == nil {
		return fmt.Errorf("no SLO report collected (telemetry disabled)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Scheme string      `json:"scheme"`
		Seed   int64       `json:"seed"`
		Digest string      `json:"digest"`
		SLO    interface{} `json:"slo"`
		Alerts interface{} `json:"alerts"`
	}{rep.Scheme, rep.Seed, rep.Digest, rep.SLO, rep.SLOAlerts})
}

func printReport(w io.Writer, rep *chaos.Report) {
	fmt.Fprintf(w, "chaos %-15s seed=%d sites=%d rho=%g\n", rep.Scheme, rep.Seed, rep.Sites, rep.Rho)
	fmt.Fprintf(w, "  events   %d applied (%d fails, %d repairs, %d skipped), %d total failure(s)\n",
		rep.EventsApplied, rep.Fails, rep.Repairs, rep.EventsSkipped, rep.TotalFailures)
	fmt.Fprintf(w, "  workload %d ops (%d reads, %d writes), %d failed under chaos\n",
		rep.Ops, rep.Reads, rep.Writes, rep.OpErrors)
	fmt.Fprintf(w, "  faults   %d drops, %d reply losses, %d timeouts, %d delays, %d partition hits\n",
		rep.Faults.Drops, rep.Faults.ReplyLosses, rep.Faults.Timeouts, rep.Faults.Delays, rep.Faults.Partitions)
	fmt.Fprintf(w, "  digest   %s\n", rep.Digest)
	if rep.Health != nil {
		latched := 0
		for _, s := range rep.Health.Objectives {
			if s.Latched {
				latched++
			}
		}
		fmt.Fprintf(w, "  health   %s (%d of %d objectives latched)\n", rep.Health.Overall, latched, len(rep.Health.Objectives))
	}
	if rep.Flight != nil {
		fmt.Fprintf(w, "  flight   sealed: %s (%d steps)\n", rep.Flight.Trigger, rep.Flight.Steps)
	}
	if rep.SLO != nil {
		fmt.Fprintf(w, "  slo      %s (%d firing, %d alert transitions over the run)\n",
			rep.SLO.Overall, rep.SLO.Firing, len(rep.SLOAlerts))
	}
	if rep.Conformance != nil {
		verdict := "OK"
		if !rep.Conformance.OK {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "  §5 conf  %s (%s, bracket mode", verdict, rep.Conformance.Mode)
		for _, c := range rep.Conformance.Checks {
			fmt.Fprintf(w, "; %s %.2f∈[%.0f,%.0f]", c.Op, c.Observed, c.Min, c.Max)
		}
		fmt.Fprintf(w, ")\n")
	}
	if rep.Avail != nil {
		fmt.Fprintf(w, "  §4 avail empirical %.4f (lambda=%.4f mu=%.4f rho=%.4f, %d total failures)",
			rep.Avail.SystemAvailability, rep.Avail.Lambda, rep.Avail.Mu, rep.Avail.Rho, rep.Avail.TotalFailures)
		if c := rep.AvailConformance; c != nil && len(c.Checks) > 0 {
			verdict := "OK"
			if !c.OK {
				verdict = "VIOLATED"
			}
			ck := c.Checks[0]
			if ck.Note != "" {
				fmt.Fprintf(w, " — %s (%s)", verdict, ck.Note)
			} else {
				fmt.Fprintf(w, " — %s (Markov predicts %.4f, tolerance %.4f)", verdict, ck.Predicted, ck.Tolerance)
			}
		}
		fmt.Fprintf(w, "\n")
	}
	if len(rep.Violations) == 0 {
		fmt.Fprintf(w, "  invariants OK\n")
		return
	}
	fmt.Fprintf(w, "  INVARIANT VIOLATIONS (%d):\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "    - %s\n", v)
	}
}

func parseScheme(name string) (core.SchemeKind, error) {
	switch name {
	case "voting":
		return core.Voting, nil
	case "ac", "available-copy":
		return core.AvailableCopy, nil
	case "nac", "naive":
		return core.NaiveAvailableCopy, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want voting, ac, or nac)", name)
	}
}
