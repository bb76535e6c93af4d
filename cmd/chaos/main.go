// Command chaos runs a seeded fault-injection schedule against a live
// in-process replica cluster and checks the paper's consistency claims
// — including the §4 refinement of the scheme's availability state
// machine, §5 traffic conformance and the clean-run SLO invariants — on
// every run. The same seed replays the same schedule bit-identically
// (compare the digest field); the exit status is non-zero when any
// invariant was violated.
//
// Usage:
//
//	chaos -scheme voting -seed 42 -events 1000
//	chaos -scheme nac -seed 7 -sites 6
//	chaos -scheme ac -events 1000 -ops-per-event 8 -rho 0.3 -json > report.json
//
// With -json the whole report — metrics, the §5 conformance verdict,
// health, SLO evaluation and alert log, sealed flight dump —
// goes to stdout as one JSON document and the summary to stderr.
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
		schemeF = flag.String("scheme", "voting", "scheme: voting, ac (available-copy), nac (naive)")
		sites   = flag.Int("sites", 5, "number of replica sites")
		blocks  = flag.Int("blocks", 12, "device size in blocks")
		seed    = flag.Int64("seed", 1, "schedule seed (same seed = same run)")
		events  = flag.Int("events", 1000, "failure/repair events to apply")
		ops     = flag.Int("ops-per-event", 8, "workload operations between events")
		rho     = flag.Float64("rho", 0.25, "failure-to-repair rate ratio")
		asJSON  = flag.Bool("json", false, "write the whole report as JSON to stdout and the summary to stderr")
		coda    = flag.Int("coda", 4, "fault-free workload batches appended after convergence, so burn-rate alerts can clear inside the run")
	)
	flag.Parse()
	kind, err := core.ParseScheme(*schemeF)
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
		Coda:        *coda,
	}
	ok, err := run(os.Stdout, os.Stderr, cfg, *asJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

// run executes one schedule. The summary goes to w, unless asJSON puts
// the whole report there and the summary on summary. ok is false when
// an invariant was violated.
func run(w, summary io.Writer, cfg chaos.Config, asJSON bool) (ok bool, err error) {
	rep, err := chaos.Run(context.Background(), cfg)
	if err != nil {
		return false, err
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return false, err
		}
		w = summary
	}
	printReport(w, rep)
	return len(rep.Violations) == 0, nil
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
	latched := 0
	for _, s := range rep.Health.Objectives {
		if s.Latched {
			latched++
		}
	}
	fmt.Fprintf(w, "  health   %s (%d of %d objectives latched)\n", rep.Health.Overall, latched, len(rep.Health.Objectives))
	if rep.Flight != nil {
		fmt.Fprintf(w, "  flight   sealed: %s (%d steps)\n", rep.Flight.Trigger, rep.Flight.Steps)
	}
	fmt.Fprintf(w, "  slo      %s (%d firing, %d alert transitions over the run)\n",
		rep.SLO.Overall, rep.SLO.Firing, len(rep.SLOAlerts))
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
	if len(rep.Violations) == 0 {
		fmt.Fprintf(w, "  invariants OK\n")
		return
	}
	fmt.Fprintf(w, "  INVARIANT VIOLATIONS (%d):\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "    - %s\n", v)
	}
}
