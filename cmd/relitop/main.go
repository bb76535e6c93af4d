// Command relitop is a live, top-like dashboard over a relidev
// deployment's telemetry plane. Point it at any site's -debug-addr; on
// every refresh it scrapes /cluster/metrics (that site's TelemetryPull
// broadcast, merged into one cluster view) and /slo (the burn-rate
// evaluation) and renders per-scheme throughput, latency and
// critical-path phase breakdown, quorum margin, and the firing alerts.
//
// Usage:
//
//	relitop -addr http://127.0.0.1:9000            # live, refresh every 2s
//	relitop -addr http://127.0.0.1:9000 -once      # one frame, no ANSI (CI smoke)
//
// Rates are deltas between successive scrapes; the first frame (and
// -once mode) shows run totals only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"relidev/internal/obs"
	"relidev/internal/obs/alert"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:9000", "base URL of a site's debug surface (blockserver -debug-addr)")
		interval = flag.Duration("interval", 2*time.Second, "refresh cadence")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout")
		once     = flag.Bool("once", false, "render a single frame without ANSI control codes and exit")
	)
	flag.Parse()
	if err := run(os.Stdout, *addr, *interval, *timeout, *once); err != nil {
		fmt.Fprintln(os.Stderr, "relitop:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, addr string, interval, timeout time.Duration, once bool) error {
	client := &http.Client{Timeout: timeout}
	base := strings.TrimRight(addr, "/")
	cur, err := collect(client, base)
	if err != nil {
		return err
	}
	render(w, nil, cur)
	if once {
		return nil
	}
	for {
		time.Sleep(interval)
		next, err := collect(client, base)
		if err != nil {
			// A scrape miss is a blip, not a reason to tear the
			// dashboard down — keep the last frame and retry.
			fmt.Fprintf(w, "scrape failed: %v (retrying)\n", err)
			continue
		}
		fmt.Fprint(w, "\x1b[2J\x1b[H") // clear screen, home cursor
		render(w, cur, next)
		cur = next
	}
}

// A frame is one scrape of the telemetry plane.
type frame struct {
	at      time.Time
	metrics obs.Snapshot
	scrapes map[string]string // per-site scrape errors from the aggregator
	slo     *alert.Report     // nil when the deployment runs without SLOs
}

func collect(c *http.Client, base string) (*frame, error) {
	f := &frame{at: time.Now()}
	resp, err := c.Get(base + "/cluster/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/cluster/metrics: status %d", base, resp.StatusCode)
	}
	var view obs.ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("decode cluster metrics: %w", err)
	}
	f.metrics, f.scrapes = view.Metrics, view.Errors

	sresp, err := c.Get(base + "/slo")
	if err != nil {
		return nil, err
	}
	defer sresp.Body.Close()
	switch sresp.StatusCode {
	case http.StatusNotFound:
		// SLO engine disabled; the section stays off.
	case http.StatusOK, http.StatusServiceUnavailable:
		// 503 is an exhausted error budget, not a broken endpoint —
		// the report body is still the thing to show.
		var rep alert.Report
		if err := json.NewDecoder(sresp.Body).Decode(&rep); err != nil {
			return nil, fmt.Errorf("decode slo report: %w", err)
		}
		f.slo = &rep
	default:
		return nil, fmt.Errorf("%s/slo: status %d", base, sresp.StatusCode)
	}
	return f, nil
}

func render(w io.Writer, prev, cur *frame) {
	up, down, margin := siteCensus(cur)
	fmt.Fprintf(w, "relidev cluster — %d sites up, %d down (quorum margin %+d) — %s\n",
		up, down, margin, cur.at.Format(time.RFC3339))

	if cur.slo != nil {
		worst := 0.0
		for _, s := range cur.slo.Objectives {
			worst = max(worst, s.Value)
		}
		fmt.Fprintf(w, "slo: %d firing / %d objectives, overall %s, worst budget %.0f%% spent\n",
			cur.slo.Firing, len(cur.slo.Objectives), cur.slo.Overall, 100*worst)
		for _, s := range cur.slo.Objectives {
			if !s.Firing && !s.Latched {
				continue
			}
			state := "FIRING"
			if s.Latched {
				state = "EXHAUSTED"
			}
			fmt.Fprintf(w, "  ! %-40s %s  burn fast %.1fx slow %.1fx  budget %.0f%% spent\n",
				s.Name, state, s.Burn.FastBurn, s.Burn.SlowBurn, 100*s.Value)
		}
	}

	prof := obs.CriticalPathOf(cur.metrics)
	rates := opRates(prev, cur)
	fmt.Fprintf(w, "\n%-8s %-9s %9s %9s %7s %9s %9s  %s\n",
		"SCHEME", "OP", "OPS/S", "TOTAL", "FAIL", "P50", "P99", "PHASES")
	sort.Slice(prof.Ops, func(i, j int) bool {
		if prof.Ops[i].Scheme != prof.Ops[j].Scheme {
			return prof.Ops[i].Scheme < prof.Ops[j].Scheme
		}
		return prof.Ops[i].Op < prof.Ops[j].Op
	})
	fails := counterBy(cur.metrics, obs.MetricOpFailures, "scheme", "op")
	for _, op := range prof.Ops {
		key := op.Scheme + "/" + op.Op
		rate := "-"
		if r, ok := rates[key]; ok {
			rate = fmt.Sprintf("%.1f", r)
		}
		fmt.Fprintf(w, "%-8s %-9s %9s %9d %7d %9s %9s  %s\n",
			op.Scheme, op.Op, rate, op.Count, fails[key],
			fmtNs(op.P50Ns), fmtNs(op.P99Ns), phaseSummary(op.Phases))
	}

	if stale := counterBy(cur.metrics, obs.MetricStaleReads); stale[""] > 0 {
		fmt.Fprintf(w, "lazy refreshes: %d\n", stale[""])
	}
	if len(cur.scrapes) > 0 {
		keys := make([]string, 0, len(cur.scrapes))
		for k := range cur.scrapes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "\nscrape errors:\n")
		for _, k := range keys {
			fmt.Fprintf(w, "  %s: %s\n", k, cur.scrapes[k])
		}
	}
}

// siteCensus counts sites from the merged view (every distinct "site"
// label plus every site the scrape could not reach) and derives the
// quorum margin: reachable sites minus a majority of the whole census.
func siteCensus(f *frame) (up, down, margin int) {
	sites := map[string]bool{}
	forEachLabel(f.metrics, "site", func(s string) { sites[s] = true })
	for s := range f.scrapes {
		sites[s] = true
	}
	total := len(sites)
	down = len(f.scrapes)
	up = total - down
	margin = up - (total/2 + 1)
	return up, down, margin
}

func forEachLabel(s obs.Snapshot, label string, fn func(string)) {
	for _, c := range s.Counters {
		if v := c.Labels[label]; v != "" {
			fn(v)
		}
	}
	for _, g := range s.Gauges {
		if v := g.Labels[label]; v != "" {
			fn(v)
		}
	}
	for _, h := range s.Histograms {
		if v := h.Labels[label]; v != "" {
			fn(v)
		}
	}
}

// counterBy sums a counter family grouped by the given labels, keyed
// "l1/l2/..." (one ""-keyed total when no labels are given).
func counterBy(s obs.Snapshot, name string, labels ...string) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range s.Counters {
		if c.Name != name {
			continue
		}
		parts := make([]string, len(labels))
		for i, l := range labels {
			parts[i] = c.Labels[l]
		}
		out[strings.Join(parts, "/")] += c.Value
	}
	return out
}

// opRates computes completions per second per scheme/op between two
// frames; nil prev (first frame, -once) yields no rates.
func opRates(prev, cur *frame) map[string]float64 {
	if prev == nil {
		return nil
	}
	elapsed := cur.at.Sub(prev.at).Seconds()
	if elapsed <= 0 {
		return nil
	}
	before := counterBy(prev.metrics, obs.MetricOpCompletions, "scheme", "op")
	after := counterBy(cur.metrics, obs.MetricOpCompletions, "scheme", "op")
	rates := make(map[string]float64, len(after))
	for k, v := range after {
		rates[k] = float64(v-before[k]) / elapsed
	}
	return rates
}

// phaseSummary renders the top-level phases as "name share%" ordered by
// share, skipping sub-phases and dust under 1%.
func phaseSummary(phases []obs.PhaseStat) string {
	top := make([]obs.PhaseStat, 0, len(phases))
	for _, p := range phases {
		if !p.Sub && p.Share >= 0.01 {
			top = append(top, p)
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].Share > top[j].Share })
	parts := make([]string, len(top))
	for i, p := range top {
		parts[i] = fmt.Sprintf("%s %.0f%%", p.Phase, 100*p.Share)
	}
	return strings.Join(parts, " | ")
}

func fmtNs(ns float64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.1fms", ns/1e6)
	}
	return fmt.Sprintf("%.2fs", ns/1e9)
}
