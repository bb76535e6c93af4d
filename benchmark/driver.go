package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childTimeout is how long a run may take before it counts as hung. A
// run prints nothing until it ends, so silence and running look alike.
const childTimeout = 170 * time.Second

// runChild runs one workload once in a process of its own and returns
// its result line.
func runChild(o options, workload string, seed int64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-trace", strconv.Itoa(trace),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-dir", o.dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || res.Metrics == nil {
		if ctx.Err() != nil {
			runErr = fmt.Errorf("no result within %v", childTimeout)
		}
		return nil, fmt.Errorf("%s (seed %d, trace %d): %v\n%s", workload, seed, trace, runErr, stderr.String())
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s (seed %d, trace %d): %d of %d failed\n%s", workload, seed, trace, res.Failed, res.Attempted, stderr.String())
	}
	return &res, nil
}

// runAll runs both passes of every workload and prints every metric by
// name and unit, one column per workload.
func runAll(o options) error {
	var failures []error
	for trace, defs := range [][]def{endToEnd, perLayer} {
		cols := make([]*result, len(specs))
		for i, sp := range specs {
			res, err := runChild(o, sp.name, o.seed, trace)
			if err != nil {
				failures = append(failures, err)
			}
			cols[i] = res
		}
		fmt.Printf("%-34s %-6s", [...]string{"end to end", "per layer (traced pass)"}[trace], "unit")
		for _, sp := range specs {
			fmt.Printf(" %18s", sp.name)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-34s %-6s", d.Name, d.Unit)
			for _, res := range cols {
				if res == nil {
					fmt.Printf(" %18s", "-")
					continue
				}
				fmt.Printf(" %18s", strconv.FormatFloat(res.Metrics[d.Name].Value, 'f', 3, 64))
			}
			fmt.Println()
		}
		for _, row := range []struct {
			name string
			get  func(*result) int
		}{{"attempted", func(r *result) int { return r.Attempted }}, {"failed", func(r *result) int { return r.Failed }}} {
			fmt.Printf("%-34s %-6s", row.name, "count")
			for _, res := range cols {
				if res == nil {
					fmt.Printf(" %18s", "-")
					continue
				}
				fmt.Printf(" %18d", row.get(res))
			}
			fmt.Println()
		}
		fmt.Println()
	}
	return errors.Join(failures...)
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []boundedDef   `json:"end_to_end"`
	PerLayer   []def          `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedDef struct {
	def
	Bound float64 `json:"bound"`
}

// Bounds are at least minBound, and at most maxBound because the
// pipeline accepts no more.
const (
	minBound = 0.05
	maxBound = 0.25
)

// manifestFile is what -calibrate writes, in the root of the checkout.
const manifestFile = "BENCHMARK.json"

// calibrate measures how far runs of unchanged code lie apart and writes
// BENCHMARK.json with every end-to-end bound derived from that and from
// nothing else: three times the widest spread any gated workload showed
// (the distance between the quartiles of the N runs, as a share of their
// median), or one and a half times the widest gap between the medians of
// two halves of the runs (first/second, odd/even) if that is more,
// rounded up to a whole percent and held within [minBound, maxBound].
// Where the cap cuts the rule short the table says so. A metric whose
// spread or gap itself is beyond the cap cannot keep any bound the
// pipeline accepts: calibrate then writes nothing and names it, to be
// steadied or moved to perLayer.
func calibrate(o options) error {
	if o.calibrate < 6 {
		return errors.New("-calibrate needs at least 6 rounds")
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per round
	for round := 1; round <= o.calibrate; round++ {
		// Workloads take turns, so that a slow quarter of an hour is
		// shared by all of them.
		for _, sp := range specs {
			res, err := runChild(o, sp.name, o.seed-1+int64(round), 0)
			if err != nil {
				return err
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %s done\n", round, o.calibrate, sp.name)
		}
	}

	man := manifest{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"},
		RunSeconds: int(math.Round(o.seconds)), PerLayer: perLayer,
	}
	for _, sp := range gatedSpecs() {
		man.Workloads = append(man.Workloads, workloadDecl{sp.name, sp.why})
	}
	fmt.Printf("%d rounds, %g s each, seeds %d..%d\n", o.calibrate, o.seconds, o.seed, o.seed-1+int64(o.calibrate))
	fmt.Printf("%-18s %-14s %14s %8s %8s %8s\n", "workload", "metric", "median", "spread", "half gap", "odd/even")
	widest := 0.0
	var unkeepable []string
	for _, d := range endToEnd {
		need := 0.0
		for _, sp := range specs {
			xs := values[sp.name][d.Name]
			spread, halves, parity := spreadOf(xs), gapOf(xs[:len(xs)/2], xs[len(xs)/2:]), gapOf(everyOther(xs, 0), everyOther(xs, 1))
			note := ""
			if sp.ungated {
				note = "  (not gated)"
			} else {
				need = math.Max(need, math.Max(3*spread, 1.5*math.Max(halves, parity)))
				worst := math.Max(halves, parity)
				if d.Name != "setup_s" { // whose spread the pipeline does not check
					worst = math.Max(worst, spread)
				}
				if worst > maxBound {
					unkeepable = append(unkeepable, d.Name+" on "+sp.name)
				}
			}
			fmt.Printf("%-18s %-14s %14.4f %7.1f%% %7.1f%% %7.1f%%%s\n", sp.name, d.Name, median(xs), spread*100, halves*100, parity*100, note)
		}
		bound := math.Min(maxBound, math.Max(minBound, math.Ceil(need*100-1e-9)/100))
		note := ""
		if need > maxBound {
			note = fmt.Sprintf("  (the rule asks for %.0f%%; the pipeline takes no more than %.0f%%)", math.Ceil(need*100), maxBound*100)
		}
		widest = math.Max(widest, bound)
		fmt.Printf("%-18s %-14s bound %.2f%s\n\n", "", d.Name, bound, note)
		man.EndToEnd = append(man.EndToEnd, boundedDef{d, bound})
	}
	// The pipeline's contract: set-up, the shortest thing timed, gets the
	// widest bound any metric has.
	for i := range man.EndToEnd {
		if man.EndToEnd[i].Name == "setup_s" {
			man.EndToEnd[i].Bound = widest
		}
	}
	if len(unkeepable) > 0 {
		return fmt.Errorf("%s not written: unchanged code moved these by more than %.0f%%: %s", manifestFile, maxBound*100, strings.Join(unkeepable, ", "))
	}
	out, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(manifestFile, append(out, '\n'), 0o644)
}

// spreadOf is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives.
func spreadOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// gapOf is how far the medians of two sets of runs lie apart.
func gapOf(a, b []float64) float64 {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0
	}
	return math.Abs(mb-ma) / ma
}

func everyOther(xs []float64, from int) []float64 {
	var out []float64
	for i := from; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}
