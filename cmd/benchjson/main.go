// Command benchjson converts `go test -bench` text output into
// machine-readable JSON, so runs can be archived and diffed (see
// BENCH_history.json).
//
// Usage:
//
//	go test -run='^$' -bench=OpenSeg ./internal/store | benchjson -o run.json
//	go test -run='^$' -bench=OpenSeg -benchmem ./internal/store | benchjson ...
//	                               also records B/op and allocs/op
//	benchjson bench.txt            read from a file instead of stdin
//	benchjson -baseline prior-run.json ...
//	                               diff against a prior report: print
//	                               per-benchmark speedup ratios
//	benchjson -history BENCH_history.json -label "$(git rev-parse --short HEAD)" ...
//	                               append this run (normalized, stamped,
//	                               labelled) to a history file, so trends
//	                               survive individual report overwrites
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	out := flag.String("o", "", "output path (default stdout)")
	basePath := flag.String("baseline", "", "prior report (a -o file) to diff against: prints per-benchmark speedup ratios")
	histPath := flag.String("history", "", "history file to append this run to (created when missing)")
	label := flag.String("label", "", "run label recorded in the history entry (e.g. a git revision)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	results, err := parse(in)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(report{Benchmarks: results}, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	if *basePath != "" {
		base, err := loadReport(*basePath)
		if err != nil {
			fatal(err)
		}
		diff(os.Stdout, base.Benchmarks, results)
	}
	if *histPath != "" {
		if err := appendHistory(*histPath, *label, time.Now().UTC(), results); err != nil {
			fatal(err)
		}
	}
}

// A historyEntry is one archived run inside a -history file, which is
// a JSON array of entries ordered by append time.
type historyEntry struct {
	At    string `json:"at"`
	Label string `json:"label,omitempty"`
	// NonTestLOC is `make loc` at the labelled revision, written by hand
	// and kept here so an append does not drop it (ROADMAP item 5).
	NonTestLOC int      `json:"non_test_loc,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

// appendHistory loads the history file (missing means empty), appends
// one stamped entry with this run's normalized results, and writes the
// whole array back.
func appendHistory(path, label string, at time.Time, results []result) error {
	var hist []historyEntry
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &hist); err != nil {
			return fmt.Errorf("%s: not a history file: %v", path, err)
		}
	case os.IsNotExist(err):
	default:
		return err
	}
	hist = append(hist, historyEntry{
		At:         at.Format(time.RFC3339),
		Label:      label,
		Benchmarks: results,
	})
	out, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// loadReport reads a previously written benchjson report.
func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return report{}, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// diff prints one line per current benchmark with a speedup ratio
// against the baseline run, matching entries by full name. Speedup is
// in throughput terms (>1 means the current run is faster), computed
// from ops/sec when both runs report it and from ns/op otherwise.
func diff(w io.Writer, baseline, current []result) {
	byName := make(map[string]result, len(baseline))
	for _, r := range baseline {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-55s %14s %14s %9s\n", "benchmark", "baseline", "current", "speedup")
	for _, cur := range current {
		base, ok := byName[cur.Name]
		if !ok {
			fmt.Fprintf(w, "%-55s %14s %14s %9s\n", cur.Name, "-", metric(cur), "new")
			continue
		}
		var ratio float64
		switch {
		case base.OpsPerSec > 0 && cur.OpsPerSec > 0:
			ratio = cur.OpsPerSec / base.OpsPerSec
		case base.NsPerOp > 0 && cur.NsPerOp > 0:
			ratio = base.NsPerOp / cur.NsPerOp
		default:
			fmt.Fprintf(w, "%-55s %14s %14s %9s\n", cur.Name, metric(base), metric(cur), "?")
			continue
		}
		fmt.Fprintf(w, "%-55s %14s %14s %8.2fx\n", cur.Name, metric(base), metric(cur), ratio)
	}
}

// metric renders a result's headline number: ops/sec when reported,
// ns/op otherwise.
func metric(r result) string {
	if r.OpsPerSec > 0 {
		return fmt.Sprintf("%.1f op/s", r.OpsPerSec)
	}
	return fmt.Sprintf("%.0f ns/op", r.NsPerOp)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

type report struct {
	Benchmarks []result `json:"benchmarks"`
}

// result is one benchmark line, decomposed. Scheme, Sites and Latency
// are filled in when the sub-benchmark name follows the
// <scheme>/n<sites>[/lat<...>] convention; older history entries carry
// them, and appendHistory rewrites the whole file through this type.
type result struct {
	Name       string  `json:"name"`
	Benchmark  string  `json:"benchmark"`
	Scheme     string  `json:"scheme,omitempty"`
	Sites      int     `json:"sites,omitempty"`
	Latency    string  `json:"latency,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec,omitempty"`
	// BytesPerOp and AllocsPerOp are the -benchmem columns; nil when the
	// run was made without the flag, so a measured zero stays a zero.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
}

func parse(in io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		r, ok := parseLine(sc.Text())
		if ok {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return out, nil
}

// parseLine decodes one `go test -bench` result line, with or without
// the two -benchmem columns:
//
//	BenchmarkOpenSeg-1  100  9000 ns/op  111.7 ops/sec  22128 B/op  287 allocs/op
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	var r result
	r.Name = trimProcs(fields[0])
	var err error
	if _, e := fmt.Sscan(fields[1], &r.Iterations); e != nil {
		return result{}, false
	}
	// The remainder alternates value / unit.
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err = fmt.Sscan(fields[i], &v); err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "ops/sec":
			r.OpsPerSec = v
		case "B/op":
			n := int64(v)
			r.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			r.AllocsPerOp = &n
		}
	}
	decomposeName(&r)
	return r, true
}

// trimProcs drops the trailing -GOMAXPROCS suffix go test appends.
func trimProcs(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		c := name[i]
		if c == '-' {
			return name[:i]
		}
		if c < '0' || c > '9' {
			break
		}
	}
	return name
}

// decomposeName splits Benchmark<X>/<scheme>/n<sites>[/lat<...>].
func decomposeName(r *result) {
	parts := strings.Split(r.Name, "/")
	r.Benchmark = parts[0]
	if len(parts) < 3 {
		return
	}
	var sites int
	if _, err := fmt.Sscanf(parts[2], "n%d", &sites); err != nil {
		return
	}
	r.Scheme = parts[1]
	r.Sites = sites
	if len(parts) > 3 {
		r.Latency = parts[3]
	}
}
