// Command benchmark is the repository's performance benchmark: four
// workloads over the reliable device, end-to-end metrics measured
// through the public API and, in a second traced pass, per-layer metrics
// from decorators this package puts around each layer's public
// functions. README.md has the tables.
//
//	benchmark                          all workloads, both passes, as a table
//	benchmark -workload W -trace 0|1   one run; the last line is its result
//	benchmark -calibrate N             N rounds of unchanged code -> bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	dir       string
	calibrate int
	// scale multiplies every segment's op count; 0 means 1. Only the
	// smoke test sets it: at any other size the numbers no longer compare
	// with the bounds in BENCHMARK.json, so it is not a flag.
	scale float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result line (default: all four, as a table)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: picks the block indices and the read/write coin")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for store files and span files; created if missing")
	flag.IntVar(&o.calibrate, "calibrate", 0, "run every workload this many times (at least 6) and derive the bounds in ./BENCHMARK.json from the spread")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o options) int {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var err error
	switch {
	case o.calibrate > 0:
		err = calibrate(o)
	case o.workload == "":
		err = runAll(o)
	default:
		sp := specByName(o.workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		if sp.groupCommit > 0 && fsType(o.dir) == tmpfs {
			fmt.Fprintf(os.Stderr, "benchmark: %s times fsync, and %s is on a %s\n", sp.name, o.dir, tmpfs)
			return 1
		}
		var res *result
		if res, err = runOne(sp, o); err == nil {
			// Marshal refuses NaN and Inf: a metric that came out as 0/0
			// fails the run instead of printing no result.
			var out []byte
			if out, err = json.Marshal(res); err == nil {
				fmt.Println(string(out))
				if !res.Correct {
					return 1
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne is one run of one workload in this process: one process per
// workload keeps one workload's garbage out of another's GC.
func runOne(sp *spec, o options) (*result, error) {
	// The device's callers are file systems doing synchronous block I/O:
	// a closed loop, at most two of them, one per core.
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	runtime.GOMAXPROCS(clients)

	runDir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return nil, err
	}
	// Store files go on every exit path, a signal included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(runDir)
			os.Exit(1)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
		os.RemoveAll(runDir)
	}()
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d, %d clients, files in %s (%s)\n", sp.name, o.seed, clients, runDir, fsType(runDir))

	e := env{seed: o.seed, scale: o.scale, workDir: runDir, clients: clients}
	if e.scale == 0 {
		e.scale = 1
	}
	ctx := context.Background()
	var m *measured
	defs := endToEnd
	if o.trace != 0 {
		defs = perLayer
		m, err = runTraced(ctx, sp, e, o.seconds, o.dir)
	} else {
		m, err = runEndToEnd(ctx, sp, e, o.seconds)
	}
	if err != nil {
		return nil, err
	}
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d failed; first: %v\n", m.failed, m.attempted, m.firstErr)
	}
	return &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: selectMetrics(defs, m.values)}, nil
}

const tmpfs = "tmpfs: fsync is free here"

// fsType names the filesystem under dir, for the log. On a tmpfs fsync
// costs nothing: the workload in which every write waits for one refuses
// to run there. The restart workload syncs only when a segment is sealed
// or a site closes, and runs anywhere.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch st.Type {
	case 0x01021994:
		return tmpfs
	case 0xef53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem type %#x", st.Type)
}
