// Command blockserver runs one replica site of a reliable device as a
// standalone server process — the deployment of §1: "a set of server
// processes on several sites".
//
// Usage:
//
//	blockserver -id 0 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002 \
//	            -scheme naive -store /var/tmp/site0.img -blocks 256 -blocksize 512
//
// When restarted after a crash pass -comatose so the site runs the
// scheme's recovery procedure (repeating it until it can complete)
// before serving data.
//
// Pass -store-dir to persist blocks in an append-only checksummed
// segment store instead of a flat image (crash recovery truncates a
// torn tail and replays the rest), and -commit-batch/-commit-delay to
// group-commit concurrent writes into shared fsyncs (DESIGN.md §12).
//
// Pass -debug-addr to expose the observability surface: /metrics
// (JSON), /metrics.prom (Prometheus text), /trace (recent protocol
// events), /profile (critical-path phase attribution), /healthz and /slo
// (the default objectives' threshold and burn-rate views; each 503 once
// one of its objectives is critical), /debug/flight (an on-demand
// black-box dump) and /debug/flight/sealed (the one the first critical
// objective sealed), /cluster/metrics (every site's registry scraped
// over the RPC plane and merged into one view), /timeseries (the local
// telemetry ring; cadence set by -telemetry-step), and the standard
// /debug/pprof/ handlers. relitop points at this address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"relidev"
)

func main() {
	var (
		id         = flag.Int("id", 0, "this site's id (0..n-1)")
		peersF     = flag.String("peers", "", "comma-separated id=host:port for every site, including this one")
		schemeF    = flag.String("scheme", "naive", "consistency scheme: voting, ac, naive")
		storePath  = flag.String("store", "", "path of the block image file (empty = in-memory)")
		storeDir   = flag.String("store-dir", "", "directory for an append-only segment store (DESIGN.md \u00a712); takes precedence over -store")
		commitN    = flag.Int("commit-batch", 0, "group commit: coalesce up to this many concurrent writes into one fsync (0 = off)")
		commitWait = flag.Duration("commit-delay", 0, "group commit: how long a flush waits for more writers to join its batch (0 = opportunistic)")
		blocks     = flag.Int("blocks", 128, "number of blocks")
		blockSize  = flag.Int("blocksize", 512, "block size in bytes")
		comatose   = flag.Bool("comatose", false, "start comatose and run recovery (use after a crash)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /metrics.prom, /trace and /debug/pprof/ on this address (empty = off)")
		tracePeers = flag.String("trace-peers", "", "comma-separated peer /trace URLs; mounts /trace/cluster on the debug surface with the cluster-wide stitched view")
		teleStep   = flag.Duration("telemetry-step", time.Second, "telemetry sampling and alert evaluation cadence (0 = evaluate only when /healthz or /slo is asked; requires -debug-addr)")
	)
	flag.Parse()
	if err := run(*id, *peersF, *schemeF, *storePath, *storeDir, *commitN, *commitWait, *blocks, *blockSize, *comatose, *debugAddr, *tracePeers, *teleStep); err != nil {
		fmt.Fprintln(os.Stderr, "blockserver:", err)
		os.Exit(1)
	}
}

func parsePeers(s string) (map[int]string, error) {
	peers := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q is not id=addr", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("peer id %q: %w", id, err)
		}
		peers[n] = addr
	}
	if len(peers) == 0 {
		return nil, errors.New("no peers given (use -peers 0=host:port,...)")
	}
	return peers, nil
}

func parseScheme(s string) (relidev.Scheme, error) {
	switch s {
	case "voting":
		return relidev.Voting, nil
	case "ac", "available-copy":
		return relidev.AvailableCopy, nil
	case "naive":
		return relidev.NaiveAvailableCopy, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want voting, ac or naive)", s)
	}
}

// objectives is the server's alert set: the defaults, with the
// availability target budgeted from the paper's own §4 prediction for
// this deployment, like the chaos harness does.
func objectives(scheme relidev.Scheme, n int) []relidev.Objective {
	return relidev.DefaultObjectives(scheme, n, 0.05)
}

func run(id int, peersF, schemeF, storePath, storeDir string, commitN int, commitWait time.Duration, blocks, blockSize int, comatose bool, debugAddr, tracePeers string, teleStep time.Duration) error {
	peers, err := parsePeers(peersF)
	if err != nil {
		return err
	}
	scheme, err := parseScheme(schemeF)
	if err != nil {
		return err
	}
	cfg := relidev.RemoteConfig{
		Self:             id,
		Peers:            peers,
		Scheme:           scheme,
		Geometry:         relidev.Geometry{BlockSize: blockSize, NumBlocks: blocks},
		StorePath:        storePath,
		StoreDir:         storeDir,
		GroupCommitBatch: commitN,
		GroupCommitDelay: commitWait,
		Comatose:         comatose,
		Metered:          debugAddr != "",
	}
	if cfg.Metered {
		cfg.Objectives = objectives(scheme, len(peers))
		cfg.TelemetryStep = teleStep
	}
	site, err := relidev.OpenRemote(cfg)
	if err != nil {
		return err
	}
	defer site.Close()
	fmt.Printf("site %d serving %s on %s (scheme %v, %dx%d)\n",
		id, storeDesc(storePath, storeDir), site.Addr(), scheme, blockSize, blocks)

	if debugAddr != "" {
		srv, ln, err := serveDebug(site, debugAddr, splitURLs(tracePeers))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("site %d debug surface on http://%s/metrics\n", id, ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if comatose {
		// Retry recovery until it completes or we are told to exit; with
		// the naive scheme after a total failure this loop is exactly the
		// "wait until all sites have recovered" of Figure 6.
		for site.State() != relidev.StateAvailable {
			err := site.Recover(ctx)
			switch {
			case err == nil:
				fmt.Println("recovery complete; site available")
			case errors.Is(err, relidev.ErrMustWait):
				fmt.Println("recovery waiting for more sites...")
				select {
				case <-time.After(2 * time.Second):
				case <-ctx.Done():
					return nil
				}
			default:
				return fmt.Errorf("recovery: %w", err)
			}
		}
	}

	<-ctx.Done()
	fmt.Println("shutting down")
	return nil
}

// serveDebug mounts the site's observability handler on its own
// listener and serves it in the background until the server is closed.
// With peer trace URLs it also mounts /trace/cluster, the cluster-wide
// stitched span-tree view.
func serveDebug(site *relidev.RemoteSite, addr string, tracePeers []string) (*http.Server, net.Listener, error) {
	h, err := site.DebugHandler()
	if err != nil {
		return nil, nil, err
	}
	if len(tracePeers) > 0 {
		cluster, err := site.ClusterTraceHandler(tracePeers)
		if err != nil {
			return nil, nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.Handle("/trace/cluster", cluster)
		h = mux
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, ln, nil
}

func splitURLs(s string) []string {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			urls = append(urls, part)
		}
	}
	return urls
}

func storeDesc(path, dir string) string {
	switch {
	case dir != "":
		return "segment store " + dir
	case path != "":
		return path
	}
	return "in-memory store"
}
