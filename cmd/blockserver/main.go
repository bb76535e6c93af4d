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
// events), /trace/tree (this site's stitched span trees), /profile
// (critical-path phase attribution), /debug/flight/sealed (the
// black-box dump the first critical objective sealed), /cluster/metrics
// and /trace/cluster (every site's registry, or trace ring, pulled over
// the RPC plane and merged into one view, or stitched into one span
// tree per operation), and the standard /debug/pprof/ handlers.
// relitop points at this address. -telemetry-step (default 1s) is the
// cadence at which the site samples its telemetry ring and evaluates
// the default objectives; it adds /healthz and /slo (their threshold
// and burn-rate views; each 503 once one of its objectives is
// critical), /timeseries (the ring) and /debug/flight (an on-demand
// black-box dump). At -telemetry-step 0 those four routes answer 404.
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
	"syscall"
	"time"

	"relidev"
)

func main() {
	var (
		id         = flag.Int("id", 0, "this site's id (0..n-1)")
		peersF     = flag.String("peers", "", "comma-separated id=host:port for every site, including this one")
		schemeF    = flag.String("scheme", "naive", "consistency scheme: voting, ac (available-copy), nac (naive)")
		storePath  = flag.String("store", "", "path of the block image file (empty = in-memory)")
		storeDir   = flag.String("store-dir", "", "directory for an append-only segment store (DESIGN.md \u00a712); takes precedence over -store")
		commitN    = flag.Int("commit-batch", 0, "group commit: coalesce up to this many concurrent writes into one fsync (0 = off)")
		commitWait = flag.Duration("commit-delay", 0, "group commit: how long a flush waits for more writers to join its batch (0 = opportunistic)")
		blocks     = flag.Int("blocks", 128, "number of blocks")
		blockSize  = flag.Int("blocksize", 512, "block size in bytes")
		comatose   = flag.Bool("comatose", false, "start comatose and run recovery (use after a crash)")
		debugAddr  = flag.String("debug-addr", "", "serve the observability surface (/metrics, /trace, /cluster/metrics, /trace/cluster, /healthz, /debug/pprof/, ...) on this address (empty = off)")
		teleStep   = flag.Duration("telemetry-step", time.Second, "telemetry sampling and alert evaluation cadence (0 = no ring, alerts or flight recorder: /healthz, /slo, /timeseries and /debug/flight answer 404; requires -debug-addr)")
	)
	flag.Parse()
	if err := run(*id, *peersF, *schemeF, *storePath, *storeDir, *commitN, *commitWait, *blocks, *blockSize, *comatose, *debugAddr, *teleStep); err != nil {
		fmt.Fprintln(os.Stderr, "blockserver:", err)
		os.Exit(1)
	}
}

func run(id int, peersF, schemeF, storePath, storeDir string, commitN int, commitWait time.Duration, blocks, blockSize int, comatose bool, debugAddr string, teleStep time.Duration) error {
	peers, err := relidev.ParsePeers(peersF)
	if err != nil {
		return err
	}
	if len(peers) == 0 {
		return errors.New("no peers given (use -peers 0=host:port,...)")
	}
	scheme, err := relidev.ParseScheme(schemeF)
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
		srv, ln, err := serveDebug(site, debugAddr)
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
func serveDebug(site *relidev.RemoteSite, addr string) (*http.Server, net.Listener, error) {
	h, err := site.DebugHandler()
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, ln, nil
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
