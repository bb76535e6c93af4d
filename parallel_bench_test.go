// Parallel data-path benchmarks: many clients hammering *distinct*
// blocks of one reliable device concurrently. The paper scopes
// consistency per block (§5), so operations on distinct blocks are
// independent and a data path that serializes them is leaving
// throughput on the table.
//
// Two network settings are measured per scheme and cluster size:
//
//   - lat0: an instantaneous simulated network — isolates CPU overhead
//     of the protocol plumbing.
//   - lat100us: every remote round trip costs 100µs (simulated wire +
//     peer service time) — shows how the data path overlaps quorum
//     round trips, which is where concurrent fan-out pays off.
//
// The RPC variants run the same workload over real loopback TCP between
// in-process server endpoints.
//
// Run: go test -bench=Parallel -benchtime=1s
// Results are tracked in EXPERIMENTS.md and BENCH_history.json.
package relidev_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relidev"
)

const (
	parBlocks    = 256
	parBlockSize = 512
	parLatency   = 100 * time.Microsecond
)

func parallelSchemes() []relidev.Scheme {
	return []relidev.Scheme{relidev.Voting, relidev.AvailableCopy, relidev.NaiveAvailableCopy}
}

func parallelSimCluster(b *testing.B, scheme relidev.Scheme, n int, latency time.Duration, extra ...relidev.Option) (*relidev.Cluster, relidev.Device) {
	b.Helper()
	opts := []relidev.Option{
		relidev.WithGeometry(relidev.Geometry{BlockSize: parBlockSize, NumBlocks: parBlocks}),
	}
	if latency > 0 {
		opts = append(opts, relidev.WithSimulatedLatency(latency))
	}
	opts = append(opts, extra...)
	cluster, err := relidev.New(n, scheme, opts...)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := cluster.Device(0)
	if err != nil {
		b.Fatal(err)
	}
	return cluster, dev
}

// hammerParallel runs op from b.RunParallel goroutines, each owning a
// distinct block, and reports throughput as ops/sec.
func hammerParallel(b *testing.B, op func(goroutine int, idx relidev.Index) error) {
	b.Helper()
	var next atomic.Int64
	var failed atomic.Value
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(next.Add(1) - 1)
		idx := relidev.Index(g % parBlocks)
		for pb.Next() {
			if err := op(g, idx); err != nil {
				failed.Store(err)
				return
			}
		}
	})
	b.StopTimer()
	if err, ok := failed.Load().(error); ok {
		b.Fatal(err)
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "ops/sec")
	}
}

func latName(d time.Duration) string {
	if d == 0 {
		return "lat0"
	}
	return fmt.Sprintf("lat%dus", d.Microseconds())
}

// BenchmarkParallelWrite measures concurrent writes to distinct blocks
// through one site's device. Before the concurrent data path, every
// write serialized behind a device-wide mutex and a destination-at-a-
// time broadcast loop; the striped per-block locks and concurrent
// quorum fan-out let independent blocks proceed at once.
func BenchmarkParallelWrite(b *testing.B) {
	for _, scheme := range parallelSchemes() {
		for _, n := range []int{3, 5, 7} {
			for _, lat := range []time.Duration{0, parLatency} {
				b.Run(fmt.Sprintf("%v/n%d/%s", scheme, n, latName(lat)), func(b *testing.B) {
					b.SetParallelism(8)
					_, dev := parallelSimCluster(b, scheme, n, lat)
					ctx := context.Background()
					hammerParallel(b, func(g int, idx relidev.Index) error {
						payload := make([]byte, parBlockSize)
						payload[0] = byte(g)
						return dev.WriteBlock(ctx, idx, payload)
					})
				})
			}
		}
	}
}

// BenchmarkParallelRead measures concurrent reads of distinct blocks.
// Voting collects a quorum per read (round-trip bound); the available
// copy schemes read locally, so their numbers isolate lock overhead.
func BenchmarkParallelRead(b *testing.B) {
	for _, scheme := range parallelSchemes() {
		for _, n := range []int{3, 5, 7} {
			for _, lat := range []time.Duration{0, parLatency} {
				b.Run(fmt.Sprintf("%v/n%d/%s", scheme, n, latName(lat)), func(b *testing.B) {
					b.SetParallelism(8)
					_, dev := parallelSimCluster(b, scheme, n, lat)
					ctx := context.Background()
					payload := make([]byte, parBlockSize)
					for i := 0; i < parBlocks; i++ {
						if err := dev.WriteBlock(ctx, relidev.Index(i), payload); err != nil {
							b.Fatal(err)
						}
					}
					hammerParallel(b, func(g int, idx relidev.Index) error {
						_, err := dev.ReadBlock(ctx, idx)
						return err
					})
				})
			}
		}
	}
}

// BenchmarkParallelWriteMetered is BenchmarkParallelWrite with the
// observability layer attached (WithMetering): identical workload, so
// the delta against the unmetered series is exactly the cost of
// metering on the hot path. The instrumentation is contention-free
// (striped counters, sharded histograms), so the delta must stay under
// a few percent; BENCH_history.json records the comparison. When
// RELIDEV_OBS_DIR is set, each sub-benchmark also writes its final
// metrics snapshot there (benchjson -obs embeds one into the report).
func BenchmarkParallelWriteMetered(b *testing.B) {
	for _, scheme := range parallelSchemes() {
		for _, lat := range []time.Duration{0, parLatency} {
			const n = 5
			b.Run(fmt.Sprintf("%v/n%d/%s", scheme, n, latName(lat)), func(b *testing.B) {
				b.SetParallelism(8)
				cluster, dev := parallelSimCluster(b, scheme, n, lat, relidev.WithMetering())
				ctx := context.Background()
				hammerParallel(b, func(g int, idx relidev.Index) error {
					payload := make([]byte, parBlockSize)
					payload[0] = byte(g)
					return dev.WriteBlock(ctx, idx, payload)
				})
				writeObsSnapshot(b, cluster)
			})
		}
	}
}

// BenchmarkParallelWriteTelemetry is BenchmarkParallelWriteMetered with
// the whole telemetry plane live while the writers hammer the device:
// a background goroutine samples the tsdb ring and evaluates the SLO
// burn rates every 100ms and scrapes the cross-site aggregate every
// second — each cadence an order of magnitude hotter than a production
// deployment (1s step, 10s+ scrape). The delta against the
// Metered series is the cost of *watching* the system, and it must
// stay within a few percent because the plane only reads snapshots —
// it never takes the data path's locks. BENCH_history.json records the
// comparison.
func BenchmarkParallelWriteTelemetry(b *testing.B) {
	for _, lat := range []time.Duration{0, parLatency} {
		const n = 5
		b.Run(fmt.Sprintf("%v/n%d/%s", relidev.Voting, n, latName(lat)), func(b *testing.B) {
			b.SetParallelism(8)
			cluster, dev := parallelSimCluster(b, relidev.Voting, n, lat,
				relidev.WithTelemetry(100*time.Millisecond),
				relidev.WithObjectives(relidev.DefaultObjectives(relidev.Voting, n, 0.05, parBlocks, &relidev.RepairPolicy{})...),
			)
			ctx := context.Background()
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				tick := time.NewTicker(100 * time.Millisecond)
				defer tick.Stop()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					case <-tick.C:
						if err := cluster.SampleTelemetry(); err != nil {
							b.Error(err)
							return
						}
						if _, err := cluster.SLOs(); err != nil {
							b.Error(err)
							return
						}
						if i%10 == 0 {
							if _, err := cluster.ClusterMetricsJSON(ctx); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}
			}()
			hammerParallel(b, func(g int, idx relidev.Index) error {
				payload := make([]byte, parBlockSize)
				payload[0] = byte(g)
				return dev.WriteBlock(ctx, idx, payload)
			})
			close(stop)
			<-done
			writeObsSnapshot(b, cluster)
		})
	}
}

// BenchmarkParallelReadMetered covers the metered read path: available
// copy reads are local and lock-bound, so any metering contention would
// show here first.
func BenchmarkParallelReadMetered(b *testing.B) {
	for _, scheme := range parallelSchemes() {
		for _, lat := range []time.Duration{0, parLatency} {
			const n = 5
			b.Run(fmt.Sprintf("%v/n%d/%s", scheme, n, latName(lat)), func(b *testing.B) {
				b.SetParallelism(8)
				cluster, dev := parallelSimCluster(b, scheme, n, lat, relidev.WithMetering())
				ctx := context.Background()
				payload := make([]byte, parBlockSize)
				for i := 0; i < parBlocks; i++ {
					if err := dev.WriteBlock(ctx, relidev.Index(i), payload); err != nil {
						b.Fatal(err)
					}
				}
				hammerParallel(b, func(g int, idx relidev.Index) error {
					_, err := dev.ReadBlock(ctx, idx)
					return err
				})
				writeObsSnapshot(b, cluster)
			})
		}
	}
}

// writeObsSnapshot dumps the cluster's metering snapshot into
// $RELIDEV_OBS_DIR, one file per sub-benchmark, for benchjson -obs.
func writeObsSnapshot(b *testing.B, cluster *relidev.Cluster) {
	b.Helper()
	dir := os.Getenv("RELIDEV_OBS_DIR")
	if dir == "" {
		return
	}
	data, err := cluster.MetricsJSON()
	if err != nil {
		b.Fatal(err)
	}
	name := strings.ReplaceAll(b.Name(), "/", "_") + ".json"
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		b.Fatal(err)
	}
}

// parallelRPCCluster boots n replica server endpoints over loopback TCP
// (two passes: reserve ephemeral ports, then open the full mesh) and
// returns site 0's device.
func parallelRPCCluster(b *testing.B, scheme relidev.Scheme, n int) relidev.Device {
	b.Helper()
	geom := relidev.Geometry{BlockSize: parBlockSize, NumBlocks: parBlocks}
	addrs := make(map[int]string, n)
	var boot []*relidev.RemoteSite
	for i := 0; i < n; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:     i,
			Peers:    map[int]string{i: "127.0.0.1:0"},
			Scheme:   scheme,
			Geometry: geom,
		})
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = s.Addr()
		boot = append(boot, s)
	}
	for _, s := range boot {
		s.Close()
	}
	sites := make([]*relidev.RemoteSite, n)
	for i := 0; i < n; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:     i,
			Peers:    addrs,
			Scheme:   scheme,
			Geometry: geom,
			Timeout:  10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		sites[i] = s
	}
	b.Cleanup(func() {
		for _, s := range sites {
			s.Close()
		}
	})
	return sites[0].Device()
}

// BenchmarkParallelWriteRPC is BenchmarkParallelWrite over real loopback
// TCP: the per-peer connection pool and concurrent fan-out must overlap
// genuine kernel round trips.
func BenchmarkParallelWriteRPC(b *testing.B) {
	for _, scheme := range parallelSchemes() {
		for _, n := range []int{3, 5, 7} {
			b.Run(fmt.Sprintf("%v/n%d", scheme, n), func(b *testing.B) {
				b.SetParallelism(8)
				dev := parallelRPCCluster(b, scheme, n)
				ctx := context.Background()
				hammerParallel(b, func(g int, idx relidev.Index) error {
					payload := make([]byte, parBlockSize)
					payload[0] = byte(g)
					return dev.WriteBlock(ctx, idx, payload)
				})
			})
		}
	}
}

// BenchmarkParallelReadRPC measures concurrent reads over TCP; only the
// voting scheme produces network traffic on reads.
func BenchmarkParallelReadRPC(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("voting/n%d", n), func(b *testing.B) {
			b.SetParallelism(8)
			dev := parallelRPCCluster(b, relidev.Voting, n)
			ctx := context.Background()
			payload := make([]byte, parBlockSize)
			for i := 0; i < parBlocks; i++ {
				if err := dev.WriteBlock(ctx, relidev.Index(i), payload); err != nil {
					b.Fatal(err)
				}
			}
			hammerParallel(b, func(g int, idx relidev.Index) error {
				_, err := dev.ReadBlock(ctx, idx)
				return err
			})
		})
	}
}
