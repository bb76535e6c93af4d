// Critical-path attribution overhead: the before/after pair for the
// DESIGN.md §15 phase spans. BenchmarkCriticalPathOverhead drives the
// fast write path (voting, single-round prepare-write) bare, with
// metering+attribution, and with full tracing, on the identical
// workload — so the deltas price the phase accumulator, the per-peer
// RTT histograms, and the EvPhase trace emission respectively.
// EXPERIMENTS.md tracks the headline: attribution stays under 5% on
// voting/n5 writes; BENCH_history.json records the series.
//
// Run: go test -run='^$' -bench=CriticalPathOverhead .
package relidev_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"relidev"
)

func BenchmarkCriticalPathOverhead(b *testing.B) {
	variants := []struct {
		name string
		opts []relidev.Option
	}{
		{"bare", nil},
		{"attributed", []relidev.Option{relidev.WithMetering()}},
		{"traced", []relidev.Option{relidev.WithTracing(1 << 12)}},
	}
	for _, v := range variants {
		for _, lat := range []time.Duration{0, parLatency} {
			const n = 5
			b.Run(fmt.Sprintf("voting/n%d/%s/%s", n, latName(lat), v.name), func(b *testing.B) {
				b.SetParallelism(8)
				_, dev := parallelSimCluster(b, relidev.Voting, n, lat, v.opts...)
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
