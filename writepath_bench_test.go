// Write-path benchmarks: the before/after pair for the DESIGN.md §12
// fast write path, runnable in one go. BenchmarkWritePathFast drives
// the default single-round prepare-write; BenchmarkWritePathTwoRound
// forces the paper's literal Figure 4 two-round shape on the same
// workload, so the ratio between the two series is exactly the cost of
// the second quorum round trip. BenchmarkWritePathDurable adds the
// full durable stack — append-only segment stores with group commit —
// to show the protocol win survives real fsyncs.
//
// Run: go test -run='^$' -bench=WritePath .
// Results are tracked in BENCH_history.json and EXPERIMENTS.md.
package relidev_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"relidev"
)

func benchWritePath(b *testing.B, extra ...relidev.Option) {
	for _, n := range []int{3, 5} {
		for _, lat := range []time.Duration{0, parLatency} {
			b.Run(fmt.Sprintf("voting/n%d/%s", n, latName(lat)), func(b *testing.B) {
				b.SetParallelism(8)
				_, dev := parallelSimCluster(b, relidev.Voting, n, lat, extra...)
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

// BenchmarkWritePathFast is the default single-round write: one
// prepare-write quorum round trip per write.
func BenchmarkWritePathFast(b *testing.B) {
	benchWritePath(b)
}

// BenchmarkWritePathTwoRound forces the classic shape — a version
// collection round then a put fan-out — on the identical workload.
func BenchmarkWritePathTwoRound(b *testing.B) {
	benchWritePath(b, relidev.WithTwoRoundVotingWrites())
}

// BenchmarkWritePathDurable runs the fast path over segment stores
// with group commit: every write is made durable by an fsync it
// (usually) shares with its neighbours.
func BenchmarkWritePathDurable(b *testing.B) {
	for _, n := range []int{3, 5} {
		for _, lat := range []time.Duration{0, parLatency} {
			b.Run(fmt.Sprintf("voting/n%d/%s", n, latName(lat)), func(b *testing.B) {
				b.SetParallelism(8)
				_, dev := parallelSimCluster(b, relidev.Voting, n, lat,
					relidev.WithSegmentStores(b.TempDir()),
					relidev.WithGroupCommit(0, 64))
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
