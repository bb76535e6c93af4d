package core

import (
	"context"
	"testing"

	"relidev/internal/availcopy"
	"relidev/internal/block"
	"relidev/internal/voting"
)

// --- Ablation benchmarks (DESIGN.md §5) ---

var ablationGeom = block.Geometry{BlockSize: 512, NumBlocks: 64}

func ablationCluster(b *testing.B, cfg ClusterConfig) (*Cluster, *ReliableDevice) {
	b.Helper()
	cfg.Sites, cfg.Geometry = 4, ablationGeom
	cl, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := cl.Device(0)
	if err != nil {
		b.Fatal(err)
	}
	return cl, dev
}

// BenchmarkAblationVotingRecovery compares the paper's lazy block-level
// voting recovery (free) against the eager file-level variant.
func BenchmarkAblationVotingRecovery(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		cfg := ClusterConfig{Scheme: Voting}
		if eager {
			name = "eager"
			cfg.VotingOptions = []voting.Option{voting.WithEagerRecovery()}
		}
		b.Run(name, func(b *testing.B) {
			cl, dev := ablationCluster(b, cfg)
			ctx := context.Background()
			payload := make([]byte, ablationGeom.BlockSize)
			// Dirty every block so eager recovery has work to do.
			for i := 0; i < ablationGeom.NumBlocks; i++ {
				if err := dev.WriteBlock(ctx, block.Index(i), payload); err != nil {
					b.Fatal(err)
				}
			}
			var recoveryMsgs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Fail(2); err != nil {
					b.Fatal(err)
				}
				payload[0] = byte(i)
				if err := dev.WriteBlock(ctx, block.Index(i%ablationGeom.NumBlocks), payload); err != nil {
					b.Fatal(err)
				}
				before := cl.Network().Stats().Transmissions
				if err := cl.Restart(ctx, 2); err != nil {
					b.Fatal(err)
				}
				recoveryMsgs += cl.Network().Stats().Transmissions - before
			}
			b.StopTimer()
			b.ReportMetric(float64(recoveryMsgs)/float64(b.N), "msgs/recovery")
		})
	}
}

// BenchmarkAblationImmediateW compares delayed (piggybacked) and
// immediate was-available set propagation in the available copy scheme.
func BenchmarkAblationImmediateW(b *testing.B) {
	for _, immediate := range []bool{false, true} {
		name := "delayed"
		cfg := ClusterConfig{Scheme: AvailableCopy}
		if immediate {
			name = "immediate"
			cfg.AvailCopyOptions = []availcopy.Option{availcopy.WithImmediateW()}
		}
		b.Run(name, func(b *testing.B) {
			cl, dev := ablationCluster(b, cfg)
			ctx := context.Background()
			payload := make([]byte, ablationGeom.BlockSize)
			cl.Network().ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Membership changes every other iteration, which is where
				// the two variants differ.
				if i%2 == 0 {
					if err := cl.Fail(3); err != nil {
						b.Fatal(err)
					}
				}
				payload[0] = byte(i)
				if err := dev.WriteBlock(ctx, block.Index(i%ablationGeom.NumBlocks), payload); err != nil {
					b.Fatal(err)
				}
				if i%2 == 0 {
					if err := cl.Restart(ctx, 3); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cl.Network().Stats().Transmissions)/float64(b.N), "msgs/iter")
		})
	}
}
