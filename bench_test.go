// Benchmarks regenerate the paper's evaluation: one benchmark per figure
// (9-12) producing the same series the paper plots, plus per-operation
// protocol benchmarks whose msgs/op metrics are the measured counterpart
// of the §5 cost model.
//
// Run: go test -bench=. -benchmem
//
// The interesting output is the custom metrics: msgs/write, msgs/read,
// msgs/recovery, and the figure-level summary metrics. Absolute ns/op
// mostly measures the in-process simulation plumbing.
package relidev_test

import (
	"context"
	"fmt"
	"testing"

	"relidev"
	"relidev/internal/analysis"
	"relidev/internal/cache"
	"relidev/internal/core"
	"relidev/internal/figures"
	"relidev/internal/markov"
	"relidev/internal/minifs"
	"relidev/internal/sim"
	"relidev/internal/simnet"
)

// --- Figure benchmarks: each iteration regenerates the figure's data ---

// BenchmarkFigure9 regenerates Figure 9 (availability of 3 available /
// naive copies vs 6 voting copies over ρ ∈ [0, 0.20]) and reports the
// curves' separation at ρ = 0.20 — the paper's headline availability gap.
func BenchmarkFigure9(b *testing.B) {
	var fig figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Figure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(fig.Series[0].Y) - 1
	b.ReportMetric(fig.Series[0].Y[last], "A_AC(3)@rho0.2")
	b.ReportMetric(fig.Series[1].Y[last], "A_NA(3)@rho0.2")
	b.ReportMetric(fig.Series[2].Y[last], "A_V(6)@rho0.2")
}

// BenchmarkFigure10 regenerates Figure 10 (4 copies vs 8 voting copies).
func BenchmarkFigure10(b *testing.B) {
	var fig figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Figure10()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(fig.Series[0].Y) - 1
	b.ReportMetric(fig.Series[0].Y[last], "A_AC(4)@rho0.2")
	b.ReportMetric(fig.Series[1].Y[last], "A_NA(4)@rho0.2")
	b.ReportMetric(fig.Series[2].Y[last], "A_V(8)@rho0.2")
}

// BenchmarkFigure11 regenerates Figure 11 (multi-cast traffic per one
// write + x reads, ρ = 0.05) and reports the voting:naive cost ratio at
// n = 5, x = 2.5-ish (the 2:1 series): the §5 headline.
func BenchmarkFigure11(b *testing.B) {
	var fig figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Figure11()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Series: voting x=1,2,4; AC; naive. X grid is n = 2..8; n=5 is idx 3.
	b.ReportMetric(fig.Series[1].Y[3], "voting(x=2)@n5")
	b.ReportMetric(fig.Series[3].Y[3], "ac@n5")
	b.ReportMetric(fig.Series[4].Y[3], "naive@n5")
	b.ReportMetric(fig.Series[1].Y[3]/fig.Series[4].Y[3], "voting/naive@n5")
}

// BenchmarkFigure12 regenerates Figure 12 (unique addressing).
func BenchmarkFigure12(b *testing.B) {
	var fig figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Figure12()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Series[1].Y[3], "voting(x=2)@n5")
	b.ReportMetric(fig.Series[3].Y[3], "ac@n5")
	b.ReportMetric(fig.Series[4].Y[3], "naive@n5")
}

// BenchmarkFigure9Simulated validates Figure 9 stochastically: a
// discrete-event run of the Figure 7 state machine at ρ = 0.20.
func BenchmarkFigure9Simulated(b *testing.B) {
	var avail float64
	for i := 0; i < b.N; i++ {
		m, err := sim.NewModel(analysis.SchemeAvailableCopy, 3)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.SimulateAvailability(m, 3, 0.20, 50000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		avail = res.Availability
	}
	analytic, _ := analysis.AvailabilityAC(3, 0.20)
	b.ReportMetric(avail, "A_sim")
	b.ReportMetric(analytic, "A_analytic")
}

// BenchmarkFigureWitness regenerates the witnesses extension figure and
// reports the headline: 2 copies + 1 witness matches 3 full copies.
func BenchmarkFigureWitness(b *testing.B) {
	var fig figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.FigureWitness()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(fig.Series[0].Y) - 1
	b.ReportMetric(fig.Series[0].Y[last], "A_3copies@rho0.2")
	b.ReportMetric(fig.Series[1].Y[last], "A_2copies+1wit@rho0.2")
}

// BenchmarkFigureEqualAvailability regenerates the §5 equal-availability
// comparison and reports the voting:naive cost ratio at four nines.
func BenchmarkFigureEqualAvailability(b *testing.B) {
	var fig figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.FigureEqualAvailability()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Series: voting, AC, naive; X index 2 is the 0.9999 target.
	b.ReportMetric(fig.Series[0].Y[2], "voting@4nines")
	b.ReportMetric(fig.Series[2].Y[2], "naive@4nines")
	b.ReportMetric(fig.Series[0].Y[2]/fig.Series[2].Y[2], "voting/naive@4nines")
}

// --- Per-operation protocol benchmarks (measured §5 costs) ---

func benchCluster(b *testing.B, scheme relidev.Scheme, n int, unicast bool) (*relidev.Cluster, relidev.Device) {
	b.Helper()
	opts := []relidev.Option{
		relidev.WithGeometry(relidev.Geometry{BlockSize: 512, NumBlocks: 64}),
	}
	if unicast {
		opts = append(opts, relidev.WithUnicastNetwork())
	}
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

func benchWrite(b *testing.B, scheme relidev.Scheme, unicast bool) {
	const n = 5
	cluster, dev := benchCluster(b, scheme, n, unicast)
	ctx := context.Background()
	payload := make([]byte, 512)
	cluster.ResetTraffic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		if err := dev.WriteBlock(ctx, relidev.Index(i%64), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cluster.Traffic().Transmissions)/float64(b.N), "msgs/write")
}

func benchRead(b *testing.B, scheme relidev.Scheme, unicast bool) {
	const n = 5
	cluster, dev := benchCluster(b, scheme, n, unicast)
	ctx := context.Background()
	payload := make([]byte, 512)
	for i := 0; i < 64; i++ {
		if err := dev.WriteBlock(ctx, relidev.Index(i), payload); err != nil {
			b.Fatal(err)
		}
	}
	cluster.ResetTraffic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.ReadBlock(ctx, relidev.Index(i%64)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cluster.Traffic().Transmissions)/float64(b.N), "msgs/read")
}

// BenchmarkWrite measures per-write latency and message cost for every
// scheme in both network flavours — the measured counterpart of the §5
// write column.
func BenchmarkWrite(b *testing.B) {
	for _, scheme := range []relidev.Scheme{relidev.Voting, relidev.AvailableCopy, relidev.NaiveAvailableCopy} {
		for _, unicast := range []bool{false, true} {
			name := fmt.Sprintf("%v/%s", scheme, netName(unicast))
			b.Run(name, func(b *testing.B) { benchWrite(b, scheme, unicast) })
		}
	}
}

// BenchmarkRead measures per-read cost; available copy schemes read
// locally (0 msgs), voting collects a quorum every time.
func BenchmarkRead(b *testing.B) {
	for _, scheme := range []relidev.Scheme{relidev.Voting, relidev.AvailableCopy, relidev.NaiveAvailableCopy} {
		for _, unicast := range []bool{false, true} {
			name := fmt.Sprintf("%v/%s", scheme, netName(unicast))
			b.Run(name, func(b *testing.B) { benchRead(b, scheme, unicast) })
		}
	}
}

func netName(unicast bool) string {
	if unicast {
		return "unicast"
	}
	return "multicast"
}

// BenchmarkRecovery measures a fail + restart cycle of one site: voting
// is free (lazy block-level recovery), the available copy schemes pay
// the status broadcast plus the version-vector exchange.
func BenchmarkRecovery(b *testing.B) {
	for _, scheme := range []relidev.Scheme{relidev.Voting, relidev.AvailableCopy, relidev.NaiveAvailableCopy} {
		b.Run(scheme.String(), func(b *testing.B) {
			cluster, dev := benchCluster(b, scheme, 4, false)
			ctx := context.Background()
			payload := make([]byte, 512)
			cluster.ResetTraffic()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cluster.Fail(2); err != nil {
					b.Fatal(err)
				}
				// One write lands while the site is down, so recovery has
				// a block to repair.
				payload[0] = byte(i)
				if err := dev.WriteBlock(ctx, 0, payload); err != nil {
					b.Fatal(err)
				}
				if err := cluster.Restart(ctx, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Subtract the write traffic to isolate recovery cost.
			writeCost, err := relidev.TrafficCosts(scheme, 4, 0, true)
			if err != nil {
				b.Fatal(err)
			}
			total := float64(cluster.Traffic().Transmissions) / float64(b.N)
			b.ReportMetric(total-writeCost.Write+1, "msgs/cycle~") // +1: write saw one site down
			b.ReportMetric(total, "msgs/total")
		})
	}
}

// BenchmarkCachedVotingRead shows the Figure 1 buffer-cache effect: a
// hot read served from the cache skips the quorum collection entirely.
func BenchmarkCachedVotingRead(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			cl, err := core.NewCluster(core.ClusterConfig{
				Sites:    3,
				Geometry: relidev.Geometry{BlockSize: 512, NumBlocks: 64},
				Scheme:   core.Voting,
			})
			if err != nil {
				b.Fatal(err)
			}
			inner, _ := cl.Device(0)
			var dev core.Device = inner
			if cached {
				dev, err = cache.New(inner, 64)
				if err != nil {
					b.Fatal(err)
				}
			}
			payload := make([]byte, 512)
			if err := dev.WriteBlock(ctx, 0, payload); err != nil {
				b.Fatal(err)
			}
			cl.Network().ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dev.ReadBlock(ctx, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cl.Network().Stats().Transmissions)/float64(b.N), "msgs/read")
		})
	}
}

// --- Substrate benchmarks ---

// BenchmarkMarkovSteadyState solves the Figure 7 chain for n = 8 (16
// states) — the numeric engine behind every availability figure.
func BenchmarkMarkovSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AvailabilityAC(8, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovSolverScaling solves growing chains.
func BenchmarkMarkovSolverScaling(b *testing.B) {
	for _, states := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("states%d", states), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := markov.NewChain(states)
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < states-1; s++ {
					c.SetRate(s, s+1, 1)
					c.SetRate(s+1, s, 0.5)
				}
				if _, err := c.SteadyState(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinifsOverReliableDevice measures whole-file writes through
// the file system onto a replicated device.
func BenchmarkMinifsOverReliableDevice(b *testing.B) {
	for _, kind := range []core.SchemeKind{core.Voting, core.NaiveAvailableCopy} {
		b.Run(kind.String(), func(b *testing.B) {
			ctx := context.Background()
			cl, err := core.NewCluster(core.ClusterConfig{
				Sites:    3,
				Geometry: relidev.Geometry{BlockSize: 512, NumBlocks: 1024},
				Scheme:   kind,
				Mode:     simnet.Multicast,
			})
			if err != nil {
				b.Fatal(err)
			}
			dev, _ := cl.Device(0)
			fs, err := minifs.Mkfs(ctx, dev)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, 4096)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fs.WriteFile(ctx, "/bench.dat", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatedTrafficRun measures the full concrete traffic
// experiment that backs the EXPERIMENTS.md tables.
func BenchmarkSimulatedTrafficRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateTraffic(context.Background(), sim.TrafficConfig{
			Scheme:    core.NaiveAvailableCopy,
			Sites:     5,
			Rho:       0.05,
			ReadRatio: 2.5,
			Ops:       500,
			Seed:      int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
