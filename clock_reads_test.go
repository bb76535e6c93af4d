package relidev_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"relidev"
	"relidev/internal/clock"
	"relidev/internal/core"
	"relidev/internal/obs"
)

// countingClock is the wall clock with a count of its readings.
type countingClock struct {
	clock.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

func (c *countingClock) Nanotime() int64 {
	c.reads.Add(1)
	return c.Clock.Nanotime()
}

// TestMeteredOpClockReads pins how often one metered, untraced op
// reads the observer's clock, since each reading is a serialising
// instruction on the CPU-bound path. An op reads it once before its
// lock, which is its start (a free lock is not read again), once per
// boundary of each fan-out — the start, then the end of each leg,
// shared by the fan-out loop and the metering decorator above it — and
// once at its end:
//
//	voting read or write, n = 5: 1 + (1 + 4) + 1 = 7
//	ac or naive write, n = 3:    1 + (1 + 2) + 1 = 5
//	ac or naive read:            1 + 1           = 2, the read is local
func TestMeteredOpClockReads(t *testing.T) {
	for _, tc := range []struct {
		name        string
		scheme      core.SchemeKind
		sites       int
		read, write int64
	}{
		{"voting", core.Voting, 5, 7, 7},
		{"ac", core.AvailableCopy, 3, 2, 5},
		{"naive", core.NaiveAvailableCopy, 3, 2, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &countingClock{Clock: clock.Wall}
			c, err := core.NewCluster(core.ClusterConfig{Sites: tc.sites, Scheme: tc.scheme,
				Geometry: relidev.Geometry{BlockSize: 512, NumBlocks: 64},
				Observer: obs.New(obs.WithClock(clk))})
			if err != nil {
				t.Fatal(err)
			}
			dev, err := c.Device(0)
			if err != nil {
				t.Fatal(err)
			}
			ctx, payload := context.Background(), make([]byte, 512)
			const ops = 10
			count := func(op func() error) int64 {
				before := clk.reads.Load()
				for range ops {
					if err := op(); err != nil {
						t.Fatal(err)
					}
				}
				return clk.reads.Load() - before
			}
			if got := count(func() error { return dev.WriteBlock(ctx, 3, payload) }); got != ops*tc.write {
				t.Errorf("%d writes read the clock %d times, want %d each", ops, got, tc.write)
			}
			if got := count(func() error { _, err := dev.ReadBlock(ctx, 3); return err }); got != ops*tc.read {
				t.Errorf("%d reads read the clock %d times, want %d each", ops, got, tc.read)
			}
		})
	}
}
