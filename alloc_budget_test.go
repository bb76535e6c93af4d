//go:build !race

package relidev_test

import (
	"context"
	"testing"

	"relidev"
	"relidev/internal/core"
	"relidev/internal/obs"
)

// TestQuorumOpAllocBudget pins what one metered voting op on a 5-site
// in-process cluster allocates in steady state (the block already
// written once, so the remote sites recycle their staging buffers).
// Every allocation left has an owner that sits behind an interface this
// module does not control — protocol.Transport returns a map and boxed
// replies, protocol.Handler and Request box the messages:
//
//	read 9 = 1  op scope: the per-op phase accumulator, which is also
//	            the op's context node and, traced, carries the op's
//	            span node and its transport call's
//	       + 1  the VoteRequest boxed into protocol.Request
//	       + 2  the Broadcast result map (header + group)
//	       + 4  one VoteReply per remote boxed into protocol.Response
//	       + 1  the returned block
//	write 8: the same with a PrepareWriteRequest and four
//	          PrepareWriteReplies, and no returned block; each of the
//	          four staging sites copies the payload into a recycled
//	          buffer and swaps it for the block's, which becomes the
//	          pre-image.
//	traced +0: the op's span node and the broadcast's are re-pointed
//	          in the op scope's allocation (a larger size class than
//	          untraced), and every trace event is a ring write.
//
// simnet runs a broadcast's legs in order on the caller's goroutine
// (protocol.FanOut) and hands each remote the boxed request, so
// no message is encoded. Over rpcnet the request travels encoded and
// each server boxes its decoded copy; TestBroadcastAllocBudget pins
// that round.
//
// A change that moves a count edits this table and says who owns the
// difference. The race detector allocates, hence the build tag.
func TestQuorumOpAllocBudget(t *testing.T) {
	geom := relidev.Geometry{BlockSize: 4096, NumBlocks: 512}
	for _, tc := range []struct {
		name        string
		device      func() (relidev.Device, error)
		read, write float64
	}{
		{"untraced", func() (relidev.Device, error) {
			c, err := relidev.New(5, relidev.Voting, relidev.WithMetering(), relidev.WithGeometry(geom))
			if err != nil {
				return nil, err
			}
			return c.Device(0)
		}, 9, 8},
		// The public Cluster only meters; a traced one is core's.
		{"traced", func() (relidev.Device, error) {
			c, err := core.NewCluster(core.ClusterConfig{Sites: 5, Scheme: core.Voting, Geometry: geom,
				Observer: obs.New(obs.WithTracing(1 << 12))})
			if err != nil {
				return nil, err
			}
			return c.Device(0)
		}, 9, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := tc.device()
			if err != nil {
				t.Fatal(err)
			}
			// Block 300: an index Go cannot box for free (it can below 256).
			ctx, payload := context.Background(), make([]byte, 4096)
			write := func() {
				if err := dev.WriteBlock(ctx, 300, payload); err != nil {
					t.Fatal(err)
				}
			}
			write()
			if got := testing.AllocsPerRun(200, write); got != tc.write {
				t.Errorf("write: %v allocations, budget is exactly %v", got, tc.write)
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, err := dev.ReadBlock(ctx, 300); err != nil {
					t.Fatal(err)
				}
			}); got != tc.read {
				t.Errorf("read: %v allocations, budget is exactly %v", got, tc.read)
			}
		})
	}
}
