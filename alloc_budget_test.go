//go:build !race

package relidev_test

import (
	"context"
	"runtime"
	"testing"

	"relidev"
	"relidev/internal/core"
	"relidev/internal/obs"
)

// TestQuorumOpAllocBudget pins what one voting op on a 5-site, and one
// available-copy op on a 3-site, in-process cluster allocates in steady
// state (the block already written once, so the remote sites recycle
// their staging buffers), unmetered, metered and traced. Every
// allocation left has an owner that sits behind an interface this
// module does not control — protocol.Transport returns a map and boxed
// replies, protocol.Handler and Request box the messages:
//
//	voting read 8 = 1  the VoteRequest boxed into protocol.Request
//	              + 2  the Broadcast result map (header + group)
//	              + 4  one VoteReply per remote boxed into protocol.Response
//	              + 1  the returned block
//	voting write 7: the same with a PrepareWriteRequest and four
//	          PrepareWriteReplies, and no returned block; each of the
//	          four staging sites copies the payload into a recycled
//	          buffer and swaps it for the block's, which becomes the
//	          pre-image.
//	ac read 1: the returned block; the read is local.
//	ac write 3 = 1  the PutRequest boxed into protocol.Request
//	           + 2  the Broadcast result map; a put's reply boxes
//	                nothing.
//	metered and traced +0: the op scope — the §5 label, the phase
//	          recorder, the op's context node and, traced, its span
//	          node and its transport call's — lives in the lock stripe
//	          that serialises the op (scheme.OpLocks), and every trace
//	          event is a ring write.
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
	public := func(sites int, scheme relidev.Scheme, opts ...relidev.Option) func() (relidev.Device, error) {
		return func() (relidev.Device, error) {
			c, err := relidev.New(sites, scheme, append(opts, relidev.WithGeometry(geom))...)
			if err != nil {
				return nil, err
			}
			return c.Device(0)
		}
	}
	// The public Cluster only meters; a traced one is core's.
	traced := func(sites int, scheme core.SchemeKind) func() (relidev.Device, error) {
		return func() (relidev.Device, error) {
			c, err := core.NewCluster(core.ClusterConfig{Sites: sites, Scheme: scheme, Geometry: geom,
				Observer: obs.New(obs.WithTracing(1 << 12))})
			if err != nil {
				return nil, err
			}
			return c.Device(0)
		}
	}
	type counts struct{ read, write float64 }
	measured := map[string]counts{}
	for _, tc := range []struct {
		name, scheme string
		device       func() (relidev.Device, error)
		want         counts
	}{
		{"unmetered", "voting", public(5, relidev.Voting), counts{8, 7}},
		{"untraced", "voting", public(5, relidev.Voting, relidev.WithMetering()), counts{8, 7}},
		{"traced", "voting", traced(5, core.Voting), counts{8, 7}},
		{"ac-unmetered", "ac", public(3, relidev.AvailableCopy), counts{1, 3}},
		{"ac-untraced", "ac", public(3, relidev.AvailableCopy, relidev.WithMetering()), counts{1, 3}},
		{"ac-traced", "ac", traced(3, core.AvailableCopy), counts{1, 3}},
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
			var got counts
			if got.write = testing.AllocsPerRun(200, write); got.write != tc.want.write {
				t.Errorf("write: %v allocations, budget is exactly %v", got.write, tc.want.write)
			}
			if got.read = testing.AllocsPerRun(200, func() {
				if _, err := dev.ReadBlock(ctx, 300); err != nil {
					t.Fatal(err)
				}
			}); got.read != tc.want.read {
				t.Errorf("read: %v allocations, budget is exactly %v", got.read, tc.want.read)
			}
			measured[tc.name] = got
			// Observation costs no allocation: a metered or traced op
			// allocates exactly what the same op unmetered does.
			bare := "unmetered"
			if tc.scheme == "ac" {
				bare = "ac-unmetered"
			}
			if base, ok := measured[bare]; ok && got != base {
				t.Errorf("%+v allocations, but %+v unmetered", got, base)
			}
		})
	}
}

// TestVotingPreImageHeap bounds what a voting site keeps beside its
// block image. Two coordinators of a 5-site cluster with the benchmark's
// geometry write every block, twice. A replica keeps a staged pre-image
// only while its coordinator can still abort it — one per (coordinator,
// stripe), 2 × 64 blocks here — so after a collection the live heap is
// the five 16 MiB images plus a little. A pre-image kept per written
// block would put a second 16 MiB beside each image, about 1.8 times
// the bound. The race detector allocates, hence the build tag.
func TestVotingPreImageHeap(t *testing.T) {
	geom := relidev.Geometry{BlockSize: 4096, NumBlocks: 4096}
	const sites = 5
	c, err := relidev.New(sites, relidev.Voting, relidev.WithGeometry(geom))
	if err != nil {
		t.Fatal(err)
	}
	var coords [2]relidev.Device
	for i := range coords {
		if coords[i], err = c.Device(i); err != nil {
			t.Fatal(err)
		}
	}
	ctx, payload := context.Background(), make([]byte, geom.BlockSize)
	for range 2 {
		for b := range geom.NumBlocks {
			for _, dev := range coords {
				if err := dev.WriteBlock(ctx, relidev.Index(b), payload); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	images := uint64(sites * geom.NumBlocks * geom.BlockSize)
	t.Logf("live heap %.1f MiB, %.2f times the %d images", float64(ms.HeapAlloc)/(1<<20), float64(ms.HeapAlloc)/float64(images), sites)
	if ms.HeapAlloc > images*115/100 {
		t.Fatalf("live heap %d B is over 1.15 times the %d images' %d B", ms.HeapAlloc, sites, images)
	}
	runtime.KeepAlive(c)
}
