package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"sort"
	"time"

	"relidev"
	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/rpcnet"
	"relidev/internal/scheme"
	"relidev/internal/simnet"
	"relidev/internal/site"
	"relidev/internal/store"
)

// The ladder times each layer alone: one goroutine, a fixed number of
// calls, the median of five repeats. The rungs are what the per-layer
// self times of a traced workload are made of, measured with nothing
// else running.

const ladderReps = 5

// rung returns the median over ladderReps of the time n calls of f take,
// in nanoseconds per call.
func rung(n int, f func(i int)) float64 {
	var per []float64
	for r := 0; r < ladderReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(r*n + i)
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// wireRequest has the shape of rpcnet's unexported request frame.
type wireRequest struct {
	From  protocol.SiteID
	Req   protocol.Request
	Trace protocol.SpanContext
}

// firstErr keeps the first error of a rung's many calls.
type firstErr struct{ err error }

func (f *firstErr) ok(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

func runLadder(ctx context.Context, e env, v map[string]float64) error {
	dir, err := os.MkdirTemp(e.workDir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var fe firstErr
	n := func(calls int) int { return e.scaled(calls) }
	payload := newPayload()
	idx := func(i int) block.Index { return block.Index(i * 2654435761 % geometry.NumBlocks) }

	mem, err := store.NewMem(geometry)
	if err != nil {
		return err
	}
	v["ladder.store_mem_write_ns"] = rung(n(20000), func(i int) {
		fe.ok(mem.Write(idx(i), payload, block.Version(i+1)))
	})

	seg, err := store.CreateSeg(filepath.Join(dir, "seg"), geometry)
	if err != nil {
		return err
	}
	defer seg.Close()
	v["ladder.store_seg_append_ns"] = rung(n(1000), func(i int) {
		fe.ok(seg.Write(idx(i), payload, block.Version(i+1)))
	})
	var syncs []float64
	for i := 0; i < n(200); i++ {
		fe.ok(seg.Write(idx(i), payload, block.Version(1<<20+i)))
		t0 := time.Now()
		fe.ok(seg.Sync())
		syncs = append(syncs, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(syncs)
	v["ladder.store_seg_sync_p50_us"], v["ladder.store_seg_sync_p90_us"] = quantile(syncs, 0.5), quantile(syncs, 0.9)

	small := block.Geometry{BlockSize: 512, NumBlocks: geometry.NumBlocks}
	seg512, err := store.CreateSeg(filepath.Join(dir, "seg512"), small)
	if err != nil {
		return err
	}
	defer seg512.Close()
	v["ladder.store_seg_append_512_ns"] = rung(n(4000), func(i int) {
		fe.ok(seg512.Write(idx(i), payload[:512], block.Version(i+1)))
	})

	file, err := store.CreateFile(filepath.Join(dir, "file.img"), geometry)
	if err != nil {
		return err
	}
	defer file.Close()
	v["ladder.store_file_write_us"] = rung(n(2000), func(i int) {
		fe.ok(file.Write(idx(i), payload, block.Version(i+1)))
	}) / 1e3

	under, err := store.CreateSeg(filepath.Join(dir, "batched"), geometry)
	if err != nil {
		return err
	}
	batched := store.NewBatcher(under, store.BatchPolicy{MaxBatch: 64})
	defer batched.Close()
	v["ladder.batcher_write_us"] = rung(n(60), func(i int) {
		fe.ok(batched.Write(idx(i), payload, block.Version(i+1)))
	}) / 1e3

	// One encoder and decoder per stream, as on an rpcnet connection:
	// the type description is sent once, not per message.
	protocol.RegisterGob()
	var wire bytes.Buffer
	enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&wire)
	put := protocol.PutRequest{Block: 7, Data: payload, Version: 9, HasW: true, WasAvail: protocol.FullSet(3)}
	var decoded wireRequest
	fe.ok(enc.Encode(wireRequest{From: 1, Req: put}))
	fe.ok(dec.Decode(&decoded))
	var encoded int
	v["ladder.codec_put_enc_ns"] = rung(n(5000), func(int) {
		wire.Reset()
		fe.ok(enc.Encode(wireRequest{From: 1, Req: put}))
		encoded = wire.Len()
	})
	v["ladder.codec_bytes_over_wiresize"] = float64(encoded) / float64(protocol.WireSize(put))
	wire.Reset()
	for i := 0; i < n(5000)*ladderReps; i++ {
		fe.ok(enc.Encode(wireRequest{From: 1, Req: put}))
	}
	v["ladder.codec_put_dec_ns"] = rung(n(5000), func(int) {
		fe.ok(dec.Decode(&decoded))
	})

	var replicas [5]*site.Replica
	for i := range replicas {
		st, err := store.NewMem(geometry)
		if err != nil {
			return err
		}
		if replicas[i], err = site.New(site.Config{ID: protocol.SiteID(i), Store: st}); err != nil {
			return err
		}
	}
	net := simnet.New(simnet.Multicast)
	for i, r := range replicas {
		net.Attach(protocol.SiteID(i), r)
	}
	v["ladder.simnet_call_ns"] = rung(n(50000), func(i int) {
		_, err := net.Call(ctx, 0, 1, protocol.VoteRequest{Block: idx(i)})
		fe.ok(err)
	})
	others := []protocol.SiteID{1, 2, 3, 4}
	v["ladder.simnet_broadcast4_ns"] = rung(n(20000), func(i int) {
		for _, res := range net.Broadcast(ctx, 0, others, protocol.VoteRequest{Block: idx(i)}) {
			fe.ok(res.Err)
		}
	})

	server, err := rpcnet.Serve("127.0.0.1:0", replicas[1])
	if err != nil {
		return err
	}
	defer server.Close()
	client, err := rpcnet.NewClient(0, map[protocol.SiteID]string{1: server.Addr()}, 0)
	if err != nil {
		return err
	}
	defer client.Close()
	v["ladder.rpcnet_call_us"] = rung(n(4000), func(i int) {
		_, err := client.Call(ctx, 0, 1, protocol.VoteRequest{Block: idx(i)})
		fe.ok(err)
	}) / 1e3

	var locks scheme.OpLocks
	v["ladder.locks_op_ns"] = rung(n(200000), func(i int) {
		locks.LockOp(idx(i))
		locks.UnlockOp(idx(i))
	})

	// What metering adds to the cheapest op there is, a local
	// available-copy read.
	localRead := func(opts ...relidev.Option) (float64, error) {
		c, err := relidev.New(3, relidev.AvailableCopy, append(opts, relidev.WithGeometry(geometry))...)
		if err != nil {
			return 0, err
		}
		dev, err := c.Device(0)
		if err != nil {
			return 0, err
		}
		return rung(n(50000), func(i int) {
			_, err := dev.ReadBlock(ctx, idx(i))
			fe.ok(err)
		}), nil
	}
	metered, err := localRead(relidev.WithMetering())
	if err != nil {
		return err
	}
	bare, err := localRead()
	if err != nil {
		return err
	}
	v["ladder.obs_op_ns"] = metered - bare

	v["ladder.site_put_ns"] = rung(n(20000), func(i int) {
		_, err := replicas[4].Handle(ctx, 0, protocol.PutRequest{Block: idx(i), Data: payload, Version: block.Version(i + 1)})
		fe.ok(err)
	})

	// A sim_voting_n5 write waits for its locks, the obs preamble, the
	// fan-out to the four other sites, a put handled at each (side by
	// side, so one is on the path) and its own store write. If the rungs
	// covered the path, their sum would be close to the write's latency
	// with one client. What they leave out — metering and tracing of each
	// message, the pre-image a prepare-write keeps, allocation and GC —
	// is the distance to 1.
	c, err := relidev.New(5, relidev.Voting, relidev.WithGeometry(geometry), relidev.WithMetering())
	if err != nil {
		return err
	}
	dev, err := c.Device(0)
	if err != nil {
		return err
	}
	lat := make([]int64, 0, n(20000))
	for i := 0; i < cap(lat); i++ {
		t0 := time.Now()
		fe.ok(dev.WriteBlock(ctx, idx(i), payload))
		lat = append(lat, int64(time.Since(t0)))
	}
	p50 := durQuantilesUs(lat, 0.5)[0] * 1e3
	sum := v["ladder.locks_op_ns"] + v["ladder.obs_op_ns"] + v["ladder.simnet_broadcast4_ns"] + v["ladder.site_put_ns"] + v["ladder.store_mem_write_ns"]
	v["ladder.write_sum_ratio"] = sum / p50
	return fe.err
}
