package obs

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Histogram shard and bucket layout. Buckets are exponential with
// nanosecond bounds: bucket i holds observations in
// (1024<<(i-1), 1024<<i] ns — roughly 1µs up to ~68s — with bucket 0
// catching everything at or below 1µs and a final overflow bucket
// (upper bound rendered as +Inf). The layout is fixed and bounded so a
// histogram is a flat block of atomics with no allocation on the
// record path.
const (
	histShards  = 8
	histBuckets = 28
	bucketBase  = 1024 // ns upper bound of bucket 0
)

// A BucketCount is one histogram bucket in a snapshot. UpperNs is the
// inclusive upper bound in nanoseconds; -1 marks the overflow bucket.
type BucketCount struct {
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// histShard is one shard's counters, padded to its own cache lines so
// concurrent recorders on different shards do not false-share. It keeps
// no count: a snapshot sums the buckets.
type histShard struct {
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
	_       [64 - (1+histBuckets)*8%64]byte
}

// A Histogram records latency observations into bounded exponential
// buckets, sharded like simnet's §5 counters: recorders pick a shard
// from their own stack address (goroutines live on distinct stacks, so
// concurrent recorders spread across shards without sharing a cursor),
// and snapshots merge the shards. The zero value is ready to use; a
// nil pointer discards observations.
type Histogram struct {
	shards [histShards]histShard
}

// bucketFor maps an observation to its bucket index.
func bucketFor(ns int64) int {
	if ns <= bucketBase {
		return 0
	}
	b := bits.Len64(uint64(ns-1) / bucketBase)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// shardIndex picks the recording shard from the caller's stack
// address. Distinct goroutines occupy distinct stacks, so concurrent
// recorders tend to land on distinct shards; unlike a shared cursor
// this costs no cross-core write.
func shardIndex() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe)) >> 10 % histShards)
}

// Observe records one latency observation in nanoseconds: two atomic
// adds, one for a zero, which leaves the sum as it is. Negative
// observations are clamped to zero.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	s := &h.shards[shardIndex()]
	if ns > 0 {
		s.sum.Add(uint64(ns))
	} else {
		ns = 0
	}
	s.buckets[bucketFor(ns)].Add(1)
}

// snapshotPoint merges the shards into a HistogramPoint (name and
// labels are filled by the registry). Merged totals equal the sum of
// per-shard records: the merge only adds, and the count is the sum of
// the buckets.
func (h *Histogram) snapshotPoint() HistogramPoint {
	var p HistogramPoint
	if h == nil {
		return p
	}
	var buckets [histBuckets]uint64
	for i := range h.shards {
		s := &h.shards[i]
		p.Sum += s.sum.Load()
		for b := range s.buckets {
			buckets[b] += s.buckets[b].Load()
		}
	}
	for b, c := range buckets {
		if c == 0 {
			continue
		}
		p.Count += c
		upper := int64(bucketBase) << uint(b)
		if b == histBuckets-1 {
			upper = -1 // overflow: +Inf
		}
		p.Buckets = append(p.Buckets, BucketCount{UpperNs: upper, Count: c})
	}
	return p
}
