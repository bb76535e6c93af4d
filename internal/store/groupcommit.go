package store

import (
	"sync"
	"time"

	"relidev/internal/block"
	"relidev/internal/clock"
)

// Syncer is the durability hook a Batcher amortises: SegStore and
// FileStore both implement it.
type Syncer interface {
	Sync() error
}

// BatchPolicy tunes group commit. The fsync cost model (PAPERS.md,
// "Characterizing Synchronous Writes in Stable Memory Devices") makes
// the trade explicit: one fsync costs the same whether it covers one
// record or fifty, so waiting MaxDelay for joiners converts per-write
// sync cost into per-batch cost at the price of added latency.
type BatchPolicy struct {
	// MaxDelay is how long the flush leader waits for more writers to
	// join its batch. Zero means opportunistic batching: the leader
	// takes whatever is already queued and flushes immediately, adding
	// no latency while still coalescing under load.
	MaxDelay time.Duration

	// MaxBatch flushes the batch as soon as it holds this many writes,
	// regardless of MaxDelay. Values below 1 are treated as 1.
	MaxBatch int
}

// batchReq is one writer waiting for its records to be applied and
// made durable: a WriteRun's installs, a Write's one (held in one), with
// meta a metadata area in run[0].Data, or with swap a Swap of run[0]
// that leaves the displaced buffer in prev. enq is the enqueue
// timestamp from the injected now-source (zero when flush stats are
// off).
type batchReq struct {
	run  []Install
	one  [1]Install
	meta bool
	swap bool
	prev []byte
	enq  int64
	done chan error
}

// FlushStats is one flushed batch's critical-path breakdown, reported
// to the WithFlushStats observer: how long each request queued before
// the flush started, and how the flush itself split between applying
// records and the single durability sync. All durations come from the
// injected now-source, so deterministic harnesses replay them.
type FlushStats struct {
	// Size is the batch occupancy (writes sharing this flush).
	Size int
	// QueueWaitNs holds each request's wait from enqueue to flush
	// start, in batch order.
	QueueWaitNs []int64
	// ApplyNs is the time spent writing the batch into the store.
	ApplyNs int64
	// SyncNs is the time spent in the store's Sync (zero when the store
	// has no Syncer).
	SyncNs int64
}

// Batcher is a Store wrapper that coalesces concurrent writes into a
// single apply+fsync (group commit). Each Write blocks until its
// record is durable, so callers keep the same completion semantics as
// an unbatched synchronous store; the saving is that N concurrent
// writers share one fsync instead of paying for N.
type Batcher struct {
	st     Store
	syncer Syncer
	policy BatchPolicy
	clock  clock.Clock

	// onFlush, when set, observes each batch's occupancy; core wires
	// this to the obs gauge so batch sizes are visible live.
	onFlush func(batchSize int)

	// onStats and now, when set together, observe each batch's phase
	// breakdown (queue wait / apply / fsync); the wiring layer feeds
	// the relidev_store_phase_ns histograms from it.
	onStats func(FlushStats)
	now     func() int64

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
	reqs   chan *batchReq
}

var _ Store = (*Batcher)(nil)

// BatchOption tunes a Batcher.
type BatchOption func(*Batcher)

// WithBatchClock injects the timer source used for MaxDelay waits
// (default clock.Wall); the flush policy never reads the wall clock
// directly, so a *clock.Manual makes batch boundaries replay.
func WithBatchClock(c clock.Clock) BatchOption {
	return func(b *Batcher) { b.clock = c }
}

// WithFlushObserver registers a callback invoked with each flushed
// batch's size.
func WithFlushObserver(fn func(batchSize int)) BatchOption {
	return func(b *Batcher) { b.onFlush = fn }
}

// WithFlushStats registers a phase-breakdown observer for every flush,
// timed by now (nanoseconds; the caller injects its clock so the
// batcher itself never reads the wall clock). Both must be non-nil for
// stats to be collected.
func WithFlushStats(fn func(FlushStats), now func() int64) BatchOption {
	return func(b *Batcher) {
		if fn != nil && now != nil {
			b.onStats, b.now = fn, now
		}
	}
}

// NewBatcher wraps st with group commit under the given policy. If st
// implements Syncer each batch ends with one Sync call; otherwise the
// batch boundary only bounds write latency.
func NewBatcher(st Store, policy BatchPolicy, opts ...BatchOption) *Batcher {
	if policy.MaxBatch < 1 {
		policy.MaxBatch = 1
	}
	b := &Batcher{
		st:     st,
		policy: policy,
		clock:  clock.Wall,
		reqs:   make(chan *batchReq, 4*policy.MaxBatch),
	}
	if sy, ok := st.(Syncer); ok {
		b.syncer = sy
	}
	for _, opt := range opts {
		opt(b)
	}
	b.wg.Add(1)
	go b.flushLoop()
	return b
}

// Geometry returns the device shape.
func (b *Batcher) Geometry() block.Geometry { return b.st.Geometry() }

// Read passes through to the underlying store.
func (b *Batcher) Read(idx block.Index) ([]byte, block.Version, error) { return b.st.Read(idx) }

// Version passes through to the underlying store.
func (b *Batcher) Version(idx block.Index) (block.Version, error) { return b.st.Version(idx) }

// Vector passes through to the underlying store.
func (b *Batcher) Vector() block.Vector { return b.st.Vector() }

// LoadMeta passes through to the underlying store.
func (b *Batcher) LoadMeta() ([]byte, error) { return b.st.LoadMeta() }

// Write enqueues the record and blocks until the batch holding it has
// been applied and synced.
func (b *Batcher) Write(idx block.Index, data []byte, ver block.Version) error {
	_, err := b.submitOne(idx, data, ver, false)
	return err
}

// Swap is Write through the underlying store's Swap (see the package
// func Swap): prev comes back even when the batch's Sync fails.
func (b *Batcher) Swap(idx block.Index, buf []byte, ver block.Version) (prev []byte, err error) {
	return b.submitOne(idx, buf, ver, true)
}

func (b *Batcher) submitOne(idx block.Index, data []byte, ver block.Version, swap bool) ([]byte, error) {
	if err := checkWrite(b.st.Geometry(), idx, data); err != nil {
		return nil, err
	}
	req := &batchReq{one: [1]Install{{Index: idx, Data: data, Version: ver}}, swap: swap}
	req.run = req.one[:]
	err := b.submit(req)
	return req.prev, err
}

// WriteRun enqueues the run as one batch entry — one apply through the
// underlying store's WriteRun, then the batch's one Sync — and blocks
// until it is durable: a page of installs costs one fsync, not one per
// block.
func (b *Batcher) WriteRun(ins []Install) error {
	for _, in := range ins {
		if err := checkWrite(b.st.Geometry(), in.Index, in.Data); err != nil {
			return err
		}
	}
	return b.submit(&batchReq{run: ins})
}

// SaveMeta rides the same batch queue so metadata updates share the
// group fsync too.
func (b *Batcher) SaveMeta(meta []byte) error {
	req := &batchReq{one: [1]Install{{Data: meta}}, meta: true}
	req.run = req.one[:]
	return b.submit(req)
}

func (b *Batcher) submit(req *batchReq) error {
	req.done = make(chan error, 1)
	if b.now != nil {
		req.enq = b.now()
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.reqs <- req
	b.mu.Unlock()
	return <-req.done
}

// Close drains the queue, flushes the final batch, and closes the
// underlying store.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.reqs)
	b.mu.Unlock()
	b.wg.Wait()
	return b.st.Close()
}

// flushLoop is the group-commit leader: it collects a batch per the
// policy, applies it, syncs once, and releases every writer in it.
func (b *Batcher) flushLoop() {
	defer b.wg.Done()
	for {
		req, ok := <-b.reqs
		if !ok {
			return
		}
		batch := b.collect(req)
		b.flush(batch)
	}
}

// collect gathers a batch starting from the leader request: first any
// writes already queued, then — when MaxDelay allows — joiners that
// arrive before the timer fires, up to MaxBatch.
func (b *Batcher) collect(leader *batchReq) []*batchReq {
	batch := []*batchReq{leader}
drain:
	for len(batch) < b.policy.MaxBatch {
		select {
		case r, ok := <-b.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		default:
			break drain
		}
	}
	if b.policy.MaxDelay <= 0 || len(batch) >= b.policy.MaxBatch {
		return batch
	}
	timer := b.clock.NewTimer(b.policy.MaxDelay)
	defer timer.Stop()
	for len(batch) < b.policy.MaxBatch {
		select {
		case r, ok := <-b.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// flush applies a batch in arrival order, syncs once, and completes
// every request. Apply errors are per-request; a sync failure fails
// the whole batch, because none of its records are known durable.
func (b *Batcher) flush(batch []*batchReq) {
	var stats FlushStats
	var t0 int64
	if b.onStats != nil {
		t0 = b.now()
		stats.Size = len(batch)
		stats.QueueWaitNs = make([]int64, len(batch))
		for i, r := range batch {
			stats.QueueWaitNs[i] = t0 - r.enq
		}
	}
	errs := make([]error, len(batch))
	for i, r := range batch {
		switch {
		case r.meta:
			errs[i] = b.st.SaveMeta(r.run[0].Data)
		case r.swap:
			in := r.run[0]
			r.prev, errs[i] = Swap(b.st, in.Index, in.Data, in.Version)
		default:
			errs[i] = WriteRun(b.st, r.run)
		}
	}
	var applied int64
	if b.onStats != nil {
		applied = b.now()
		stats.ApplyNs = applied - t0
	}
	if b.syncer != nil {
		if err := b.syncer.Sync(); err != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
		}
		if b.onStats != nil {
			stats.SyncNs = b.now() - applied
		}
	}
	if b.onFlush != nil {
		b.onFlush(len(batch))
	}
	if b.onStats != nil {
		b.onStats(stats)
	}
	for i, r := range batch {
		r.done <- errs[i]
	}
}
