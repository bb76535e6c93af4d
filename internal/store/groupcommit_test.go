package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relidev/internal/block"
	"relidev/internal/clock"
)

// syncCountingStore wraps a Store+Syncer and counts Sync calls, so the
// tests can assert how many fsyncs a workload cost. With syncErr set,
// each Sync fails with it instead.
type syncCountingStore struct {
	Store
	syncs, runs, swaps atomic.Int64
	syncErr            error
}

func (s *syncCountingStore) Sync() error {
	s.syncs.Add(1)
	if s.syncErr != nil {
		return s.syncErr
	}
	return s.Store.(Syncer).Sync()
}

// Swap passes swaps through to the wrapped store, counting them.
func (s *syncCountingStore) Swap(idx block.Index, buf []byte, ver block.Version) ([]byte, error) {
	s.swaps.Add(1)
	return Swap(s.Store, idx, buf, ver)
}

// WriteRun passes runs through to the wrapped store, counting them.
func (s *syncCountingStore) WriteRun(ins []Install) error {
	s.runs.Add(1)
	return WriteRun(s.Store, ins)
}

// TestBatcherWriteRunSyncsOnce: a 256-block page through a Batcher is
// one batch entry — one WriteRun of the segment store underneath, then
// exactly one Sync — where 256 Writes from one writer cost 256.
func TestBatcherWriteRunSyncsOnce(t *testing.T) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 512}
	seg, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), geom)
	if err != nil {
		t.Fatal(err)
	}
	counted := &syncCountingStore{Store: seg}
	var sizes []int
	b := NewBatcher(counted, BatchPolicy{MaxBatch: 64}, WithFlushObserver(func(n int) { sizes = append(sizes, n) }))
	defer b.Close()
	run := make([]Install, 256)
	for i := range run {
		run[i] = Install{Index: block.Index(2 * i), Data: fill(byte(i), geom.BlockSize), Version: 1}
	}
	if err := b.WriteRun(run); err != nil {
		t.Fatal(err)
	}
	if s, r := counted.syncs.Load(), counted.runs.Load(); s != 1 || r != 1 || !reflect.DeepEqual(sizes, []int{1}) {
		t.Fatalf("a 256-block run cost %d syncs, %d store runs and batches %v, want 1, 1 and [1]", s, r, sizes)
	}
	for _, in := range run {
		if data, ver, err := b.Read(in.Index); err != nil || ver != 1 || data[0] != in.Data[0] {
			t.Fatalf("block %d after the run: version %d, err %v", in.Index, ver, err)
		}
	}
	if err := b.WriteRun([]Install{{Index: 1, Data: fill(1, geom.BlockSize-1), Version: 1}}); err == nil {
		t.Fatal("Batcher.WriteRun accepted a short block")
	}
	if s := counted.syncs.Load(); s != 1 {
		t.Fatalf("a refused run reached the flush: %d syncs", s)
	}
}

// TestBatcherSwapSyncsOnce: a Swap through a Batcher is one batch entry —
// one Swap of the segment store underneath, then one Sync — and the
// store keeps the caller's buffer. When that Sync fails the install has
// still happened, so prev comes back beside the error: the caller must
// know the store kept buf.
func TestBatcherSwapSyncsOnce(t *testing.T) {
	seg, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	counted := &syncCountingStore{Store: seg}
	b := NewBatcher(counted, BatchPolicy{MaxBatch: 8})
	defer b.Close()
	buf := fill(1, testGeom.BlockSize)
	prev, err := b.Swap(2, buf, 1)
	if err != nil || !bytes.Equal(prev, make([]byte, testGeom.BlockSize)) {
		t.Fatalf("Swap of a fresh block displaced %x (err %v), want zeros", prev, err)
	}
	if s, w := counted.syncs.Load(), counted.swaps.Load(); s != 1 || w != 1 {
		t.Fatalf("a Swap cost %d syncs and %d store swaps, want 1 and 1", s, w)
	}

	errSync := errors.New("fsync failed")
	counted.syncErr = errSync
	prev, err = b.Swap(2, fill(2, testGeom.BlockSize), 2)
	if !errors.Is(err, errSync) || prev == nil || &prev[0] != &buf[0] {
		t.Fatalf("Swap over a failing Sync = %p, %v; want the first Swap's buffer and the sync error", prev, err)
	}
	if data, ver, err := b.Read(2); err != nil || ver != 2 || data[0] != 2 {
		t.Fatalf("block after the unsynced Swap = %d@%d (err %v), want it installed", data[0], ver, err)
	}
}

func TestBatcherCoalescesConcurrentWrites(t *testing.T) {
	seg, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	counted := &syncCountingStore{Store: seg}
	var batches []int
	var batchMu sync.Mutex
	b := NewBatcher(counted, BatchPolicy{MaxBatch: 64},
		WithFlushObserver(func(n int) {
			batchMu.Lock()
			batches = append(batches, n)
			batchMu.Unlock()
		}))
	defer b.Close()

	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				idx := block.Index((w + i) % testGeom.NumBlocks)
				if err := b.Write(idx, fill(byte(w), testGeom.BlockSize), block.Version(w*100+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	total := int64(writers * 25)
	if got := counted.syncs.Load(); got >= total {
		t.Fatalf("%d syncs for %d writes: group commit coalesced nothing", got, total)
	}
	batchMu.Lock()
	defer batchMu.Unlock()
	var sum, max int
	for _, n := range batches {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum != int(total) {
		t.Fatalf("flush observer saw %d writes, want %d", sum, total)
	}
	if max < 2 {
		t.Fatalf("largest batch = %d, 16 concurrent writers never shared a flush", max)
	}
}

func TestBatcherMaxDelayHoldsForJoiners(t *testing.T) {
	seg, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	// A manual clock's timers never fire on their own; the test drives
	// them. This keeps batch boundaries deterministic — the same
	// discipline detcheck enforces on the package itself.
	clk := clock.NewManual()
	var batches []int
	var batchMu sync.Mutex
	flushed := make(chan struct{}, 16)
	b := NewBatcher(seg, BatchPolicy{MaxDelay: time.Second, MaxBatch: 64},
		WithBatchClock(clk),
		WithFlushObserver(func(n int) {
			batchMu.Lock()
			batches = append(batches, n)
			batchMu.Unlock()
			flushed <- struct{}{}
		}))
	defer b.Close()

	// Three writers join; the leader's timer has not fired, so nothing
	// flushes until the clock is driven.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Write(block.Index(i), fill(byte(i), testGeom.BlockSize), 1); err != nil {
				t.Error(err)
			}
		}()
	}
	// Wait until the leader is parked on its timer with all three
	// writes in hand, then let MaxDelay pass. Advancing repeatedly is
	// harmless: only a timer that exists can go off.
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		clk.Advance(time.Second)
		select {
		case <-done:
			batchMu.Lock()
			n := len(batches)
			batchMu.Unlock()
			if n == 0 {
				t.Fatal("writers released without a flush")
			}
			return
		case <-deadline:
			t.Fatal("writers never released; MaxDelay flush did not happen")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestBatcherMaxBatchFlushesWithoutTimer(t *testing.T) {
	seg, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewManual() // never advanced: MaxBatch alone must release writers
	b := NewBatcher(seg, BatchPolicy{MaxDelay: time.Hour, MaxBatch: 1},
		WithBatchClock(clk))
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- b.Write(0, fill(1, testGeom.BlockSize), 1)
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MaxBatch=1 write waited on the timer")
	}
}

func TestBatcherWriteVisibleAfterReturn(t *testing.T) {
	mem, err := NewMem(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(mem, BatchPolicy{MaxBatch: 8})
	defer b.Close()
	data := fill(0x42, testGeom.BlockSize)
	if err := b.Write(5, data, 7); err != nil {
		t.Fatal(err)
	}
	got, ver, err := b.Read(5)
	if err != nil || ver != 7 || !bytes.Equal(got, data) {
		t.Fatalf("Read after batched Write = ver %v err %v", ver, err)
	}
	if err := b.SaveMeta([]byte("m")); err != nil {
		t.Fatal(err)
	}
	m, err := b.LoadMeta()
	if err != nil || string(m) != "m" {
		t.Fatalf("LoadMeta after batched SaveMeta = %q, %v", m, err)
	}
}

func TestBatcherCloseRejectsLateWrites(t *testing.T) {
	mem, _ := NewMem(testGeom)
	b := NewBatcher(mem, BatchPolicy{MaxBatch: 4})
	if err := b.Write(0, fill(1, testGeom.BlockSize), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0, fill(2, testGeom.BlockSize), 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestBatcherFlushStats: the WithFlushStats observer sees every write
// exactly once with a well-formed phase breakdown — per-request queue
// waits measured from enqueue to flush start, an apply slice, and a
// sync slice (only for stores with a Syncer). The now-source is a
// counter, so every phase boundary is a strictly positive tick.
func TestBatcherFlushStats(t *testing.T) {
	seg, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	var tick atomic.Int64
	now := func() int64 { return tick.Add(1) }
	var mu sync.Mutex
	var flushes []FlushStats
	b := NewBatcher(seg, BatchPolicy{MaxBatch: 8},
		WithFlushStats(func(s FlushStats) {
			mu.Lock()
			flushes = append(flushes, s)
			mu.Unlock()
		}, now))

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Write(block.Index(w%testGeom.NumBlocks), fill(byte(w), testGeom.BlockSize), block.Version(w+1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	var writesSeen int
	for _, s := range flushes {
		writesSeen += s.Size
		if len(s.QueueWaitNs) != s.Size {
			t.Fatalf("flush reports %d queue waits for %d writes", len(s.QueueWaitNs), s.Size)
		}
		for i, qw := range s.QueueWaitNs {
			if qw <= 0 {
				t.Errorf("queue wait %d = %d, want > 0 (enqueue tick precedes flush tick)", i, qw)
			}
		}
		if s.ApplyNs <= 0 {
			t.Errorf("ApplyNs = %d, want > 0", s.ApplyNs)
		}
		if s.SyncNs <= 0 {
			t.Errorf("SyncNs = %d, want > 0 for a Syncer-backed store", s.SyncNs)
		}
	}
	if writesSeen != writers {
		t.Fatalf("flush stats covered %d writes, want %d", writesSeen, writers)
	}
}

// TestBatcherFlushStatsWithoutSyncer: a store with no Syncer reports a
// zero sync slice, and half-configured stats (nil fn or nil now) stay
// off entirely.
func TestBatcherFlushStatsWithoutSyncer(t *testing.T) {
	mem, err := NewMem(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	var tick atomic.Int64
	now := func() int64 { return tick.Add(1) }
	var got []FlushStats
	var mu sync.Mutex
	b := NewBatcher(mem, BatchPolicy{MaxBatch: 4},
		WithFlushStats(func(s FlushStats) { mu.Lock(); got = append(got, s); mu.Unlock() }, now))
	if err := b.Write(0, fill(1, testGeom.BlockSize), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(got) != 1 || got[0].SyncNs != 0 {
		t.Fatalf("flushes = %+v, want one flush with SyncNs 0", got)
	}
	mu.Unlock()

	mem2, err := NewMem(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBatcher(mem2, BatchPolicy{MaxBatch: 4}, WithFlushStats(nil, now))
	if err := b2.Write(0, fill(2, testGeom.BlockSize), 1); err != nil {
		t.Fatal(err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
}
