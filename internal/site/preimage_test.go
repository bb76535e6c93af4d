package site

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

// failStore makes the next n Writes of the store it wraps fail without
// touching the block. It hides every optional capability of that store,
// so a replica over it stages through store.Swap's Read+Write fallback
// (the shape a store implemented outside this module has).
type failStore struct {
	store.Store
	mu sync.Mutex
	n  int
}

var errDisk = errors.New("disk on fire")

func (f *failStore) failNext(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n = n
}

// fail consumes one pending failure, if any.
func (f *failStore) fail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == 0 {
		return false
	}
	f.n--
	return true
}

func (f *failStore) Write(idx block.Index, data []byte, ver block.Version) error {
	if f.fail() {
		return errDisk
	}
	return f.Store.Write(idx, data, ver)
}

// swapStore is a failStore that keeps its store's Swap, failing it too.
type swapStore struct{ *failStore }

func (s swapStore) Swap(idx block.Index, buf []byte, ver block.Version) ([]byte, error) {
	if s.fail() {
		return nil, errDisk
	}
	return store.Swap(s.Store, idx, buf, ver)
}

func prepare(t *testing.T, r *Replica, from protocol.SiteID, idx block.Index, data string, ver block.Version) protocol.PrepareWriteReply {
	t.Helper()
	resp, err := r.Handle(context.Background(), from, protocol.PrepareWriteRequest{Block: idx, Data: pad(data), Version: ver})
	if err != nil {
		t.Fatalf("prepare %q@%d from %v: %v", data, ver, from, err)
	}
	return resp.(protocol.PrepareWriteReply)
}

func abort(t *testing.T, r *Replica, from protocol.SiteID, idx block.Index, ver block.Version) {
	t.Helper()
	if _, err := r.Handle(context.Background(), from, protocol.AbortWriteRequest{Block: idx, Version: ver}); err != nil {
		t.Fatalf("abort @%d from %v: %v", ver, from, err)
	}
}

// liveRecord returns the record retaining block idx's staged pre-image,
// or nil when none does: the tests' one window on the replica's records.
func liveRecord(r *Replica, idx block.Index) *provRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveRecord(idx)
}

func wantBlock(t *testing.T, r *Replica, idx block.Index, data string, ver block.Version) {
	t.Helper()
	got, v, err := r.ReadLocal(idx)
	if err != nil {
		t.Fatal(err)
	}
	if v != ver || !bytes.Equal(got, pad(data)) {
		t.Fatalf("block %d = %q@%d, want %q@%d", idx, bytes.TrimRight(got, "\x00"), v, data, ver)
	}
}

// stageKinds runs a pre-image test over repairStores' three stores, which
// stage by swapping buffers, and over a MemStore without Swap ("plain"),
// which stages through the Read+Write fallback: every pre-image test
// must read the same either way. failNext(n) makes the next n Writes and
// Swaps fail without touching the block; swaps says whether the store
// keeps the buffers it is handed.
func stageKinds(t *testing.T, run func(t *testing.T, r *Replica, failNext func(n int), swaps bool)) {
	for _, kind := range []string{"mem", "seg", "batched", "plain"} {
		t.Run(kind, func(t *testing.T) {
			var st store.Store
			f := &failStore{}
			if kind == "plain" {
				f.Store, st = openStore(t, "mem"), f
			} else {
				f.Store, st = openStore(t, kind), swapStore{f}
			}
			r, err := New(Config{ID: 0, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			run(t, r, f.failNext, kind != "plain")
		})
	}
}

// Stage A (coordinator 1), then stage B (coordinator 2) over it: B
// supersedes A's record and recycles its buffer. Aborting B must
// restore A's data bit for bit — on a store that swaps, by reinstalling
// the record's own buffer and leaving B's staged buffer as the spare —
// and a late abort of A is a no-op.
func TestAbortAfterRecycledPreImage(t *testing.T) {
	stageKinds(t, func(t *testing.T, r *Replica, _ func(int), swaps bool) {
		// Cycle the spare once on another block so B's pre-image lands
		// in a buffer that has held other bytes.
		prepare(t, r, 1, 5, "x1", 1)
		prepare(t, r, 1, 5, "x2", 2)

		if !prepare(t, r, 1, 3, "A", 1).Staged {
			t.Fatal("A not staged")
		}
		staged := make([]byte, testGeom.BlockSize)
		r.spare = staged // B's payload is copied here
		if !prepare(t, r, 2, 3, "B", 2).Staged {
			t.Fatal("B not staged")
		}
		wantBlock(t, r, 3, "B", 2)
		record := liveRecord(r, 3).prevData
		abort(t, r, 2, 3, 2)
		wantBlock(t, r, 3, "A", 1)
		abort(t, r, 1, 3, 1) // A's record left prov when B superseded it
		wantBlock(t, r, 3, "A", 1)
		wantBlock(t, r, 5, "x2", 2)
		if !swaps {
			return
		}
		if &r.spare[0] != &staged[0] {
			t.Fatal("the abort did not leave B's staged buffer as the spare")
		}
		installed, err := store.Swap(r.st, 3, make([]byte, testGeom.BlockSize), 3)
		if err != nil || &installed[0] != &record[0] {
			t.Fatalf("the abort did not reinstall the record's own buffer (err %v)", err)
		}
	})
}

// A store whose Write or Swap fails in the middle of stage B leaves
// stage A's record live and unclobbered: A's abort still restores the
// bytes A displaced.
func TestFailedStageKeepsEarlierRecord(t *testing.T) {
	stageKinds(t, func(t *testing.T, r *Replica, failNext func(int), _ bool) {
		if err := r.WriteLocal(3, pad("base"), 4); err != nil {
			t.Fatal(err)
		}
		prepare(t, r, 1, 3, "A", 5)
		failNext(1)
		if _, err := r.Handle(context.Background(), 2, protocol.PrepareWriteRequest{Block: 3, Data: pad("B"), Version: 6}); !errors.Is(err, errDisk) {
			t.Fatalf("stage B over a failing store: err = %v, want errDisk", err)
		}
		wantBlock(t, r, 3, "A", 5)
		// The buffer B copied its payload into went back to the spare;
		// staging elsewhere reuses it and must not disturb A's record.
		prepare(t, r, 2, 6, "y", 1)
		abort(t, r, 1, 3, 5)
		wantBlock(t, r, 3, "base", 4)
	})
}

// failSync is a segment store whose Sync always fails.
type failSync struct{ *store.SegStore }

func (failSync) Sync() error { return errDisk }

// Behind a Batcher whose Sync fails, a stage has still installed: the
// replica answers with the error, never takes back as its spare the
// buffer the store kept, and keeps the record, so the coordinator's
// abort restores the block (and fails the same way).
func TestStageThroughFailedSync(t *testing.T) {
	seg, err := store.CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewBatcher(failSync{seg}, store.BatchPolicy{MaxBatch: 8})
	defer st.Close()
	r, err := New(Config{ID: 0, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	staged := make([]byte, testGeom.BlockSize)
	r.spare = staged
	if _, err := r.Handle(context.Background(), 1, protocol.PrepareWriteRequest{Block: 3, Data: pad("A"), Version: 1}); !errors.Is(err, errDisk) {
		t.Fatalf("stage over a failing Sync: err = %v, want errDisk", err)
	}
	wantBlock(t, r, 3, "A", 1)
	if len(r.spare) > 0 && &r.spare[0] == &staged[0] {
		t.Fatal("the replica kept as its spare the buffer the store installed")
	}
	if _, err := r.Handle(context.Background(), 1, protocol.AbortWriteRequest{Block: 3, Version: 1}); !errors.Is(err, errDisk) {
		t.Fatalf("abort over a failing Sync: err = %v, want errDisk", err)
	}
	wantBlock(t, r, 3, "", 0)
	if &r.spare[0] != &staged[0] {
		t.Fatal("the abort did not hand the staged buffer back as the spare")
	}
}

// Concurrent stage/abort cycles on distinct blocks share the replica's
// one spare buffer; every block must end with exactly its own bytes.
func TestConcurrentStagesRecyclePreImages(t *testing.T) {
	stageKinds(t, func(t *testing.T, r *Replica, _ func(int), _ bool) {
		var wg sync.WaitGroup
		for b := 0; b < testGeom.NumBlocks; b++ {
			wg.Add(1)
			go func(idx block.Index) {
				defer wg.Done()
				name := func(v block.Version) string { return string(rune('a'+int(idx))) + string(rune('0'+int(v%10))) }
				for v := block.Version(1); v <= 200; v++ {
					from := protocol.SiteID(1 + v%2)
					resp, err := r.Handle(context.Background(), from, protocol.PrepareWriteRequest{Block: idx, Data: pad(name(v)), Version: v})
					if err != nil || !resp.(protocol.PrepareWriteReply).Staged {
						t.Errorf("block %d stage %d: %v %v", idx, v, resp, err)
						return
					}
					if v%3 != 0 {
						continue
					}
					// Abort every third stage and check the restore.
					if _, err := r.Handle(context.Background(), from, protocol.AbortWriteRequest{Block: idx, Version: v}); err != nil {
						t.Errorf("block %d abort %d: %v", idx, v, err)
						return
					}
					got, ver, err := r.ReadLocal(idx)
					if err != nil || ver != v-1 || !bytes.Equal(got, pad(name(v-1))) {
						t.Errorf("block %d after abort of %d = %q@%d (%v), want %q@%d", idx, v, got[:2], ver, err, name(v-1), v-1)
						return
					}
					// Restage so versions keep climbing.
					if _, err := r.Handle(context.Background(), from, protocol.PrepareWriteRequest{Block: idx, Data: pad(name(v)), Version: v}); err != nil {
						t.Errorf("block %d restage %d: %v", idx, v, err)
						return
					}
				}
			}(block.Index(b))
		}
		wg.Wait()
	})
}

// stripedReplica builds a replica over a MemStore of n blocks, enough
// for several blocks to share a stripe (block.OpStripes).
func stripedReplica(t *testing.T, n int) *Replica {
	t.Helper()
	st, err := store.NewMem(block.Geometry{BlockSize: testGeom.BlockSize, NumBlocks: n})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{ID: 0, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// liveRecords counts the records holding a pre-image.
func liveRecords(r *Replica) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, row := range r.prov {
		if row == nil {
			continue
		}
		for _, rec := range row {
			if rec.stagedVer != 0 {
				n++
			}
		}
	}
	return n
}

// Two coordinators stage every block of a 4096-block replica, twice,
// then one keeps staging. A coordinator's next stage in a stripe ends
// the previous one's op, so the replica holds at most one pre-image per
// (coordinator, stripe) instead of one per written block, and a
// steady-state stage recycles the record it drops: it allocates no more
// than a prepare that only votes.
func TestPreImagesBoundedByStripes(t *testing.T) {
	const blocks = 4096
	r := stripedReplica(t, blocks)
	ctx := context.Background()
	data := pad("data")
	var ver [blocks]block.Version
	stage := func(from protocol.SiteID, idx block.Index) {
		ver[idx]++
		resp, err := r.Handle(ctx, from, protocol.PrepareWriteRequest{Block: idx, Data: data, Version: ver[idx]})
		if err != nil || !resp.(protocol.PrepareWriteReply).Staged {
			t.Fatalf("stage of block %d@%d from %v: %v %v", idx, ver[idx], from, resp, err)
		}
	}
	const bound = 2 * block.OpStripes
	for pass := 0; pass < 2; pass++ {
		for b := block.Index(0); b < blocks; b++ {
			stage(1, b)
			stage(2, b)
		}
		if n := liveRecords(r); n > bound {
			t.Fatalf("pass %d: %d live pre-image records, want at most %d", pass, n, bound)
		}
	}
	next := block.Index(0)
	more := func() {
		stage(1, next)
		next++
	}
	for range 2 * block.OpStripes {
		more() // fill coordinator 1's row, so each stage now drops one
	}
	staging := testing.AllocsPerRun(200, more)
	voting := testing.AllocsPerRun(200, func() {
		if _, err := r.Handle(ctx, 1, protocol.PrepareWriteRequest{Block: 0, Data: data, Version: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if staging > voting {
		t.Fatalf("a steady-state stage allocates %v, a prepare that only votes %v: the stage allocated a buffer", staging, voting)
	}
	if n := liveRecords(r); n > bound {
		t.Fatalf("after %d more stages: %d live pre-image records, want at most %d", next, n, bound)
	}
}

// A delivered abort restores its pre-image after other coordinators'
// stages in the same stripe and the same coordinator's stages in other
// stripes: none of them ends the op the abort belongs to.
func TestAbortRestoresAcrossStripes(t *testing.T) {
	const s = block.OpStripes
	r := stripedReplica(t, 3*s)
	if err := r.WriteLocal(3, pad("base"), 4); err != nil {
		t.Fatal(err)
	}
	prepare(t, r, 1, 3, "A", 5)
	prepare(t, r, 2, 3+s, "B", 1)   // another coordinator, same stripe
	prepare(t, r, 3, 3+2*s, "C", 1) // and a third
	prepare(t, r, 1, 4, "x", 1)     // the same coordinator, other stripes
	prepare(t, r, 1, 5+s, "y", 1)
	abort(t, r, 1, 3, 5)
	wantBlock(t, r, 3, "base", 4)
	abort(t, r, 2, 3+s, 1)
	wantBlock(t, r, 3+s, "", 0)
	wantBlock(t, r, 3+2*s, "C", 1)
	wantBlock(t, r, 4, "x", 1)
	wantBlock(t, r, 5+s, "y", 1)
}

// A coordinator's next stage in a stripe ends its previous op there, so
// the earlier stage's record goes and an abort for it arriving late (its
// leg failed, and the bytes landed after the next prepare) is a no-op:
// the block keeps the staged data, like an abort that never arrived.
func TestLateAbortAfterNextStageInStripe(t *testing.T) {
	const s = block.OpStripes
	r := stripedReplica(t, 2*s)
	if err := r.WriteLocal(3, pad("base"), 4); err != nil {
		t.Fatal(err)
	}
	prepare(t, r, 1, 3, "A", 5)
	prepare(t, r, 1, 3+s, "B", 1)
	if liveRecord(r, 3) != nil {
		t.Fatal("the coordinator's next stage in the stripe left the earlier record")
	}
	abort(t, r, 1, 3, 5)
	wantBlock(t, r, 3, "A", 5)
	abort(t, r, 1, 3+s, 1) // the newer stage's record still restores
	wantBlock(t, r, 3+s, "", 0)
}

// A sender id is whatever a peer put on the wire. One outside
// [0, MaxSites) is refused with an error before it can index anything,
// and leaves the replica as it was.
func TestHandleRefusesBadSender(t *testing.T) {
	r := newReplica(t, 0)
	prepare(t, r, 1, 3, "A", 1)
	for _, from := range []protocol.SiteID{-1, protocol.MaxSites} {
		for _, req := range []protocol.Request{
			protocol.PrepareWriteRequest{Block: 3, Data: pad("bad"), Version: 2},
			protocol.AbortWriteRequest{Block: 3, Version: 1},
		} {
			if _, err := r.Handle(context.Background(), from, req); !errors.Is(err, ErrBadSender) {
				t.Fatalf("%s from %d: err = %v, want ErrBadSender", req.Kind(), from, err)
			}
		}
	}
	wantBlock(t, r, 3, "A", 1)
	abort(t, r, 1, 3, 1)
	wantBlock(t, r, 3, "", 0)
}
