package site

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

// plainStore hides every optional capability of the store it wraps, so
// the replica sees a Store without ReadInto (the shape a store
// implemented outside this module has). failWrites makes the next n
// Writes fail without touching the block.
type plainStore struct {
	store.Store
	mu         sync.Mutex
	failWrites int
}

var errDisk = errors.New("disk on fire")

func (p *plainStore) Write(idx block.Index, data []byte, ver block.Version) error {
	p.mu.Lock()
	fail := p.failWrites > 0
	if fail {
		p.failWrites--
	}
	p.mu.Unlock()
	if fail {
		return errDisk
	}
	return p.Store.Write(idx, data, ver)
}

// failingMem is a MemStore (so it keeps ReadInto) whose next n Writes
// fail.
type failingMem struct {
	*store.MemStore
	failWrites int
}

func (f *failingMem) Write(idx block.Index, data []byte, ver block.Version) error {
	if f.failWrites > 0 {
		f.failWrites--
		return errDisk
	}
	return f.MemStore.Write(idx, data, ver)
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

// replicaKinds builds the same replica over a store with ReadInto and
// over one without: every pre-image test must read the same either way.
func replicaKinds(t *testing.T, run func(t *testing.T, r *Replica, failWrites func(n int))) {
	t.Run("ReadInto", func(t *testing.T) {
		mem, err := store.NewMem(testGeom)
		if err != nil {
			t.Fatal(err)
		}
		st := &failingMem{MemStore: mem}
		r, err := New(Config{ID: 0, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if r.readInto == nil {
			t.Fatal("replica did not resolve the store's ReadInto")
		}
		run(t, r, func(n int) { st.failWrites = n })
	})
	t.Run("plain", func(t *testing.T) {
		mem, err := store.NewMem(testGeom)
		if err != nil {
			t.Fatal(err)
		}
		st := &plainStore{Store: mem}
		r, err := New(Config{ID: 0, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if r.readInto != nil {
			t.Fatal("plainStore leaked ReadInto")
		}
		run(t, r, func(n int) { st.failWrites = n })
	})
}

// Stage A (coordinator 1), then stage B (coordinator 2) over it: B
// supersedes A's record and recycles its buffer. Aborting B must
// restore A's data bit for bit, and a late abort of A is a no-op.
func TestAbortAfterRecycledPreImage(t *testing.T) {
	replicaKinds(t, func(t *testing.T, r *Replica, _ func(int)) {
		// Cycle the spare once on another block so B's pre-image lands
		// in a buffer that has held other bytes.
		prepare(t, r, 1, 5, "x1", 1)
		prepare(t, r, 1, 5, "x2", 2)

		if !prepare(t, r, 1, 3, "A", 1).Staged {
			t.Fatal("A not staged")
		}
		if !prepare(t, r, 2, 3, "B", 2).Staged {
			t.Fatal("B not staged")
		}
		wantBlock(t, r, 3, "B", 2)
		abort(t, r, 2, 3, 2)
		wantBlock(t, r, 3, "A", 1)
		abort(t, r, 1, 3, 1) // A's record left the map when B superseded it
		wantBlock(t, r, 3, "A", 1)
		wantBlock(t, r, 5, "x2", 2)
	})
}

// A store whose Write fails in the middle of stage B leaves stage A's
// record live and unclobbered: A's abort still restores the bytes A
// displaced.
func TestFailedStageKeepsEarlierRecord(t *testing.T) {
	replicaKinds(t, func(t *testing.T, r *Replica, failWrites func(int)) {
		if err := r.WriteLocal(3, pad("base"), 4); err != nil {
			t.Fatal(err)
		}
		prepare(t, r, 1, 3, "A", 5)
		failWrites(1)
		if _, err := r.Handle(context.Background(), 2, protocol.PrepareWriteRequest{Block: 3, Data: pad("B"), Version: 6}); !errors.Is(err, errDisk) {
			t.Fatalf("stage B over a failing store: err = %v, want errDisk", err)
		}
		wantBlock(t, r, 3, "A", 5)
		// The buffer B read its pre-image into went back to the spare;
		// staging elsewhere reuses it and must not disturb A's record.
		prepare(t, r, 2, 6, "y", 1)
		abort(t, r, 1, 3, 5)
		wantBlock(t, r, 3, "base", 4)
	})
}

// Concurrent stage/abort cycles on distinct blocks share the replica's
// one spare buffer; every block must end with exactly its own bytes.
func TestConcurrentStagesRecyclePreImages(t *testing.T) {
	replicaKinds(t, func(t *testing.T, r *Replica, _ func(int)) {
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
