package site

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

// fillVersions installs pattern data at per-block versions on a replica.
func fillVersions(t *testing.T, r *Replica, vers []block.Version) {
	t.Helper()
	for i, v := range vers {
		if v == 0 {
			continue
		}
		if err := r.WriteLocal(block.Index(i), pad("v"), v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandleRecoveryClampsToBudget: whatever page size a peer asks for —
// none, a negative one, an enormous one — the donor ships at most its
// own derived budget (1 MiB of payload, at least one block) and says
// where to resume.
func TestHandleRecoveryClampsToBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		geom   block.Geometry
		budget int
	}{
		{"quarter-MiB blocks", block.Geometry{BlockSize: 256 << 10, NumBlocks: 10}, 4},
		{"blocks over the budget", block.Geometry{BlockSize: 2 << 20, NumBlocks: 3}, 1},
	} {
		st, err := store.NewMem(tc.geom)
		if err != nil {
			t.Fatal(err)
		}
		donor, err := New(Config{ID: 1, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if got := donor.RecoveryBudget(); got != tc.budget {
			t.Fatalf("%s: RecoveryBudget = %d, want %d", tc.name, got, tc.budget)
		}
		data := make([]byte, tc.geom.BlockSize)
		for i := 0; i < tc.geom.NumBlocks; i++ {
			if err := donor.WriteLocal(block.Index(i), data, 3); err != nil {
				t.Fatal(err)
			}
		}
		for _, maxBlocks := range []int{0, -1, math.MaxInt32} {
			resp, err := donor.Handle(context.Background(), 0, protocol.RecoveryRequest{
				Vector: make(block.Vector, tc.geom.NumBlocks), MaxBlocks: maxBlocks,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := resp.(protocol.RecoveryReply)
			if len(rec.Blocks) != tc.budget || !rec.More || rec.Next != block.Index(tc.budget) {
				t.Fatalf("%s, MaxBlocks=%d: %d blocks More=%v Next=%v, want %d/true/%d",
					tc.name, maxBlocks, len(rec.Blocks), rec.More, rec.Next, tc.budget, tc.budget)
			}
		}
	}
}

func TestHandleRecoveryPaged(t *testing.T) {
	donor := newReplica(t, 1)
	fillVersions(t, donor, []block.Version{3, 3, 3, 3, 3, 3, 3, 3})

	var got []protocol.BlockCopy
	var cont block.Index
	pagesSeen := 0
	for {
		resp, err := donor.Handle(context.Background(), 0, protocol.RecoveryRequest{
			Vector:    make(block.Vector, 8),
			MaxBlocks: 3,
			Cont:      cont,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := resp.(protocol.RecoveryReply)
		if len(rec.Blocks) > 3 {
			t.Fatalf("page carried %d blocks, bound is 3", len(rec.Blocks))
		}
		got = append(got, rec.Blocks...)
		pagesSeen++
		if !rec.More {
			break
		}
		if rec.Next <= cont {
			t.Fatalf("continuation did not advance: %d -> %d", cont, rec.Next)
		}
		cont = rec.Next
	}
	if pagesSeen != 3 {
		t.Fatalf("8 blocks at 3/page took %d pages, want 3", pagesSeen)
	}
	if len(got) != 8 {
		t.Fatalf("pages delivered %d blocks, want 8", len(got))
	}
	seen := make(map[block.Index]bool)
	for _, c := range got {
		if seen[c.Index] {
			t.Fatalf("block %d delivered twice", c.Index)
		}
		seen[c.Index] = true
		if c.Version != 3 {
			t.Fatalf("block %d at version %d, want 3", c.Index, c.Version)
		}
	}
}

func TestHandleRecoveryPagedSkipsFreshBlocks(t *testing.T) {
	donor := newReplica(t, 1)
	fillVersions(t, donor, []block.Version{5, 0, 5, 0, 5, 0, 5, 0})
	// Requester already matches the odd blocks; only the four stale even
	// blocks page through, and the continuation token lands on stale
	// indices only.
	reqVec := make(block.Vector, 8)
	resp, err := donor.Handle(context.Background(), 0, protocol.RecoveryRequest{Vector: reqVec, MaxBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := resp.(protocol.RecoveryReply)
	if len(rec.Blocks) != 3 || !rec.More || rec.Next != 6 {
		t.Fatalf("first page = %d blocks More=%v Next=%v, want 3/true/6", len(rec.Blocks), rec.More, rec.Next)
	}
	resp, err = donor.Handle(context.Background(), 0, protocol.RecoveryRequest{Vector: reqVec, MaxBlocks: 3, Cont: rec.Next})
	if err != nil {
		t.Fatal(err)
	}
	rec = resp.(protocol.RecoveryReply)
	if len(rec.Blocks) != 1 || rec.More {
		t.Fatalf("final page = %d blocks More=%v, want 1/false", len(rec.Blocks), rec.More)
	}
	if rec.Blocks[0].Index != 6 {
		t.Fatalf("final page shipped block %d, want 6", rec.Blocks[0].Index)
	}
}

func TestApplyRepairVersionConditional(t *testing.T) {
	r := newReplica(t, 0)
	if err := r.WriteLocal(0, pad("new"), 9); err != nil {
		t.Fatal(err)
	}
	installed, err := r.ApplyRepair([]protocol.BlockCopy{
		{Index: 0, Data: pad("old"), Version: 4}, // loses: local 9 > 4
		{Index: 1, Data: pad("fresh"), Version: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if installed != 1 {
		t.Fatalf("installed = %d, want 1 (stale copy skipped)", installed)
	}
	data, ver, err := r.ReadLocal(0)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 9 || !bytes.Equal(data, pad("new")) {
		t.Fatalf("block 0 regressed: version %d", ver)
	}
	if _, ver, _ := r.ReadLocal(1); ver != 6 {
		t.Fatalf("block 1 = version %d, want 6", ver)
	}
}

// repairStores runs a test over the three ways a page reaches storage:
// a MemStore, which has no WriteRun and takes one Write per install; a
// SegStore, which appends the page as one run; and a Batcher over a
// SegStore, which makes it one batch. Each must give the same results.
func repairStores(t *testing.T, run func(t *testing.T, r *Replica)) {
	for _, kind := range []string{"mem", "seg", "batched"} {
		t.Run(kind, func(t *testing.T) {
			r, err := New(Config{ID: 0, Store: openStore(t, kind)})
			if err != nil {
				t.Fatal(err)
			}
			run(t, r)
		})
	}
}

// openStore opens one of repairStores' kinds of store, closed when the
// test ends.
func openStore(t *testing.T, kind string) store.Store {
	t.Helper()
	var st store.Store
	var err error
	if kind == "mem" {
		st, err = store.NewMem(testGeom)
	} else if st, err = store.CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom); kind == "batched" {
		st = store.NewBatcher(st, store.BatchPolicy{MaxBatch: 8})
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestApplyRepairRepeatedBlock: a page naming one block twice ends at
// the higher version in either order, with the count two StageLocal
// calls would give — both install when the later copy is newer, only
// the first when it is older.
func TestApplyRepairRepeatedBlock(t *testing.T) {
	repairStores(t, func(t *testing.T, r *Replica) {
		for _, tc := range []struct {
			page      []protocol.BlockCopy
			installed int
			data      string
			ver       block.Version
		}{
			{[]protocol.BlockCopy{{Index: 2, Data: pad("lo"), Version: 3}, {Index: 2, Data: pad("hi"), Version: 7}}, 2, "hi", 7},
			{[]protocol.BlockCopy{{Index: 4, Data: pad("hi"), Version: 7}, {Index: 4, Data: pad("lo"), Version: 3}}, 1, "hi", 7},
			{[]protocol.BlockCopy{{Index: 5, Data: pad("a"), Version: 2}, {Index: 1, Data: pad("b"), Version: 1}, {Index: 5, Data: pad("c"), Version: 2}}, 2, "a", 2},
		} {
			twin := newReplica(t, 1)
			want := 0
			for _, c := range tc.page {
				if ok, err := twin.StageLocal(c.Index, c.Data, c.Version); err != nil {
					t.Fatal(err)
				} else if ok {
					want++
				}
			}
			got, err := r.ApplyRepair(tc.page)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.installed || want != tc.installed {
				t.Fatalf("page %v installed %d, StageLocal calls %d, want %d", tc.page, got, want, tc.installed)
			}
			wantBlock(t, r, tc.page[0].Index, tc.data, tc.ver)
			wantBlock(t, twin, tc.page[0].Index, tc.data, tc.ver)
		}
	})
}

// TestApplyRepairStaleCopies: copies at or below the stored version are
// skipped and not counted, and a page of nothing but stale copies
// writes nothing.
func TestApplyRepairStaleCopies(t *testing.T) {
	repairStores(t, func(t *testing.T, r *Replica) {
		if err := r.WriteLocal(0, pad("cur"), 5); err != nil {
			t.Fatal(err)
		}
		n, err := r.ApplyRepair([]protocol.BlockCopy{
			{Index: 0, Data: pad("old"), Version: 4},
			{Index: 0, Data: pad("same"), Version: 5},
			{Index: 3, Data: pad("new"), Version: 1},
		})
		if err != nil || n != 1 {
			t.Fatalf("installed %d (err %v), want 1", n, err)
		}
		wantBlock(t, r, 0, "cur", 5)
		wantBlock(t, r, 3, "new", 1)
		if n, err := r.ApplyRepair([]protocol.BlockCopy{{Index: 3, Data: pad("x"), Version: 1}}); err != nil || n != 0 {
			t.Fatalf("all-stale page installed %d (err %v)", n, err)
		}
	})
}

// TestApplyRepairDropsStagedPreImage: an install supersedes a staged
// prepare-write, so its pre-image record goes; a stale copy leaves the
// record, and the coordinator's abort still restores the block.
func TestApplyRepairDropsStagedPreImage(t *testing.T) {
	repairStores(t, func(t *testing.T, r *Replica) {
		for _, idx := range []block.Index{1, 2} {
			if err := r.WriteLocal(idx, pad("base"), 4); err != nil {
				t.Fatal(err)
			}
			if !prepare(t, r, 2, idx, "staged", 5).Staged {
				t.Fatalf("block %d: prepare not staged", idx)
			}
		}
		n, err := r.ApplyRepair([]protocol.BlockCopy{
			{Index: 1, Data: pad("repair"), Version: 6},
			{Index: 2, Data: pad("stale"), Version: 5},
		})
		if err != nil || n != 1 {
			t.Fatalf("installed %d (err %v), want 1", n, err)
		}
		if r.prov[1].stagedVer != 0 {
			t.Fatal("block 1's install left the staged pre-image record")
		}
		if r.prov[2].stagedVer == 0 {
			t.Fatal("a stale copy of block 2 dropped the staged pre-image record")
		}
		abort(t, r, 2, 1, 5)
		abort(t, r, 2, 2, 5)
		wantBlock(t, r, 1, "repair", 6)
		wantBlock(t, r, 2, "base", 4)
	})
}

// syncCounter counts Syncs of the store it wraps and passes runs
// through.
type syncCounter struct {
	store.Store
	syncs atomic.Int64
}

func (c *syncCounter) Sync() error {
	c.syncs.Add(1)
	return c.Store.(store.Syncer).Sync()
}

func (c *syncCounter) WriteRun(ins []store.Install) error { return store.WriteRun(c.Store, ins) }

// TestApplyRepairBatchedPageSyncsOnce: on a durable site, a 256-block
// page costs one group-commit batch and so exactly one fsync, not one
// per block.
func TestApplyRepairBatchedPageSyncsOnce(t *testing.T) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 256}
	seg, err := store.CreateSeg(filepath.Join(t.TempDir(), "segs"), geom)
	if err != nil {
		t.Fatal(err)
	}
	counted := &syncCounter{Store: seg}
	b := store.NewBatcher(counted, store.BatchPolicy{MaxBatch: 64})
	defer b.Close()
	r, err := New(Config{ID: 0, Store: b})
	if err != nil {
		t.Fatal(err)
	}
	page := make([]protocol.BlockCopy, geom.NumBlocks)
	for i := range page {
		page[i] = protocol.BlockCopy{Index: block.Index(i), Data: make([]byte, geom.BlockSize), Version: 1}
	}
	if n, err := r.ApplyRepair(page); err != nil || n != len(page) {
		t.Fatalf("installed %d of %d (err %v)", n, len(page), err)
	}
	if got := counted.syncs.Load(); got != 1 {
		t.Fatalf("a %d-block page cost %d syncs, want 1", len(page), got)
	}
}
