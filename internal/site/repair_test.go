package site

import (
	"bytes"
	"context"
	"math"
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

func TestHandleRepairSummary(t *testing.T) {
	r := newReplica(t, 1)
	fillVersions(t, r, []block.Version{2, 4})
	resp, err := r.Handle(context.Background(), 0, protocol.RepairSummaryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	sum := resp.(protocol.RepairSummaryReply)
	if sum.State != protocol.StateAvailable || sum.Witness {
		t.Fatalf("summary = %+v, want available non-witness", sum)
	}
	if sum.Vector.Get(0) != 2 || sum.Vector.Get(1) != 4 {
		t.Fatalf("summary vector = %v", sum.Vector)
	}
}

func TestHandleRepairFetchFloor(t *testing.T) {
	donor := newReplica(t, 1)
	fillVersions(t, donor, []block.Version{7, 2})
	resp, err := donor.Handle(context.Background(), 0, protocol.RepairFetchRequest{
		Wants: []protocol.BlockWant{
			{Index: 0, MinVersion: 5}, // held at 7 ≥ 5: shipped
			{Index: 1, MinVersion: 5}, // held at 2 < 5: omitted, not shipped stale
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.(protocol.RepairFetchReply)
	if len(rep.Blocks) != 1 || rep.Blocks[0].Index != 0 || rep.Blocks[0].Version != 7 {
		t.Fatalf("fetch reply = %+v, want only block 0 at version 7", rep.Blocks)
	}
}

func TestHandleRepairFetchWitnessIsEmpty(t *testing.T) {
	st, err := store.NewVersionOnly(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{ID: 1, Store: st, Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := w.Handle(context.Background(), 0, protocol.RepairFetchRequest{
		Wants: []protocol.BlockWant{{Index: 0, MinVersion: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := resp.(protocol.RepairFetchReply); len(rep.Blocks) != 0 {
		t.Fatalf("witness shipped %d blocks", len(rep.Blocks))
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
