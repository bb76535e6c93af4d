package site

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

// TestPutPersistsOnlyChangedW: an AC put whose piggybacked set leaves
// W_s as it was appends its block record and nothing else, one that
// changes W_s appends the block and then the set, and the W hook sees
// every put either way. A reopen of the log cut at any record boundary
// of the sequence — a crash between two appends — finds the last W_s
// the log holds, so §3.2's recovery never needed the unchanged rewrite.
func TestPutPersistsOnlyChangedW(t *testing.T) {
	// A segment record is framed by crc, type, index, version and
	// length (store.SegStore) ahead of its payload.
	const recHeader = 4 + 1 + 4 + 8 + 4
	blockRec := int64(recHeader + testGeom.BlockSize)
	metaRec := int64(recHeader + 8)

	dir := filepath.Join(t.TempDir(), "segs")
	st, err := store.CreateSeg(dir, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{ID: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	hooks := 0
	r.SetWTransitionHook(func(_, _ protocol.SiteSet) { hooks++ })
	seg := filepath.Join(dir, "seg-00000000.log")
	logLen := func() int64 {
		t.Helper()
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	puts := []struct {
		from protocol.SiteID
		w    protocol.SiteSet
	}{
		{0, protocol.NewSiteSet(0)},       // {} -> {0,1}
		{0, protocol.NewSiteSet(0, 1)},    // unchanged
		{2, protocol.NewSiteSet(0, 1)},    // -> {0,1,2}
		{2, protocol.NewSiteSet(0, 1, 2)}, // unchanged
		{0, protocol.NewSiteSet(0)},       // a smaller set merges: unchanged
	}
	// cuts[i] is a record boundary and the W_s a log cut there holds.
	type cut struct {
		at int64
		w  protocol.SiteSet
	}
	cuts := []cut{{logLen(), 0}}
	var persisted protocol.SiteSet
	for i, p := range puts {
		before := logLen()
		req := protocol.PutRequest{Block: block.Index(i), Data: pad("p"), Version: 1, HasW: true, WasAvail: p.w}
		if _, err := r.Handle(context.Background(), p.from, req); err != nil {
			t.Fatal(err)
		}
		grown := logLen() - before
		cuts = append(cuts, cut{before + blockRec, persisted})
		if w := r.WasAvailable(); w == persisted {
			if grown != blockRec {
				t.Fatalf("put %d left W_s %v unchanged and appended %d bytes, want one %d-byte block record", i, w, grown, blockRec)
			}
		} else {
			if grown != blockRec+metaRec {
				t.Fatalf("put %d changed W_s to %v and appended %d bytes, want a block and a set record (%d)", i, w, grown, blockRec+metaRec)
			}
			persisted = w
			cuts = append(cuts, cut{before + grown, persisted})
		}
	}
	if hooks != len(puts) {
		t.Fatalf("W hook ran %d times for %d puts", hooks, len(puts))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cuts {
		cutDir := filepath.Join(t.TempDir(), "cut")
		if err := os.MkdirAll(cutDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(seg)), raw[:c.at], 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := store.OpenSeg(cutDir)
		if err != nil {
			t.Fatalf("cut at %d: %v", c.at, err)
		}
		back, err := New(Config{ID: 1, Store: reopened, InitialState: protocol.StateComatose})
		if err != nil {
			t.Fatal(err)
		}
		if got := back.WasAvailable(); got != c.w {
			t.Fatalf("log cut at %d reopens with W_s %v, want %v", c.at, got, c.w)
		}
		reopened.Close()
	}
}
