package site

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

var testGeom = block.Geometry{BlockSize: 32, NumBlocks: 8}

func newReplica(t *testing.T, id protocol.SiteID) *Replica {
	t.Helper()
	st, err := store.NewMem(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{ID: id, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func pad(s string) []byte {
	out := make([]byte, testGeom.BlockSize)
	copy(out, s)
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted nil store")
	}
	st, _ := store.NewMem(testGeom)
	if _, err := New(Config{ID: protocol.MaxSites, Store: st}); err == nil {
		t.Fatal("New accepted out-of-range id")
	}
	r, err := New(Config{ID: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if r.State() != protocol.StateAvailable {
		t.Fatalf("default state = %v, want available", r.State())
	}
}

func TestHandleVote(t *testing.T) {
	r := newReplica(t, 2)
	if err := r.WriteLocal(5, pad("x"), 9); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Handle(context.Background(), 0, protocol.VoteRequest{Block: 5})
	if err != nil {
		t.Fatal(err)
	}
	vote, ok := resp.(protocol.VoteReply)
	if !ok {
		t.Fatalf("resp = %T", resp)
	}
	if vote.Version != 9 || vote.State != protocol.StateAvailable {
		t.Fatalf("vote = %+v", vote)
	}
}

func TestHandleFetchAndPut(t *testing.T) {
	r := newReplica(t, 0)
	if _, err := r.Handle(context.Background(), 1, protocol.PutRequest{Block: 2, Data: pad("hello"), Version: 3}); err != nil {
		t.Fatal(err)
	}
	resp, err := r.Handle(context.Background(), 1, protocol.FetchRequest{Block: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := resp.(protocol.FetchReply)
	if f.Version != 3 || !bytes.Equal(f.Data, pad("hello")) {
		t.Fatalf("fetch = %+v", f)
	}
}

func TestFailedReplicaRejectsEverything(t *testing.T) {
	r := newReplica(t, 0)
	r.SetState(protocol.StateFailed)
	if _, err := r.Handle(context.Background(), 1, protocol.StatusRequest{}); !errors.Is(err, ErrNotOperational) {
		t.Fatalf("err = %v, want ErrNotOperational", err)
	}
}

func TestComatoseRejectsWritesButAnswersStatus(t *testing.T) {
	r := newReplica(t, 0)
	r.SetState(protocol.StateComatose)
	if _, err := r.Handle(context.Background(), 1, protocol.PutRequest{Block: 0, Data: pad(""), Version: 1}); !errors.Is(err, ErrComatose) {
		t.Fatalf("put err = %v, want ErrComatose", err)
	}
	resp, err := r.Handle(context.Background(), 1, protocol.StatusRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(protocol.StatusReply).State; got != protocol.StateComatose {
		t.Fatalf("status state = %v", got)
	}
	// A comatose site still serves reads of its (possibly stale) state to
	// peers running recovery.
	if _, err := r.Handle(context.Background(), 1, protocol.RecoveryRequest{Vector: block.NewVector(testGeom.NumBlocks)}); err != nil {
		t.Fatalf("recovery exchange on comatose replica: %v", err)
	}
}

func TestPutMergesWasAvailable(t *testing.T) {
	r := newReplica(t, 2)
	if err := r.SetWasAvailable(protocol.NewSiteSet(2)); err != nil {
		t.Fatal(err)
	}
	_, err := r.Handle(context.Background(), 0, protocol.PutRequest{
		Block: 1, Data: pad("w"), Version: 1,
		HasW: true, WasAvail: protocol.NewSiteSet(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := r.WasAvailable()
	// Union of old {2}, piggyback {0,1}, self 2, writer 0.
	want := protocol.NewSiteSet(0, 1, 2)
	if got != want {
		t.Fatalf("W = %v, want %v", got, want)
	}
}

func TestPutWithoutWLeavesSetAlone(t *testing.T) {
	r := newReplica(t, 1)
	if err := r.SetWasAvailable(protocol.NewSiteSet(1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Handle(context.Background(), 0, protocol.PutRequest{Block: 0, Data: pad("v"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	if got := r.WasAvailable(); got != protocol.NewSiteSet(1, 3) {
		t.Fatalf("W = %v, want {1,3}", got)
	}
}

func TestRecoveryExchange(t *testing.T) {
	src := newReplica(t, 0)
	for i := 0; i < 4; i++ {
		if err := src.WriteLocal(block.Index(i), pad("new"), block.Version(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Requester has blocks 0,1 current but 2,3 stale.
	reqVec := src.Vector()
	reqVec.Set(2, 0)
	reqVec.Set(3, 1)

	resp, err := src.Handle(context.Background(), 3, protocol.RecoveryRequest{Vector: reqVec, JoinW: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := resp.(protocol.RecoveryReply)
	if !rec.Vector.Equal(src.Vector()) {
		t.Fatalf("reply vector = %v, want %v", rec.Vector, src.Vector())
	}
	if len(rec.Blocks) != 2 {
		t.Fatalf("reply blocks = %d, want 2", len(rec.Blocks))
	}
	for _, c := range rec.Blocks {
		if c.Index != 2 && c.Index != 3 {
			t.Fatalf("unexpected block %v in recovery reply", c.Index)
		}
		if !bytes.Equal(c.Data, pad("new")) {
			t.Fatal("recovery block carries wrong data")
		}
	}
	// JoinW folded the requester into the source's was-available set.
	if w := src.WasAvailable(); !w.Has(3) || !w.Has(0) {
		t.Fatalf("source W = %v, want to contain 0 and 3", w)
	}
	if !rec.WasAvail.Has(3) {
		t.Fatalf("reply W = %v, want to contain 3", rec.WasAvail)
	}
}

func TestApplyRecovery(t *testing.T) {
	dst := newReplica(t, 1)
	reply := protocol.RecoveryReply{
		Blocks: []protocol.BlockCopy{
			{Index: 0, Data: pad("a"), Version: 5},
			{Index: 3, Data: pad("b"), Version: 2},
		},
	}
	if n, err := dst.ApplyRepair(reply.Blocks); err != nil || n != 2 {
		t.Fatalf("installed %d of 2 blocks, err=%v", n, err)
	}
	data, ver, err := dst.ReadLocal(0)
	if err != nil || ver != 5 || !bytes.Equal(data, pad("a")) {
		t.Fatalf("block 0 after recovery: ver=%v err=%v", ver, err)
	}
	if ver, _ := dst.VersionLocal(3); ver != 2 {
		t.Fatalf("block 3 version = %v, want 2", ver)
	}
}

func TestUnknownRequest(t *testing.T) {
	r := newReplica(t, 0)
	if _, err := r.Handle(context.Background(), 1, bogusRequest{}); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("err = %v, want ErrUnknownRequest", err)
	}
}

// bogusRequest is a request type Handle has no case for: it borrows a
// real message's sealed methods but is a type of its own.
type bogusRequest struct{ protocol.StatusRequest }

func (bogusRequest) Kind() string { return "bogus" }

func TestWasAvailablePersistsAcrossRestart(t *testing.T) {
	st, err := store.NewMem(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := New(Config{ID: 0, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.SetWasAvailable(protocol.NewSiteSet(0, 2, 5)); err != nil {
		t.Fatal(err)
	}
	// A restart constructs a fresh Replica over the same stable storage.
	r2, err := New(Config{ID: 0, Store: st, InitialState: protocol.StateComatose})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.WasAvailable(); got != protocol.NewSiteSet(0, 2, 5) {
		t.Fatalf("restarted W = %v, want {0,2,5}", got)
	}
	if r2.State() != protocol.StateComatose {
		t.Fatalf("restarted state = %v", r2.State())
	}
}

func TestVersionSum(t *testing.T) {
	r := newReplica(t, 0)
	if r.VersionSum() != 0 {
		t.Fatal("fresh VersionSum != 0")
	}
	if err := r.WriteLocal(0, pad("x"), 4); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteLocal(1, pad("y"), 6); err != nil {
		t.Fatal(err)
	}
	if got := r.VersionSum(); got != 10 {
		t.Fatalf("VersionSum = %d, want 10", got)
	}
}
