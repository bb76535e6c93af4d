package voting

import (
	"context"
	"errors"
	"testing"

	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/simnet"
	"relidev/internal/site"
	"relidev/internal/store"
)

// witnessRig builds nData full replicas followed by nWit witness sites.
func witnessRig(t *testing.T, nData, nWit int) *rig {
	t.Helper()
	n := nData + nWit
	r := &rig{net: simnet.New(simnet.Multicast)}
	ids := make([]protocol.SiteID, n)
	weights := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = protocol.SiteID(i)
		weights[i] = 1000
	}
	if n%2 == 0 {
		weights[0]++
	}
	for i := 0; i < n; i++ {
		var st store.Store
		var err error
		if i >= nData {
			st, err = store.NewVersionOnly(testGeom)
		} else {
			st, err = store.NewMem(testGeom)
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, err := site.New(site.Config{ID: ids[i], Store: st, Witness: i >= nData})
		if err != nil {
			t.Fatal(err)
		}
		r.replicas = append(r.replicas, rep)
		r.net.Attach(ids[i], rep)
	}
	for i := 0; i < n; i++ {
		ctrl, err := New(scheme.Env{Self: r.replicas[i], Transport: r.net, Sites: ids, Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		r.ctrls = append(r.ctrls, ctrl)
	}
	return r
}

func TestWitnessParticipatesInQuorum(t *testing.T) {
	// 2 data + 1 witness: with one data site down, data site + witness
	// still form a 2-of-3 majority.
	r := witnessRig(t, 2, 1)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("w1")); err != nil {
		t.Fatal(err)
	}
	r.fail(1)
	if err := r.ctrls[0].Write(ctx, 0, pad("w2")); err != nil {
		t.Fatalf("write with data+witness quorum: %v", err)
	}
	got, err := r.ctrls[0].Read(ctx, 0)
	if err != nil || string(got[:2]) != "w2" {
		t.Fatalf("read = %q, %v", got[:2], err)
	}
	// Without the witness, 1 of 3 is no quorum.
	r.fail(2)
	if err := r.ctrls[0].Write(ctx, 0, pad("w3")); !errors.Is(err, scheme.ErrNoQuorum) {
		t.Fatalf("1/3 write = %v, want ErrNoQuorum", err)
	}
}

func TestWitnessStoresVersionsNotData(t *testing.T) {
	r := witnessRig(t, 2, 1)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 3, pad("payload")); err != nil {
		t.Fatal(err)
	}
	wit := r.replicas[2]
	if ver, err := wit.VersionLocal(3); err != nil || ver != 1 {
		t.Fatalf("witness version = %v, %v; want 1", ver, err)
	}
	if _, _, err := wit.ReadLocal(3); !errors.Is(err, store.ErrNoData) {
		t.Fatalf("witness ReadLocal = %v, want ErrNoData", err)
	}
}

func TestReadAtWitnessSiteFetchesRemotely(t *testing.T) {
	r := witnessRig(t, 2, 1)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 1, pad("remote")); err != nil {
		t.Fatal(err)
	}
	// The witness's controller can serve reads: quorum + fetch.
	got, err := r.ctrls[2].Read(ctx, 1)
	if err != nil {
		t.Fatalf("read at witness: %v", err)
	}
	if string(got[:6]) != "remote" {
		t.Fatalf("read = %q", got[:6])
	}
}

func TestWitnessVersionBlocksStaleRead(t *testing.T) {
	// The witness consistency guarantee: a quorum containing a stale
	// data copy and a current witness must refuse the read rather than
	// serve old data.
	r := witnessRig(t, 2, 1)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("w1")); err != nil {
		t.Fatal(err)
	}
	r.fail(1) // data site 1 misses the next write
	if err := r.ctrls[0].Write(ctx, 0, pad("w2")); err != nil {
		t.Fatal(err)
	}
	r.fail(0)    // the only current data copy is gone
	r.restart(1) // stale data copy returns
	if err := r.ctrls[1].Recover(ctx); err != nil {
		t.Fatal(err)
	}
	// Quorum = stale site 1 + witness 2. The witness knows version 2
	// exists; site 1 only has version 1.
	_, err := r.ctrls[1].Read(ctx, 0)
	if !errors.Is(err, ErrNoCurrentCopy) {
		t.Fatalf("stale read = %v, want ErrNoCurrentCopy", err)
	}
	// Writes are still safe: whole-block overwrite needs no current copy,
	// and a data site is present.
	if err := r.ctrls[1].Write(ctx, 0, pad("w3")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, err := r.ctrls[1].Read(ctx, 0)
	if err != nil || string(got[:2]) != "w3" {
		t.Fatalf("read after overwrite = %q, %v", got[:2], err)
	}
	// And version numbers moved past the witness's 2.
	if ver, _ := r.replicas[1].VersionLocal(0); ver != 3 {
		t.Fatalf("version = %v, want 3", ver)
	}
}

func TestWriteRequiresADataSite(t *testing.T) {
	// 1 data + 2 witnesses: witnesses alone form a majority but cannot
	// hold the payload.
	r := witnessRig(t, 1, 2)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("w1")); err != nil {
		t.Fatal(err)
	}
	r.fail(0)
	if err := r.ctrls[1].Write(ctx, 0, pad("w2")); !errors.Is(err, ErrNoCurrentCopy) {
		t.Fatalf("witness-only write = %v, want ErrNoCurrentCopy", err)
	}
	if _, err := r.ctrls[1].Read(ctx, 0); !errors.Is(err, ErrNoCurrentCopy) {
		t.Fatalf("witness-only read = %v, want ErrNoCurrentCopy", err)
	}
}

func TestWitnessReadTrafficCost(t *testing.T) {
	// A read at a data site costs U_V messages as usual; the witness adds
	// no block transfer when the local copy is current.
	n := 3
	r := witnessRig(t, 2, 1)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("x")); err != nil {
		t.Fatal(err)
	}
	r.net.ResetStats()
	if _, err := r.ctrls[0].Read(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(n) {
		t.Fatalf("read traffic = %d, want %d", got, n)
	}
	// At the witness site every read pays the +1 fetch.
	r.net.ResetStats()
	if _, err := r.ctrls[2].Read(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(n+1) {
		t.Fatalf("witness-site read traffic = %d, want %d", got, n+1)
	}
}
