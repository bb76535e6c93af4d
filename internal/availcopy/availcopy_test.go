package availcopy

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"relidev/internal/block"
	"relidev/internal/faultnet"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/simnet"
	"relidev/internal/site"
	"relidev/internal/store"
)

var testGeom = block.Geometry{BlockSize: 16, NumBlocks: 4}

type rig struct {
	net      *simnet.Network
	replicas []*site.Replica
	ctrls    []*Controller
}

func newRig(t *testing.T, n int, mode simnet.Mode, opts ...Option) *rig {
	t.Helper()
	r := &rig{net: simnet.New(mode)}
	ids := make([]protocol.SiteID, n)
	for i := 0; i < n; i++ {
		ids[i] = protocol.SiteID(i)
	}
	for i := 0; i < n; i++ {
		st, err := store.NewMem(testGeom)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := site.New(site.Config{ID: ids[i], Store: st})
		if err != nil {
			t.Fatal(err)
		}
		r.replicas = append(r.replicas, rep)
		r.net.Attach(ids[i], rep)
	}
	for i := 0; i < n; i++ {
		ctrl, err := New(scheme.Env{Self: r.replicas[i], Transport: r.net, Sites: ids}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r.ctrls = append(r.ctrls, ctrl)
	}
	return r
}

func (r *rig) fail(id protocol.SiteID) {
	r.replicas[id].SetState(protocol.StateFailed)
	r.net.SetUp(id, false)
}

func (r *rig) restart(id protocol.SiteID) {
	r.replicas[id].SetState(protocol.StateComatose)
	r.net.SetUp(id, true)
}

// driveRecovery keeps invoking Recover on comatose sites until quiescent,
// the way the cluster layer does.
func (r *rig) driveRecovery(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	for {
		progress := false
		for i, rep := range r.replicas {
			if rep.State() != protocol.StateComatose {
				continue
			}
			err := r.ctrls[i].Recover(ctx)
			switch {
			case err == nil:
				progress = true
			case errors.Is(err, scheme.ErrAwaitingSites):
			default:
				t.Fatalf("recovery of site %d: %v", i, err)
			}
		}
		if !progress {
			return
		}
	}
}

func pad(s string) []byte {
	out := make([]byte, testGeom.BlockSize)
	copy(out, s)
	return out
}

func TestReadWriteRoundtrip(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	if err := r.ctrls[1].Write(ctx, 2, pad("data")); err != nil {
		t.Fatal(err)
	}
	for i, c := range r.ctrls {
		got, err := c.Read(ctx, 2)
		if err != nil {
			t.Fatalf("read at %d: %v", i, err)
		}
		if string(got[:4]) != "data" {
			t.Fatalf("read at %d = %q", i, got[:4])
		}
	}
}

func TestReadIsFree(t *testing.T) {
	r := newRig(t, 4, simnet.Multicast)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("x")); err != nil {
		t.Fatal(err)
	}
	r.net.ResetStats()
	if _, err := r.ctrls[2].Read(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if st := r.net.Stats(); st.Transmissions != 0 {
		t.Fatalf("read cost %d transmissions, want 0 (§5: reads are local)", st.Transmissions)
	}
}

func TestWriteTrafficMulticast(t *testing.T) {
	// §5.1: available copy write = U_A = 1 broadcast + (n-1) replies with
	// all sites up.
	n := 4
	r := newRig(t, n, simnet.Multicast)
	ctx := context.Background()
	r.net.ResetStats()
	if err := r.ctrls[0].Write(ctx, 0, pad("w")); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(n) {
		t.Fatalf("write traffic = %d, want %d", got, n)
	}
}

func TestWriteTrafficUnicast(t *testing.T) {
	// §5.2: available copy write = n + U_A - 2 = 2n - 2 with all up.
	n := 5
	r := newRig(t, n, simnet.Unicast)
	ctx := context.Background()
	r.net.ResetStats()
	if err := r.ctrls[0].Write(ctx, 0, pad("w")); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(2*n-2) {
		t.Fatalf("write traffic = %d, want %d", got, 2*n-2)
	}
}

func TestSurvivesAllButOneFailure(t *testing.T) {
	// The headline availability property: a single available copy keeps
	// the block fully accessible — no quorum needed.
	r := newRig(t, 4, simnet.Multicast)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("v1")); err != nil {
		t.Fatal(err)
	}
	r.fail(1)
	r.fail(2)
	r.fail(3)
	if err := r.ctrls[0].Write(ctx, 0, pad("v2")); err != nil {
		t.Fatalf("write with one copy left: %v", err)
	}
	got, err := r.ctrls[0].Read(ctx, 0)
	if err != nil {
		t.Fatalf("read with one copy left: %v", err)
	}
	if string(got[:2]) != "v2" {
		t.Fatalf("read = %q", got[:2])
	}
}

func TestRecoveryFromAvailableSite(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	r.fail(2)
	if err := r.ctrls[0].Write(ctx, 1, pad("while-down")); err != nil {
		t.Fatal(err)
	}
	r.restart(2)
	r.driveRecovery(t)
	if st := r.replicas[2].State(); st != protocol.StateAvailable {
		t.Fatalf("state = %v, want available", st)
	}
	got, err := r.ctrls[2].Read(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:10]) != "while-down" {
		t.Fatalf("recovered read = %q", got[:10])
	}
	// And the repaired site is a full citizen again: others can fail.
	r.fail(0)
	r.fail(1)
	if err := r.ctrls[2].Write(ctx, 1, pad("alone")); err != nil {
		t.Fatalf("write at repaired site alone: %v", err)
	}
}

func TestRecoveryTrafficMulticast(t *testing.T) {
	// §5.1: recovery = U_A + 2 (status broadcast + replies + the
	// version-vector exchange).
	n := 4
	r := newRig(t, n, simnet.Multicast)
	ctx := context.Background()
	r.fail(3)
	if err := r.ctrls[0].Write(ctx, 0, pad("w")); err != nil {
		t.Fatal(err)
	}
	r.restart(3)
	r.net.ResetStats()
	if err := r.ctrls[3].Recover(ctx); err != nil {
		t.Fatal(err)
	}
	// U_A here: 1 status broadcast + (n-1 up sites) replies, + 2 for the
	// exchange = n + 2... with all other sites up, U = n (self counts as
	// a participant). Paper counts U_A sites responding including the
	// local one; concretely: 1 + (n-1) + 2 = n + 2.
	if got := r.net.Stats().Transmissions; got != uint64(n+2) {
		t.Fatalf("recovery traffic = %d, want %d", got, n+2)
	}
}

func TestTotalFailureWaitsForClosure(t *testing.T) {
	// 3 sites. Writes shrink W to the live set; after a total failure
	// the early-failed site cannot recover until the closure (which
	// contains the last writer) is back.
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("w1")); err != nil {
		t.Fatal(err)
	}
	r.fail(2) // site 2 misses everything from here
	if err := r.ctrls[0].Write(ctx, 0, pad("w2")); err != nil {
		t.Fatal(err)
	}
	r.fail(1)
	if err := r.ctrls[0].Write(ctx, 0, pad("w3")); err != nil {
		t.Fatal(err)
	}
	// W_0 is now {0}: site 0 knows it alone received w3.
	if w := r.replicas[0].WasAvailable(); w != protocol.NewSiteSet(0) {
		t.Fatalf("W_0 = %v, want {0}", w)
	}
	r.fail(0) // total failure

	// Site 2 restarts first: its closure must chase to site 0 (via W_2
	// containing 0 and 1) and wait.
	r.restart(2)
	err := r.ctrls[2].Recover(ctx)
	if !errors.Is(err, scheme.ErrAwaitingSites) {
		t.Fatalf("early site recovery = %v, want ErrAwaitingSites", err)
	}
	if st := r.replicas[2].State(); st != protocol.StateComatose {
		t.Fatalf("state = %v, want comatose", st)
	}
	if _, err := r.ctrls[2].Read(ctx, 0); !errors.Is(err, scheme.ErrNotAvailable) {
		t.Fatalf("read at comatose site = %v, want ErrNotAvailable", err)
	}

	// Site 1 restarts: still no site 0, still waiting.
	r.restart(1)
	r.driveRecovery(t)
	if st := r.replicas[1].State(); st != protocol.StateComatose {
		t.Fatalf("site1 state = %v, want comatose", st)
	}

	// Site 0 (the last to fail) restarts: its closure is {0}, so it
	// recovers alone and the others cascade off it.
	r.restart(0)
	r.driveRecovery(t)
	for i, rep := range r.replicas {
		if st := rep.State(); st != protocol.StateAvailable {
			t.Fatalf("site %d state = %v after full recovery", i, st)
		}
	}
	for i, c := range r.ctrls {
		got, err := c.Read(ctx, 0)
		if err != nil {
			t.Fatalf("read at %d: %v", i, err)
		}
		if string(got[:2]) != "w3" {
			t.Fatalf("read at %d = %q, want w3 (the final write)", i, got[:2])
		}
	}
}

func TestLastToFailRecoversAloneAfterCoordinatingWrites(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	r.fail(1)
	r.fail(2)
	if err := r.ctrls[0].Write(ctx, 0, pad("solo")); err != nil {
		t.Fatal(err)
	}
	r.fail(0)
	r.restart(0)
	if err := r.ctrls[0].Recover(ctx); err != nil {
		t.Fatalf("last-to-fail recovery alone: %v", err)
	}
	got, err := r.ctrls[0].Read(ctx, 0)
	if err != nil || string(got[:4]) != "solo" {
		t.Fatalf("read = %q, %v", got[:4], err)
	}
}

func TestComatoseSiteRejectsWrites(t *testing.T) {
	// A write racing with a recovery must not land on a comatose site.
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	r.fail(2)
	r.restart(2) // comatose until recovery runs
	if err := r.ctrls[0].Write(ctx, 0, pad("w")); err != nil {
		t.Fatalf("write with a comatose peer: %v", err)
	}
	// The comatose site did not absorb the write.
	if ver, _ := r.replicas[2].VersionLocal(0); ver != 0 {
		t.Fatalf("comatose site absorbed a write (version %v)", ver)
	}
	// And the coordinator's W excludes it.
	if w := r.replicas[0].WasAvailable(); w.Has(2) {
		t.Fatalf("W = %v includes comatose site", w)
	}
}

func TestWriteAtComatoseSiteRefused(t *testing.T) {
	r := newRig(t, 2, simnet.Multicast)
	ctx := context.Background()
	r.fail(1)
	r.restart(1)
	if err := r.ctrls[1].Write(ctx, 0, pad("x")); !errors.Is(err, scheme.ErrNotAvailable) {
		t.Fatalf("write at comatose site = %v, want ErrNotAvailable", err)
	}
	if _, err := r.ctrls[1].Read(ctx, 0); !errors.Is(err, scheme.ErrNotAvailable) {
		t.Fatalf("read at comatose site = %v, want ErrNotAvailable", err)
	}
}

func TestImmediateWAblationTightensSets(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast, WithImmediateW())
	ctx := context.Background()
	r.fail(2)
	// First write: piggyback (stale) says {0,1,2}; acks say {0,1}; the
	// immediate fix pushes {0,1} to site 1 right away.
	if err := r.ctrls[0].Write(ctx, 0, pad("w")); err != nil {
		t.Fatal(err)
	}
	if w := r.replicas[1].WasAvailable(); w.Has(2) {
		t.Fatalf("site1 W = %v still contains the failed site", w)
	}
}

func TestDelayedWIsOneWriteStale(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	r.fail(2)
	if err := r.ctrls[0].Write(ctx, 0, pad("w1")); err != nil {
		t.Fatal(err)
	}
	// Delayed scheme: site 1 still carries the stale superset.
	if w := r.replicas[1].WasAvailable(); !w.Has(2) {
		t.Fatalf("site1 W = %v, expected stale superset containing 2", w)
	}
	// The second write's piggyback is the first write's recipient set.
	if err := r.ctrls[0].Write(ctx, 0, pad("w2")); err != nil {
		t.Fatal(err)
	}
	// Union semantics keep it a superset; the coordinator's own set is
	// exact.
	if w := r.replicas[0].WasAvailable(); w != protocol.NewSiteSet(0, 1) {
		t.Fatalf("coordinator W = %v, want {0,1}", w)
	}
}

func TestClosureProperties(t *testing.T) {
	// Closure over a fixed lookup table.
	table := map[protocol.SiteID]protocol.SiteSet{
		0: protocol.NewSiteSet(0, 1),
		1: protocol.NewSiteSet(1, 2),
		2: protocol.NewSiteSet(2),
		3: protocol.NewSiteSet(3, 0),
	}
	lookup := func(u protocol.SiteID) (protocol.SiteSet, bool) {
		w, ok := table[u]
		return w, ok
	}
	got := Closure(protocol.NewSiteSet(0), lookup)
	if got != protocol.NewSiteSet(0, 1, 2) {
		t.Fatalf("closure = %v, want {0,1,2}", got)
	}
	// Unrecovered sites contribute nothing.
	gappy := func(u protocol.SiteID) (protocol.SiteSet, bool) {
		if u == 1 {
			return 0, false
		}
		return lookup(u)
	}
	got = Closure(protocol.NewSiteSet(0), gappy)
	if got != protocol.NewSiteSet(0, 1) {
		t.Fatalf("closure with failed site = %v, want {0,1}", got)
	}
}

// Properties: W ⊆ C*(W); idempotent; monotone in W.
func TestClosureLaws(t *testing.T) {
	f := func(w, a, b, c, d uint64, extra uint64) bool {
		const n = 8
		mask := uint64(1<<n) - 1
		table := map[protocol.SiteID]protocol.SiteSet{
			0: protocol.SiteSet(a & mask), 1: protocol.SiteSet(b & mask),
			2: protocol.SiteSet(c & mask), 3: protocol.SiteSet(d & mask),
		}
		lookup := func(u protocol.SiteID) (protocol.SiteSet, bool) {
			s, ok := table[u]
			return s, ok
		}
		w0 := protocol.SiteSet(w & mask)
		cl := Closure(w0, lookup)
		if !w0.SubsetOf(cl) {
			return false
		}
		if Closure(cl, lookup) != cl {
			return false
		}
		bigger := w0.Union(protocol.SiteSet(extra & mask))
		return cl.SubsetOf(Closure(bigger, lookup))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSplitBrain documents the §6 caveat rather than a desired
// property: available copy assumes a partition-free network. Under a
// partition both sides keep accepting writes (each believes the other
// side failed), and after healing the copies disagree — which is exactly
// why the paper restricts the scheme to partition-free networks and
// points to voting where partitions are possible.
func TestPartitionSplitBrain(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("base")); err != nil {
		t.Fatal(err)
	}
	// Partition {0} | {1,2}: faultnet's map, installed as simnet's
	// fault rule.
	fn, err := faultnet.New(r.net, faultnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fn.SetPartition(0, 1)
	if err := r.ctrls[0].Write(ctx, 0, pad("left")); err != nil {
		t.Fatalf("minority-side write: %v (available copy has no quorum check)", err)
	}
	if err := r.ctrls[1].Write(ctx, 0, pad("right")); err != nil {
		t.Fatalf("majority-side write: %v", err)
	}
	fn.Heal()
	left, err := r.ctrls[0].Read(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	right, err := r.ctrls[1].Read(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(left[:4]) == string(right[:4]) {
		t.Fatal("expected divergent copies after a partition — the §6 caveat vanished?")
	}
}

func TestNewInitialisesWasAvailableToFullSet(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	for i, rep := range r.replicas {
		if w := rep.WasAvailable(); w != protocol.FullSet(3) {
			t.Fatalf("site %d initial W = %v, want full set", i, w)
		}
	}
}

func TestEnvValidation(t *testing.T) {
	if _, err := New(scheme.Env{}); err == nil {
		t.Fatal("accepted empty env")
	}
}

func TestName(t *testing.T) {
	r := newRig(t, 2, simnet.Multicast)
	if r.ctrls[0].Name() != "available-copy" {
		t.Fatalf("Name = %q", r.ctrls[0].Name())
	}
}
