package voting

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
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

// rig is a hand-built voting cluster for scheme-level tests.
type rig struct {
	net      *simnet.Network
	replicas []*site.Replica
	ctrls    []*Controller
}

func newRig(t *testing.T, n int, mode simnet.Mode, opts ...Option) *rig {
	t.Helper()
	r := &rig{net: simnet.New(mode)}
	ids := make([]protocol.SiteID, n)
	weights := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = protocol.SiteID(i)
		weights[i] = 1000
	}
	if n%2 == 0 {
		weights[0]++ // §4.1 tie-breaker
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
		ctrl, err := New(scheme.Env{
			Self:      r.replicas[i],
			Transport: r.net,
			Sites:     ids,
			Weights:   weights,
		}, opts...)
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

func pad(s string) []byte {
	out := make([]byte, testGeom.BlockSize)
	copy(out, s)
	return out
}

func TestReadWriteRoundtrip(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 1, pad("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for i, c := range r.ctrls {
		got, err := c.Read(ctx, 1)
		if err != nil {
			t.Fatalf("Read at site %d: %v", i, err)
		}
		if string(got[:5]) != "hello" {
			t.Fatalf("Read at site %d = %q", i, got[:5])
		}
	}
}

func TestWriteRepairsAllReachableCopies(t *testing.T) {
	// Figure 4: the update goes to every site in the quorum, repairing
	// out-of-date copies as a side effect.
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	if err := r.ctrls[0].Write(ctx, 0, pad("v1")); err != nil {
		t.Fatal(err)
	}
	for i, rep := range r.replicas {
		ver, err := rep.VersionLocal(0)
		if err != nil || ver != 1 {
			t.Fatalf("site %d version = %v err %v, want 1", i, ver, err)
		}
	}
}

func TestQuorumDenied(t *testing.T) {
	r := newRig(t, 5, simnet.Multicast)
	ctx := context.Background()
	r.fail(1)
	r.fail(2)
	// 3 of 5 up: still a majority.
	if err := r.ctrls[0].Write(ctx, 0, pad("x")); err != nil {
		t.Fatalf("write with 3/5 up: %v", err)
	}
	r.fail(3)
	// 2 of 5 up: no quorum for either operation.
	if err := r.ctrls[0].Write(ctx, 0, pad("y")); !errors.Is(err, scheme.ErrNoQuorum) {
		t.Fatalf("write with 2/5 up = %v, want ErrNoQuorum", err)
	}
	if _, err := r.ctrls[0].Read(ctx, 0); !errors.Is(err, scheme.ErrNoQuorum) {
		t.Fatalf("read with 2/5 up = %v, want ErrNoQuorum", err)
	}
}

func TestLazyRecoveryOnRead(t *testing.T) {
	// A restarted site with a stale copy repairs the block only when the
	// block is read — and is immediately operational (§3.1).
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	r.fail(2)
	if err := r.ctrls[0].Write(ctx, 3, pad("fresh")); err != nil {
		t.Fatal(err)
	}
	r.restart(2)
	if err := r.ctrls[2].Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st := r.replicas[2].State(); st != protocol.StateAvailable {
		t.Fatalf("state after recovery = %v", st)
	}
	// Still stale locally: lazy recovery did not touch the store.
	if ver, _ := r.replicas[2].VersionLocal(3); ver != 0 {
		t.Fatalf("version before read = %v, want 0 (lazy)", ver)
	}
	got, err := r.ctrls[2].Read(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "fresh" {
		t.Fatalf("read stale site = %q", got[:5])
	}
	// The read repaired the local copy.
	if ver, _ := r.replicas[2].VersionLocal(3); ver != 1 {
		t.Fatalf("version after read = %v, want 1", ver)
	}
}

func TestRecoveryGeneratesNoTraffic(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	r.fail(2)
	if err := r.ctrls[0].Write(ctx, 0, pad("w")); err != nil {
		t.Fatal(err)
	}
	r.restart(2)
	r.net.ResetStats()
	if err := r.ctrls[2].Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if st := r.net.Stats(); st.Transmissions != 0 {
		t.Fatalf("lazy recovery cost %d transmissions, want 0", st.Transmissions)
	}
}

func TestTrafficAccountingMulticast(t *testing.T) {
	// §5.1 with all n sites up: write = 1 + U_V = 1 + n, read = U_V = n,
	// read with stale local copy = n + 1. The formulas price the literal
	// Figure 4 shape, so the rig pins the two-round write path.
	n := 4
	r := newRig(t, n, simnet.Multicast, WithTwoRoundWrites())
	ctx := context.Background()

	r.net.ResetStats()
	if err := r.ctrls[0].Write(ctx, 0, pad("a")); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(1+n) {
		t.Fatalf("write traffic = %d, want %d", got, 1+n)
	}

	r.net.ResetStats()
	if _, err := r.ctrls[0].Read(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(n) {
		t.Fatalf("read traffic = %d, want %d", got, n)
	}

	// Make site 1's copy of block 2 stale, then read at site 1.
	r.fail(1)
	if err := r.ctrls[0].Write(ctx, 2, pad("b")); err != nil {
		t.Fatal(err)
	}
	r.restart(1)
	if err := r.ctrls[1].Recover(ctx); err != nil {
		t.Fatal(err)
	}
	r.net.ResetStats()
	if _, err := r.ctrls[1].Read(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(n+1) {
		t.Fatalf("stale read traffic = %d, want %d", got, n+1)
	}
}

func TestTrafficAccountingUnicast(t *testing.T) {
	// §5.2 with all n sites up: write = n + 2U_V - 3 = 3n - 3,
	// read = n + U_V - 2 = 2n - 2. Two-round writes pinned as above.
	n := 5
	r := newRig(t, n, simnet.Unicast, WithTwoRoundWrites())
	ctx := context.Background()

	r.net.ResetStats()
	if err := r.ctrls[0].Write(ctx, 0, pad("a")); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(3*n-3) {
		t.Fatalf("write traffic = %d, want %d", got, 3*n-3)
	}

	r.net.ResetStats()
	if _, err := r.ctrls[0].Read(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().Transmissions; got != uint64(2*n-2) {
		t.Fatalf("read traffic = %d, want %d", got, 2*n-2)
	}
}

func TestTrafficAccountingFastPath(t *testing.T) {
	// The default single-round write saves the put fan-out: multicast
	// write = U_V = n (one prepare broadcast + n-1 replies), unicast
	// write = n + U_V - 2 = 2n - 2. Reads are untouched.
	t.Run("multicast", func(t *testing.T) {
		n := 4
		r := newRig(t, n, simnet.Multicast)
		ctx := context.Background()
		r.net.ResetStats()
		if err := r.ctrls[0].Write(ctx, 0, pad("a")); err != nil {
			t.Fatal(err)
		}
		if got := r.net.Stats().Transmissions; got != uint64(n) {
			t.Fatalf("fast write traffic = %d, want %d", got, n)
		}
	})
	t.Run("unicast", func(t *testing.T) {
		n := 5
		r := newRig(t, n, simnet.Unicast)
		ctx := context.Background()
		r.net.ResetStats()
		if err := r.ctrls[0].Write(ctx, 0, pad("a")); err != nil {
			t.Fatal(err)
		}
		if got := r.net.Stats().Transmissions; got != uint64(2*n-2) {
			t.Fatalf("fast write traffic = %d, want %d", got, 2*n-2)
		}
	})
	t.Run("conflict-fallback", func(t *testing.T) {
		// Pre-advance one remote copy past the coordinator's so the
		// prepare round conflicts: the write then adds the classic put
		// broadcast — prepare(1) + replies(n-1) + put(1) = n + 1 — and
		// must land the conflicting site's version + 1 everywhere.
		n := 4
		r := newRig(t, n, simnet.Multicast)
		ctx := context.Background()
		if err := r.replicas[2].WriteLocal(0, pad("ahead"), 3); err != nil {
			t.Fatal(err)
		}
		r.net.ResetStats()
		if err := r.ctrls[0].Write(ctx, 0, pad("b")); err != nil {
			t.Fatal(err)
		}
		if got := r.net.Stats().Transmissions; got != uint64(n+1) {
			t.Fatalf("conflict fallback traffic = %d, want %d", got, n+1)
		}
		if ver, _ := r.replicas[0].VersionLocal(0); ver != 4 {
			t.Fatalf("version after conflict fallback = %v, want 4", ver)
		}
		got, err := r.ctrls[1].Read(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:1]) != "b" {
			t.Fatalf("read after conflict fallback = %q, want %q", got[:1], "b")
		}
	})
}

func TestEvenSiteTieBreaking(t *testing.T) {
	// 4 sites, site 0 weighted 1001 of total 4001. A half containing
	// site 0 wins; the other half loses (§4.1).
	r := newRig(t, 4, simnet.Multicast)
	ctx := context.Background()
	r.fail(2)
	r.fail(3)
	if err := r.ctrls[0].Write(ctx, 0, pad("tie")); err != nil {
		t.Fatalf("write with tie-break half: %v", err)
	}
	r.restart(2)
	r.restart(3)
	for _, c := range r.ctrls[2:] {
		if err := c.Recover(ctx); err != nil {
			t.Fatal(err)
		}
	}
	r.fail(0)
	r.fail(1)
	if err := r.ctrls[2].Write(ctx, 0, pad("no")); !errors.Is(err, scheme.ErrNoQuorum) {
		t.Fatalf("write with losing half = %v, want ErrNoQuorum", err)
	}
}

func TestThresholdValidation(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	env := scheme.Env{
		Self:      r.replicas[0],
		Transport: r.net,
		Sites:     []protocol.SiteID{0, 1, 2},
		Weights:   []int64{1000, 1000, 1000},
	}
	if _, err := New(env); err != nil {
		t.Fatalf("rejected a weighted env: %v", err)
	}
	// A site id the weight table cannot index is rejected, not a panic.
	env.Sites = []protocol.SiteID{0, 1, protocol.MaxSites}
	if _, err := New(env); err == nil {
		t.Fatal("accepted a site id out of range")
	}
	env.Sites = []protocol.SiteID{0, 1, 2}
	// Missing weights rejected.
	env.Weights = nil
	if _, err := New(env); err == nil {
		t.Fatal("accepted env without weights")
	}
}

func TestVersionsAreMonotone(t *testing.T) {
	r := newRig(t, 3, simnet.Multicast)
	ctx := context.Background()
	var last block.Version
	for i := 0; i < 10; i++ {
		at := r.ctrls[i%3]
		if err := at.Write(ctx, 0, pad(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
		ver, err := r.replicas[i%3].VersionLocal(0)
		if err != nil {
			t.Fatal(err)
		}
		if ver <= last {
			t.Fatalf("version %v after %v: not monotone", ver, last)
		}
		last = ver
	}
}

// TestConcurrentSameBlockWritersSingleWinner hammers one block from
// many goroutines all submitting through the same controller, driving
// the single-round prepare-write path under -race. The controller's
// OpLocks serialise same-block operations, so every write must bump
// the version by exactly one (single coordinator → no conflict
// fallback, no aborts), versions observed at the local replica must be
// monotone, and the final quorum read must return a payload some
// writer actually wrote.
func TestConcurrentSameBlockWritersSingleWinner(t *testing.T) {
	const (
		n       = 3
		writers = 8
		rounds  = 15
	)
	r := newRig(t, n, simnet.Multicast)
	ctx := context.Background()

	written := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last block.Version
			for i := 0; i < rounds; i++ {
				payload := pad(fmt.Sprintf("g%dw%d", g, i))
				mu.Lock()
				written[string(payload)] = true
				mu.Unlock()
				if err := r.ctrls[0].Write(ctx, 0, payload); err != nil {
					t.Errorf("writer %d round %d: %v", g, i, err)
					return
				}
				ver, err := r.replicas[0].VersionLocal(0)
				if err != nil {
					t.Errorf("writer %d round %d: %v", g, i, err)
					return
				}
				if ver < last {
					t.Errorf("writer %d observed version %d after %d: not monotone", g, ver, last)
					return
				}
				last = ver
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// One coordinator serialises the writes, so versions count them
	// exactly: no write is lost and none double-bumps.
	ver, err := r.replicas[0].VersionLocal(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := block.Version(writers * rounds); ver != want {
		t.Fatalf("version %d after %d serialised writes, want %d", ver, writers*rounds, want)
	}
	for i, ctrl := range r.ctrls {
		got, err := ctrl.Read(ctx, 0)
		if err != nil {
			t.Fatalf("read at site %d: %v", i, err)
		}
		if !written[string(got)] {
			t.Fatalf("site %d read %q: never written", i, got)
		}
	}
}

// TestConcurrentCrossSiteWritersConverge races writers through
// *different* controllers at one block. Cross-site writes are not
// ordered (no commit protocol — out of scope for the paper, see
// scheme.OpLocks): mid-flight interleavings may overwrite each other or
// leave copies that disagree at equal versions, which this test does
// not look for, since the final write settles every copy. What must
// hold is that the conflict fallback and abort protocol never wedge or
// corrupt the cluster: every write call succeeds, and after the storm
// the device is still writable and converges — a final write is visible
// at every site with a version above everything the storm produced.
func TestConcurrentCrossSiteWritersConverge(t *testing.T) {
	const (
		n       = 3
		writers = 9
		rounds  = 12
	)
	r := newRig(t, n, simnet.Multicast)
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctrl := r.ctrls[g%n]
			for i := 0; i < rounds; i++ {
				if err := ctrl.Write(ctx, 0, pad(fmt.Sprintf("g%dw%d", g, i))); err != nil {
					t.Errorf("writer %d round %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var stormMax block.Version
	for i := range r.replicas {
		ver, err := r.replicas[i].VersionLocal(0)
		if err != nil {
			t.Fatal(err)
		}
		if ver > stormMax {
			stormMax = ver
		}
	}

	final := pad("settled")
	if err := r.ctrls[1].Write(ctx, 0, final); err != nil {
		t.Fatalf("post-storm write: %v", err)
	}
	for i, ctrl := range r.ctrls {
		got, err := ctrl.Read(ctx, 0)
		if err != nil {
			t.Fatalf("read at site %d: %v", i, err)
		}
		if !bytes.Equal(got, final) {
			t.Fatalf("site %d read %q after settling write, want %q", i, got, final)
		}
		ver, err := r.replicas[i].VersionLocal(0)
		if err != nil {
			t.Fatal(err)
		}
		if ver <= stormMax {
			t.Fatalf("site %d version %d did not advance past storm max %d", i, ver, stormMax)
		}
	}
}

func TestInterleavedFailuresPreserveLatestValue(t *testing.T) {
	// Classic voting scenario: writes land on shifting majorities; every
	// successful read sees the latest successful write because any two
	// quorums intersect.
	r := newRig(t, 5, simnet.Multicast)
	ctx := context.Background()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.ctrls[0].Write(ctx, 0, pad("w1"))) // all up
	r.fail(3)
	r.fail(4)
	must(r.ctrls[1].Write(ctx, 0, pad("w2"))) // {0,1,2}
	r.restart(3)
	r.restart(4)
	must(r.ctrls[3].Recover(ctx))
	must(r.ctrls[4].Recover(ctx))
	r.fail(0)
	r.fail(1)
	// Quorum {2,3,4}: site 2 carries w2 into the new quorum.
	got, err := r.ctrls[4].Read(ctx, 0)
	must(err)
	if string(got[:2]) != "w2" {
		t.Fatalf("read = %q, want w2", got[:2])
	}
	must(r.ctrls[3].Write(ctx, 0, pad("w3")))
	r.restart(0)
	r.restart(1)
	must(r.ctrls[0].Recover(ctx))
	must(r.ctrls[1].Recover(ctx))
	got, err = r.ctrls[0].Read(ctx, 0)
	must(err)
	if string(got[:2]) != "w3" {
		t.Fatalf("read after heal = %q, want w3", got[:2])
	}
}

// Property: for any weight assignment accepted by New, any two sets of
// sites whose weights each exceed the write threshold must intersect —
// the invariant that makes version numbers monotone across quorums.
func TestQuorumIntersectionProperty(t *testing.T) {
	f := func(rawWeights []uint16, aMask, bMask uint8) bool {
		n := len(rawWeights)
		if n == 0 || n > 8 {
			return true // out of modelled range
		}
		weights := make([]int64, n)
		var total int64
		for i, w := range rawWeights {
			weights[i] = int64(w%2000) + 1 // positive weights
			total += weights[i]
		}
		threshold := total / 2 // New's default write threshold

		sum := func(mask uint8) int64 {
			var s int64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					s += weights[i]
				}
			}
			return s
		}
		aQuorum := sum(aMask) > threshold
		bQuorum := sum(bMask) > threshold
		if !aQuorum || !bQuorum {
			return true
		}
		return aMask&bMask&uint8(1<<n-1) != 0 // must share a site
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionsCannotSplitBrain(t *testing.T) {
	// Voting's raison d'être: with the network split 2|3, only the
	// 3-site side can write; the 2-site side is denied.
	r := newRig(t, 5, simnet.Multicast)
	// The partition is faultnet's, installed as simnet's fault rule.
	fn, err := faultnet.New(r.net, faultnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fn.SetPartition(0, 1)
	fn.SetPartition(1, 1)
	if err := r.ctrls[0].Write(ctx, 0, pad("minor")); !errors.Is(err, scheme.ErrNoQuorum) {
		t.Fatalf("minority write = %v, want ErrNoQuorum", err)
	}
	if err := r.ctrls[2].Write(ctx, 0, pad("major")); err != nil {
		t.Fatalf("majority write: %v", err)
	}
	fn.Heal()
	got, err := r.ctrls[0].Read(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "major" {
		t.Fatalf("after heal read = %q", got[:5])
	}
}

// fetchRecorder is a Transport that notes the target of every Fetch.
type fetchRecorder struct {
	protocol.Transport
	fetched []protocol.SiteID
}

func (f *fetchRecorder) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	f.fetched = append(f.fetched, to)
	return f.Transport.Fetch(ctx, from, to, req)
}

// TestReadRepairFetchesFromLowestCurrentSite: a stale coordinator
// repairs from the lowest-id site holding the quorum's newest version,
// never from whichever current reply the broadcast's map yielded first.
// Each fresh rig draws a new reply order.
func TestReadRepairFetchesFromLowestCurrentSite(t *testing.T) {
	ctx := context.Background()
	for run := 0; run < 20; run++ {
		r := newRig(t, 5, simnet.Multicast)
		if err := r.ctrls[1].Write(ctx, 0, pad("v1")); err != nil {
			t.Fatal(err)
		}
		// Sites 0 and 4 miss v2, so 1, 2 and 3 are the current ones.
		r.fail(0)
		r.fail(4)
		if err := r.ctrls[1].Write(ctx, 0, pad("v2")); err != nil {
			t.Fatal(err)
		}
		for _, id := range []protocol.SiteID{0, 4} {
			r.restart(id)
			if err := r.ctrls[id].Recover(ctx); err != nil {
				t.Fatal(err)
			}
		}
		rec := &fetchRecorder{Transport: r.net}
		coord, err := New(scheme.Env{
			Self:      r.replicas[4],
			Transport: rec,
			Sites:     []protocol.SiteID{0, 1, 2, 3, 4},
			Weights:   []int64{1000, 1000, 1000, 1000, 1000},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Read(ctx, 0)
		if err != nil || string(got[:2]) != "v2" {
			t.Fatalf("run %d: stale read = %q, %v", run, got, err)
		}
		if len(rec.fetched) != 1 || rec.fetched[0] != 1 {
			t.Fatalf("run %d: fetched from %v, want [site1]", run, rec.fetched)
		}
	}
}

// notifyRecorder is a Transport that notes the destinations of every
// Notify, in the order the controller passed them.
type notifyRecorder struct {
	protocol.Transport
	dests [][]protocol.SiteID
}

func (n *notifyRecorder) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	n.dests = append(n.dests, append([]protocol.SiteID(nil), dests...))
	return n.Transport.Notify(ctx, from, dests, req)
}

// TestPutFanOutOrderIsStable: the ballot follows the remotes' order,
// not the broadcast map's, so a two-round write sends its put legs in
// the same order every time.
func TestPutFanOutOrderIsStable(t *testing.T) {
	ctx := context.Background()
	r := newRig(t, 5, simnet.Multicast)
	rec := &notifyRecorder{Transport: r.net}
	coord, err := New(scheme.Env{
		Self:      r.replicas[2],
		Transport: rec,
		Sites:     []protocol.SiteID{0, 1, 2, 3, 4},
		Weights:   []int64{1000, 1000, 1000, 1000, 1000},
	}, WithTwoRoundWrites())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := coord.Write(ctx, 1, pad(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := []protocol.SiteID{0, 1, 3, 4}
	for i, got := range rec.dests {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("write %d sent its puts to %v, want %v", i, got, want)
		}
	}
	if len(rec.dests) != 20 {
		t.Fatalf("recorded %d put fan-outs, want 20", len(rec.dests))
	}
}

// failingPuts is a Transport that delivers every put, then reports a
// fixed error for some of the sites.
type failingPuts struct {
	protocol.Transport
	errs map[protocol.SiteID]error
}

func (f failingPuts) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	results := f.Transport.Notify(ctx, from, dests, req)
	if _, ok := req.(protocol.PutRequest); ok {
		for id, err := range f.errs {
			results[id] = protocol.Result{Err: err}
		}
	}
	return results
}

// TestPutErrorOrderIsStable: with two quorum members failing the put,
// the two-round write reads the fan-out in quorum order, not the result
// map's, so it returns the same error every time — site 1's.
func TestPutErrorOrderIsStable(t *testing.T) {
	ctx := context.Background()
	r := newRig(t, 3, simnet.Multicast)
	coord, err := New(scheme.Env{
		Self: r.replicas[0],
		Transport: failingPuts{Transport: r.net, errs: map[protocol.SiteID]error{
			1: errors.New("disk on fire at 1"),
			2: errors.New("disk on fire at 2"),
		}},
		Sites:   []protocol.SiteID{0, 1, 2},
		Weights: []int64{1000, 1000, 1000},
	}, WithTwoRoundWrites())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for i := 0; i < 50; i++ {
		err := coord.Write(ctx, 1, pad("x"))
		if err == nil || !strings.Contains(err.Error(), "at 1") {
			t.Fatalf("write %d = %v, want site 1's error", i, err)
		}
		seen[err.Error()]++
	}
	if len(seen) != 1 {
		t.Fatalf("50 identical writes returned %d different errors: %v", len(seen), seen)
	}
}
