package simnet

import (
	"context"
	"sync"
	"testing"

	"relidev/internal/protocol"
)

// TestStatsByOp verifies that traffic labelled via protocol.WithOp is
// attributed to its §5 operation class while unlabelled traffic appears
// only in the totals.
func TestStatsByOp(t *testing.T) {
	net, _ := buildNet(t, Multicast, 4)
	ctx := context.Background()

	// write: one broadcast (1 tx) + 3 replies.
	net.Broadcast(protocol.WithOp(ctx, protocol.OpWrite), 0, remotes(4, 0), protocol.StatusRequest{})
	// recovery: one Call (2 tx).
	if _, err := net.Call(protocol.WithOp(ctx, protocol.OpRecovery), 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatal(err)
	}
	// read: one Fetch (1 tx, charged as the reply transfer).
	if _, err := net.Fetch(protocol.WithOp(ctx, protocol.OpRead), 0, 2, protocol.StatusRequest{}); err != nil {
		t.Fatal(err)
	}
	// An unrecognized label lands in "other".
	if _, err := net.Fetch(protocol.WithOp(ctx, "compact"), 0, 2, protocol.StatusRequest{}); err != nil {
		t.Fatal(err)
	}
	// Unlabelled traffic counts only toward the totals.
	if _, err := net.Call(ctx, 0, 3, protocol.StatusRequest{}); err != nil {
		t.Fatal(err)
	}

	st := net.Stats()
	want := map[string]OpStats{
		protocol.OpWrite:    {Transmissions: 4, Requests: 1, Replies: 3},
		protocol.OpRecovery: {Transmissions: 2, Requests: 1, Replies: 1},
		protocol.OpRead:     {Transmissions: 1, Requests: 0, Replies: 1},
		"other":             {Transmissions: 1, Requests: 0, Replies: 1},
	}
	for op, w := range want {
		if got := st.ByOp[op]; got != w {
			t.Errorf("ByOp[%s] = %+v, want %+v", op, got, w)
		}
	}
	var attributed uint64
	for _, o := range st.ByOp {
		attributed += o.Transmissions
	}
	if attributed != st.Transmissions-2 { // the unlabelled Call's 2 tx
		t.Errorf("attributed %d of %d transmissions, want all but 2", attributed, st.Transmissions)
	}
}

// TestStatsByOpSkipsEmptyBuckets keeps idle classes out of the map so
// JSON reports only show classes that generated traffic.
func TestStatsByOpSkipsEmptyBuckets(t *testing.T) {
	net, _ := buildNet(t, Multicast, 2)
	if _, err := net.Fetch(protocol.WithOp(context.Background(), protocol.OpRead), 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if len(st.ByOp) != 1 {
		t.Fatalf("ByOp = %v, want only the read bucket", st.ByOp)
	}
}

// TestStatsSnapshotNeverTears hammers the network with concurrent
// traffic, resets, and snapshots, and asserts the documented snapshot
// invariant: within one bank, Transmissions is charged first and loaded
// last, so every snapshot satisfies Transmissions >= Requests + Replies
// (globally and per ByOp bucket). Run with -race this also exercises
// the bank swap for data races.
func TestStatsSnapshotNeverTears(t *testing.T) {
	net, _ := buildNet(t, Unicast, 4)
	ctx := protocol.WithOp(context.Background(), protocol.OpWrite)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(self protocol.SiteID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				net.Broadcast(ctx, self, remotes(4, self), protocol.StatusRequest{})
			}
		}(protocol.SiteID(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			net.ResetStats()
		}
		close(stop)
	}()

	checkInvariant := func(st Stats) {
		if st.Transmissions < st.Requests+st.Replies {
			t.Errorf("torn snapshot: transmissions %d < requests %d + replies %d",
				st.Transmissions, st.Requests, st.Replies)
		}
		for op, o := range st.ByOp {
			if o.Transmissions < o.Requests+o.Replies {
				t.Errorf("torn ByOp[%s]: %+v", op, o)
			}
		}
	}
	for {
		select {
		case <-stop:
			wg.Wait()
			// Quiesced: the final snapshot is exact and consistent.
			st := net.Stats()
			checkInvariant(st)
			return
		default:
			checkInvariant(net.Stats())
		}
	}
}

// TestTransmissionsMatchesStats: the one-counter read agrees with the
// full snapshot's total in both modes, through broadcasts with a down
// destination, round trips, fetches and notifies from several senders,
// and across ResetStats.
func TestTransmissionsMatchesStats(t *testing.T) {
	for _, mode := range []Mode{Multicast, Unicast} {
		net, _ := buildNet(t, mode, 5)
		net.SetUp(4, false)
		ctx := protocol.WithOp(context.Background(), protocol.OpWrite)
		check := func(when string) {
			t.Helper()
			if got, want := net.Transmissions(), net.Stats().Transmissions; got != want {
				t.Errorf("%v, %s: Transmissions() = %d, Stats().Transmissions = %d", mode, when, got, want)
			}
		}
		check("before any traffic")
		for from := protocol.SiteID(0); from < 3; from++ {
			net.Broadcast(ctx, from, remotes(5, from), protocol.StatusRequest{})
			net.Notify(context.Background(), from, remotes(5, from), protocol.StatusRequest{})
			net.Call(ctx, from, 3, protocol.StatusRequest{})
			net.Fetch(ctx, from, 3, protocol.StatusRequest{})
		}
		if net.Transmissions() == 0 {
			t.Fatalf("%v: no transmissions charged", mode)
		}
		check("after traffic")
		net.ResetStats()
		check("after ResetStats")
		net.Broadcast(ctx, 1, remotes(5, 1), protocol.StatusRequest{})
		check("after a broadcast past ResetStats")
	}
}
