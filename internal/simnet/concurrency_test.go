package simnet

import (
	"context"
	"sync"
	"testing"

	"relidev/internal/protocol"
)

// TestConcurrentTrafficAccounting hammers the network from many
// goroutines while flipping site states; counters must stay exact.
func TestConcurrentTrafficAccounting(t *testing.T) {
	net, _ := buildNet(t, Multicast, 4)
	ctx := context.Background()
	const (
		workers = 8
		calls   = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := protocol.SiteID(w % 4)
			for i := 0; i < calls; i++ {
				net.Broadcast(ctx, from, remotes(4, from), protocol.StatusRequest{})
			}
		}()
	}
	// Concurrent state flips (all sites stay up at the end).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			net.SetUp(2, i%2 == 0)
		}
		net.SetUp(2, true)
	}()
	wg.Wait()

	st := net.Stats()
	wantRequests := uint64(workers * calls) // one multicast each
	if st.Requests != wantRequests {
		t.Fatalf("requests = %d, want %d", st.Requests, wantRequests)
	}
	// Replies are at most 3 per broadcast, fewer when site 2 was down.
	if st.Replies > 3*wantRequests {
		t.Fatalf("replies = %d exceed maximum %d", st.Replies, 3*wantRequests)
	}
	if st.Transmissions != st.Requests+st.Replies {
		t.Fatalf("transmissions %d != requests %d + replies %d",
			st.Transmissions, st.Requests, st.Replies)
	}
}

// TestConcurrentSetUpAndResetStats races the network's mutable
// surface, site liveness and the counter bank, against live calls under
// the race detector.
func TestConcurrentSetUpAndResetStats(t *testing.T) {
	net, _ := buildNet(t, Multicast, 3)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			net.SetUp(1, i%2 == 0)
		}
		net.SetUp(1, true)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			net.Call(ctx, 0, 1, protocol.StatusRequest{})
			net.ResetStats()
			_ = net.Mode()
		}
	}()
	wg.Wait()
}
