package relidev_test

import (
	"context"
	"testing"

	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/voting"
)

// §5: "While it is possible to instead focus on the sizes of the
// messages ... the differences are similar to the results obtained
// below, though slightly less pronounced." Verify with the real
// protocol: the voting:naive traffic ratio in bytes is smaller than in
// message counts (block payloads dominate and every scheme ships them),
// while the ordering itself is preserved.
func TestByteAccountingLessPronouncedThanMessageCounts(t *testing.T) {
	type result struct{ msgs, bytes uint64 }
	measure := func(cfg core.ClusterConfig) result {
		t.Helper()
		ctx := context.Background()
		cfg.Sites, cfg.Geometry = 5, block.Geometry{BlockSize: 1024, NumBlocks: 32}
		cluster, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := cluster.Device(0)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 1024)
		cluster.Network().ResetStats()
		for i := 0; i < 100; i++ {
			payload[0] = byte(i)
			if err := dev.WriteBlock(ctx, block.Index(i%32), payload); err != nil {
				t.Fatal(err)
			}
		}
		st := cluster.Network().Stats()
		return result{msgs: st.Transmissions, bytes: st.Bytes}
	}

	// The §5 quote prices the literal Figure 4 write, so pin voting to
	// the two-round shape (the default single-round path narrows the
	// message-count gap the comparison is about).
	vote := measure(core.ClusterConfig{Scheme: core.Voting,
		VotingOptions: []voting.Option{voting.WithTwoRoundWrites()}})
	naive := measure(core.ClusterConfig{Scheme: core.NaiveAvailableCopy})
	ac := measure(core.ClusterConfig{Scheme: core.AvailableCopy})

	// Ordering preserved in both metrics.
	if !(naive.msgs < ac.msgs && ac.msgs < vote.msgs) {
		t.Fatalf("message ordering broken: naive %d, ac %d, voting %d",
			naive.msgs, ac.msgs, vote.msgs)
	}
	if !(naive.bytes < ac.bytes && ac.bytes < vote.bytes) {
		t.Fatalf("byte ordering broken: naive %d, ac %d, voting %d",
			naive.bytes, ac.bytes, vote.bytes)
	}
	// ...but less pronounced in bytes: every scheme broadcasts the block
	// payload once per write on a multicast network, so the byte ratio
	// shrinks toward 1 while the message ratio stays at ~6x.
	msgRatio := float64(vote.msgs) / float64(naive.msgs)
	byteRatio := float64(vote.bytes) / float64(naive.bytes)
	if byteRatio >= msgRatio {
		t.Fatalf("byte ratio %.2f not less pronounced than message ratio %.2f", byteRatio, msgRatio)
	}
	if byteRatio < 1 {
		t.Fatalf("byte ratio %.2f lost the ordering entirely", byteRatio)
	}
}
