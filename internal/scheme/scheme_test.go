package scheme

import (
	"context"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/site"
	"relidev/internal/store"
)

func testReplica(t *testing.T, id protocol.SiteID) *site.Replica {
	t.Helper()
	st, err := store.NewMem(block.Geometry{BlockSize: 16, NumBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := site.New(site.Config{ID: id, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// fakeTransport satisfies protocol.Transport for validation tests; no
// method is ever invoked.
type fakeTransport struct{}

var _ protocol.Transport = fakeTransport{}

func (fakeTransport) Call(_ context.Context, _, _ protocol.SiteID, _ protocol.Request) (protocol.Response, error) {
	return nil, protocol.ErrSiteDown
}

func (fakeTransport) Fetch(_ context.Context, _, _ protocol.SiteID, _ protocol.Request) (protocol.Response, error) {
	return nil, protocol.ErrSiteDown
}

func (fakeTransport) Broadcast(_ context.Context, _ protocol.SiteID, _ []protocol.SiteID, _ protocol.Request) map[protocol.SiteID]protocol.Result {
	return nil
}

func (fakeTransport) Notify(_ context.Context, _ protocol.SiteID, _ []protocol.SiteID, _ protocol.Request) map[protocol.SiteID]protocol.Result {
	return nil
}

func TestEnvValidate(t *testing.T) {
	rep := testReplica(t, 1)
	valid := Env{Self: rep, Transport: fakeTransport{}, Sites: []protocol.SiteID{0, 1, 2}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid env rejected: %v", err)
	}
	cases := []struct {
		name string
		env  Env
	}{
		{"nil self", Env{Transport: fakeTransport{}, Sites: []protocol.SiteID{1}}},
		{"nil transport", Env{Self: rep, Sites: []protocol.SiteID{1}}},
		{"no sites", Env{Self: rep, Transport: fakeTransport{}}},
		{"self missing", Env{Self: rep, Transport: fakeTransport{}, Sites: []protocol.SiteID{0, 2}}},
		{"id out of range", Env{Self: rep, Transport: fakeTransport{}, Sites: []protocol.SiteID{0, 1, 99}}},
		{"negative id", Env{Self: rep, Transport: fakeTransport{}, Sites: []protocol.SiteID{-1, 1}}},
		{"id listed twice", Env{Self: rep, Transport: fakeTransport{}, Sites: []protocol.SiteID{0, 1, 1}}},
		{"weights mismatch", Env{Self: rep, Transport: fakeTransport{}, Sites: []protocol.SiteID{1}, Weights: []int64{1, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.env.Validate(); err == nil {
				t.Fatal("invalid env accepted")
			}
		})
	}
}

func TestEnvHelpers(t *testing.T) {
	rep := testReplica(t, 1)
	env := Env{
		Self:      rep,
		Transport: fakeTransport{},
		Sites:     []protocol.SiteID{0, 1, 2},
		Weights:   []int64{1000, 1001, 1000},
	}
	rem := env.Remotes()
	if len(rem) != 2 || rem[0] != 0 || rem[1] != 2 {
		t.Fatalf("Remotes = %v", rem)
	}
	if got := env.TotalWeight(); got != 3001 {
		t.Fatalf("TotalWeight = %d", got)
	}
	if got := env.FullSet(); got != protocol.NewSiteSet(0, 1, 2) {
		t.Fatalf("FullSet = %v", got)
	}
}
