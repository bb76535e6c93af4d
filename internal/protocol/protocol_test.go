package protocol

import (
	"testing"
	"testing/quick"

	"relidev/internal/block"
)

func TestSiteSetBasics(t *testing.T) {
	s := NewSiteSet(0, 3, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, id := range []SiteID{0, 3, 5} {
		if !s.Has(id) {
			t.Fatalf("missing member %v", id)
		}
	}
	if s.Has(1) || s.Has(63) {
		t.Fatal("spurious member")
	}
	if got := s.String(); got != "{0,3,5}" {
		t.Fatalf("String = %q", got)
	}
}

func TestSiteSetOutOfRangeIgnored(t *testing.T) {
	var s SiteSet
	s = s.Add(-1).Add(MaxSites).Add(MaxSites + 10)
	if !s.Empty() {
		t.Fatalf("out-of-range Add changed set: %v", s)
	}
	if s.Has(-1) || s.Has(MaxSites) {
		t.Fatal("Has accepted out-of-range id")
	}
}

func TestFullSet(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{n: 0, want: 0},
		{n: -2, want: 0},
		{n: 1, want: 1},
		{n: 5, want: 5},
		{n: MaxSites, want: MaxSites},
		{n: MaxSites + 7, want: MaxSites},
	}
	for _, tt := range tests {
		s := FullSet(tt.n)
		if s.Len() != tt.want {
			t.Fatalf("FullSet(%d).Len = %d, want %d", tt.n, s.Len(), tt.want)
		}
		for i := 0; i < tt.want; i++ {
			if !s.Has(SiteID(i)) {
				t.Fatalf("FullSet(%d) missing %d", tt.n, i)
			}
		}
	}
}

func TestSiteSetAlgebra(t *testing.T) {
	a := NewSiteSet(1, 2, 3)
	b := NewSiteSet(3, 4)
	if got := a.Union(b); got != NewSiteSet(1, 2, 3, 4) {
		t.Fatalf("Union = %v", got)
	}
	if !NewSiteSet(1, 3).SubsetOf(a) {
		t.Fatal("SubsetOf false negative")
	}
	if b.SubsetOf(a) {
		t.Fatal("SubsetOf false positive")
	}
}

func TestSiteSetMembersRoundtrip(t *testing.T) {
	f := func(raw uint64) bool {
		s := SiteSet(raw)
		back := NewSiteSet(s.Members()...)
		return back == s && s.Len() == len(s.Members())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: union is the least upper bound — both operands are subsets,
// and any superset of both contains the union.
func TestSiteSetUnionProperties(t *testing.T) {
	f := func(a, b, c uint64) bool {
		sa, sb, sc := SiteSet(a), SiteSet(b), SiteSet(c)
		u := sa.Union(sb)
		if !sa.SubsetOf(u) || !sb.SubsetOf(u) {
			return false
		}
		if sa.SubsetOf(sc) && sb.SubsetOf(sc) && !u.SubsetOf(sc) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSiteStateString(t *testing.T) {
	tests := []struct {
		s    SiteState
		want string
	}{
		{StateFailed, "failed"},
		{StateComatose, "comatose"},
		{StateAvailable, "available"},
		{SiteState(0), "invalid(0)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Fatalf("String(%d) = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}

func TestMessageKinds(t *testing.T) {
	reqs := []Request{
		VoteRequest{}, FetchRequest{}, PutRequest{}, StatusRequest{}, RecoveryRequest{},
	}
	seen := make(map[string]bool)
	for _, r := range reqs {
		k := r.Kind()
		if k == "" || seen[k] {
			t.Fatalf("request kind %q empty or duplicated", k)
		}
		seen[k] = true
	}
}

func TestSiteIDString(t *testing.T) {
	if got := SiteID(4).String(); got != "site4" {
		t.Fatalf("String = %q", got)
	}
}

func TestRegisterGobIdempotent(t *testing.T) {
	// Registering twice must not panic (gob.Register panics on
	// conflicting duplicates; identical re-registration is permitted).
	RegisterGob()
	RegisterGob()
}

func TestWireSizeCoversEveryMessage(t *testing.T) {
	msgs := []sized{
		VoteRequest{}, VoteReply{}, FetchRequest{},
		FetchReply{Data: make([]byte, 10)},
		PutRequest{Data: make([]byte, 20)}, PutReply{},
		StatusRequest{}, StatusReply{},
		RecoveryRequest{Vector: make(block.Vector, 3)},
		RecoveryReply{Vector: make(block.Vector, 3), Blocks: []BlockCopy{{Data: make([]byte, 5)}}},
		TelemetryPullRequest{}, TelemetryPullReply{Snap: make([]byte, 7)},
	}
	for _, m := range msgs {
		if s := WireSize(m); s < 8 {
			t.Fatalf("%T wire size %d below header", m, s)
		}
	}
	// Payload-carrying messages dominate fixed-size ones.
	if WireSize(PutRequest{Data: make([]byte, 4096)}) <= WireSize(VoteRequest{}) {
		t.Fatal("put smaller than vote")
	}
}

func TestBlockCopyString(t *testing.T) {
	c := BlockCopy{Index: 4, Data: []byte{1, 2}, Version: 9}
	if got := c.String(); got != "blk4@v9(2B)" {
		t.Fatalf("String = %q", got)
	}
}
