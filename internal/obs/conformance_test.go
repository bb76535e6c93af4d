package obs

import (
	"context"
	"errors"
	"testing"

	"relidev/internal/analysis"
	"relidev/internal/protocol"
)

// exact builds an observation of ops operations that all completed with
// participation u each and generated msgs messages in total.
func exact(ops, u, msgs uint64) OpObservation {
	return OpObservation{Attempts: ops, Completions: ops, ParticipantsSum: ops * u, Messages: msgs}
}

// classic marks every write in an observation as two-round, the shape
// the §5 formulas price directly.
func classic(o OpObservation) OpObservation {
	o.TwoRound = o.Completions
	o.TwoRoundParticipants = o.ParticipantsSum
	return o
}

func TestStrictConformanceExact(t *testing.T) {
	// Synthetic observations at n=5, U=4 for every scheme and mode,
	// message totals computed from the §5 tables by hand.
	cases := []struct {
		name    string
		scheme  analysis.Scheme
		unicast bool
		in      ConformanceInput
	}{
		{"voting/multicast", analysis.SchemeVoting, false, ConformanceInput{
			Write:    classic(exact(10, 4, 50)), // 1+U = 5 each
			Read:     exact(10, 4, 40),          // U = 4 each
			Recovery: exact(3, 1, 0),            // lazy: free
		}},
		{"voting/unicast", analysis.SchemeVoting, true, ConformanceInput{
			Write:    classic(exact(10, 4, 100)), // n+2U-3 = 10 each
			Read:     exact(10, 4, 70),           // n+U-2 = 7 each
			Recovery: exact(3, 1, 0),
		}},
		{"voting/multicast/fast", analysis.SchemeVoting, false, ConformanceInput{
			// Single-round writes save the put broadcast: U = 4 each.
			Write:    exact(10, 4, 40),
			Read:     exact(10, 4, 40),
			Recovery: exact(3, 1, 0),
		}},
		{"voting/unicast/fast", analysis.SchemeVoting, true, ConformanceInput{
			// n+U-2 = 7 each: the U-1 put sends are saved.
			Write:    exact(10, 4, 70),
			Read:     exact(10, 4, 70),
			Recovery: exact(3, 1, 0),
		}},
		{"available-copy/multicast", analysis.SchemeAvailableCopy, false, ConformanceInput{
			Write:    exact(10, 4, 40), // U = 4 each
			Read:     exact(10, 1, 0),  // local
			Recovery: exact(2, 4, 12),  // U+2 = 6 each
		}},
		{"available-copy/unicast", analysis.SchemeAvailableCopy, true, ConformanceInput{
			Write:    exact(10, 4, 70), // n+U-2 = 7 each
			Read:     exact(10, 1, 0),
			Recovery: exact(2, 4, 18), // n+U = 9 each
		}},
		{"naive/multicast", analysis.SchemeNaive, false, ConformanceInput{
			Write:    exact(10, 1, 10), // 1 each
			Read:     exact(10, 1, 0),
			Recovery: exact(2, 4, 12), // U+2 = 6 each
		}},
		{"naive/unicast", analysis.SchemeNaive, true, ConformanceInput{
			Write:    exact(10, 1, 40), // n-1 = 4 each
			Read:     exact(10, 1, 0),
			Recovery: exact(2, 4, 18), // n+U = 9 each
		}},
	}
	for _, c := range cases {
		c.in.Scheme, c.in.Sites, c.in.Unicast = c.scheme, 5, c.unicast
		rep, err := CheckConformance(c.in, true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !rep.OK {
			t.Errorf("%s: conformance failed: %v", c.name, rep.Violations())
		}
		if len(rep.Checks) != 3 {
			t.Errorf("%s: %d checks, want 3 (write, read, recovery)", c.name, len(rep.Checks))
		}
	}
}

func TestStrictConformanceMixedWriteShapes(t *testing.T) {
	// 10 voting writes at n=5, U=4: six took the single-round path, four
	// fell back to the two-round shape. Multicast: 6*4 + 4*5 = 44.
	// Unicast: 6*7 + 4*10 = 82.
	for _, c := range []struct {
		name    string
		unicast bool
		msgs    uint64
	}{
		{"multicast", false, 44},
		{"unicast", true, 82},
	} {
		write := exact(10, 4, c.msgs)
		write.TwoRound = 4
		write.TwoRoundParticipants = 16
		rep, err := CheckConformance(ConformanceInput{
			Scheme: analysis.SchemeVoting, Sites: 5, Unicast: c.unicast,
			Write: write,
		}, true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !rep.OK {
			t.Errorf("%s: mixed-shape conformance failed: %v", c.name, rep.Violations())
		}
		// One message over the mixed total must still trip the check.
		write.Messages++
		rep, err = CheckConformance(ConformanceInput{
			Scheme: analysis.SchemeVoting, Sites: 5, Unicast: c.unicast,
			Write: write,
		}, true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.OK {
			t.Errorf("%s: off-by-one mixed-shape total passed strict conformance", c.name)
		}
	}
}

func TestStrictConformanceStaleReads(t *testing.T) {
	// 10 voting reads at U=4, 3 of them stale: predicted mean is
	// U + (ReadStale-Read) * 3/10 = 4.3 — one extra fetch per stale read.
	read := exact(10, 4, 43)
	read.StaleReads = 3
	rep, err := CheckConformance(ConformanceInput{
		Scheme: analysis.SchemeVoting, Sites: 5,
		Write: classic(exact(10, 4, 50)), Read: read,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("stale-read conformance failed: %v", rep.Violations())
	}
}

func TestStrictConformanceRejects(t *testing.T) {
	// A single extra message over 10 writes must trip the check.
	rep, err := CheckConformance(ConformanceInput{
		Scheme: analysis.SchemeVoting, Sites: 5,
		Write: exact(10, 4, 51),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("off-by-one message total passed strict conformance")
	}
	if len(rep.Violations()) != 1 {
		t.Fatalf("violations = %v, want exactly one", rep.Violations())
	}

	// Failed attempts are outside strict mode's contract.
	in := ConformanceInput{Scheme: analysis.SchemeVoting, Sites: 5,
		Write: OpObservation{Attempts: 5, Completions: 4, ParticipantsSum: 16, Messages: 20}}
	rep, err = CheckConformance(in, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("attempts != completions passed strict conformance")
	}
}

func TestStrictConformanceSkipsIdleOps(t *testing.T) {
	rep, err := CheckConformance(ConformanceInput{
		Scheme: analysis.SchemeNaive, Sites: 3,
		Write: exact(4, 1, 4),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("idle read/recovery classes failed: %v", rep.Violations())
	}
	for _, chk := range rep.Checks[1:] {
		if chk.Note != "no operations" {
			t.Errorf("%s note = %q, want skip marker", chk.Op, chk.Note)
		}
	}
}

func TestBracketConformance(t *testing.T) {
	// n=4 multicast voting write: envelope [1, 1+3+1] = [1, 5].
	in := ConformanceInput{Scheme: analysis.SchemeVoting, Sites: 4,
		Write: OpObservation{Attempts: 10, Completions: 7, ParticipantsSum: 20, Messages: 38}}
	rep, err := CheckConformance(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("3.8 msgs/attempt rejected by [1,5]: %v", rep.Violations())
	}

	// 6 msgs/attempt exceeds the write envelope.
	in.Write.Messages = 60
	rep, _ = CheckConformance(in, false)
	if rep.OK {
		t.Fatal("6 msgs/attempt passed the [1,5] envelope")
	}

	// Message-free classes must stay message-free even under chaos.
	in.Write = OpObservation{}
	in.Recovery = OpObservation{Messages: 2}
	rep, _ = CheckConformance(in, false)
	if rep.OK {
		t.Fatal("voting recovery traffic passed the [0,0] envelope")
	}
}

// Naive writes are fire-and-forget: exactly one broadcast per attempt,
// so the bracket degenerates to a point.
func TestBracketNaiveExact(t *testing.T) {
	rep, err := CheckConformance(ConformanceInput{
		Scheme: analysis.SchemeNaive, Sites: 4, Unicast: true,
		Write: OpObservation{Attempts: 5, Completions: 5, ParticipantsSum: 5, Messages: 15},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("naive unicast write 3 msgs/attempt rejected by [3,3]: %v", rep.Violations())
	}
}

func TestCheckConformanceUnknownScheme(t *testing.T) {
	_, err := CheckConformance(ConformanceInput{Scheme: analysis.Scheme(99), Sites: 3,
		Write: exact(1, 1, 1)}, false)
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	_, err = CheckConformance(ConformanceInput{Scheme: analysis.Scheme(99), Sites: 3,
		Write: exact(1, 1, 1)}, true)
	if err == nil {
		t.Fatal("unknown scheme accepted in strict mode")
	}
}

func TestSchemeFromName(t *testing.T) {
	for name, want := range map[string]analysis.Scheme{
		"voting":         analysis.SchemeVoting,
		"available-copy": analysis.SchemeAvailableCopy,
		"naive":          analysis.SchemeNaive,
	} {
		got, ok := SchemeFromName(name)
		if !ok || got != want {
			t.Errorf("SchemeFromName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := SchemeFromName("paxos"); ok {
		t.Error("SchemeFromName accepted an unknown name")
	}
}

func TestGatherObservations(t *testing.T) {
	o := New()
	// Two sites contribute to the same scheme totals.
	for site := protocol.SiteID(0); site < 2; site++ {
		s := o.SchemeSite("voting", site)
		_, sp := s.StartOp(context.Background(), protocol.OpWrite, 1)
		sp.Done(3, nil)
		_, sp = s.StartOp(context.Background(), protocol.OpRead, 1)
		sp.Done(3, nil)
		_, sp = s.StartOp(context.Background(), protocol.OpRecovery, NoBlock)
		sp.Done(0, errors.New("awaiting sites"))
	}
	o.SchemeSite("voting", 0).LazyRefresh(1, 1, 5)
	// A different scheme's counters must not leak in.
	func() {
		_, sp := o.SchemeSite("naive", 0).StartOp(context.Background(), protocol.OpWrite, 1)
		sp.Done(1, nil)
	}()

	tx := map[string]uint64{protocol.OpWrite: 8, protocol.OpRead: 7, protocol.OpRecovery: 0}
	w, r, rec := GatherObservations(o.Snapshot(), "voting", tx)
	if w.Attempts != 2 || w.Completions != 2 || w.ParticipantsSum != 6 || w.Messages != 8 {
		t.Errorf("write observation = %+v", w)
	}
	if r.Attempts != 2 || r.StaleReads != 1 || r.Messages != 7 {
		t.Errorf("read observation = %+v", r)
	}
	if rec.Attempts != 2 || rec.Completions != 0 || rec.Messages != 0 {
		t.Errorf("recovery observation = %+v", rec)
	}
}

func TestUnpricedKinds(t *testing.T) {
	// Every kind a real transport reports is priced: nothing to flag.
	clean := map[string]uint64{"vote": 12, "fetch": 3, "put": 9, "recovery": 2}
	if got := UnpricedKinds(clean); len(got) != 0 {
		t.Fatalf("UnpricedKinds(clean) = %v, want none", got)
	}

	// A kind outside protocol.KindOps with observed traffic is a model
	// violation; zero-count residue and priced kinds are not.
	mixed := map[string]uint64{
		"vote":      4,
		"gossip":    7,
		"heartbeat": 1,
		"debug":     0, // never transmitted: not a violation
	}
	got := UnpricedKinds(mixed)
	want := []string{"gossip", "heartbeat"}
	if len(got) != len(want) {
		t.Fatalf("UnpricedKinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UnpricedKinds = %v, want %v (sorted)", got, want)
		}
	}

	if got := UnpricedKinds(nil); len(got) != 0 {
		t.Fatalf("UnpricedKinds(nil) = %v, want none", got)
	}
}
