package obs

import (
	"fmt"
	"math"
	"sort"

	"relidev/internal/analysis"
	"relidev/internal/protocol"
)

// The §5 conformance checker holds observed per-operation message
// counts against the analytical cost formulas of internal/analysis.
//
// Observed participation feeds the formulas directly: every §5 cost is
// affine in the participation level U, so with U measured as
// (participants summed over completed operations) / completions, the
// predicted per-operation transmission count is exact — not just in
// expectation — for any mix of cluster states, as long as the network
// is reliable and every attempt completes (strict mode).
//
// Under chaos (injected drops, reply losses, crashes mid-operation)
// per-attempt counts are bracketed instead: each attempted operation
// can generate no fewer messages than its initial request costs and no
// more than full participation plus repair would, so the mean
// messages-per-attempt must lie in [Min, Max] (bracket mode).

// An OpObservation is the observed record of one operation class.
type OpObservation struct {
	// Attempts counts operations that reached the protocol.
	Attempts uint64 `json:"attempts"`
	// Completions counts operations that succeeded.
	Completions uint64 `json:"completions"`
	// ParticipantsSum is the participation total over completed
	// operations (local site included).
	ParticipantsSum uint64 `json:"participants_sum"`
	// StaleReads counts lazy refreshes: voting reads that also fetched
	// the block because the local copy was behind.
	StaleReads uint64 `json:"stale_reads,omitempty"`
	// TwoRound counts completed voting writes that used the classic
	// two-round shape (vote round + put fan-out); the remainder used the
	// single-round prepare-write path, which saves the put broadcast and
	// its unicast sends.
	TwoRound uint64 `json:"two_round,omitempty"`
	// TwoRoundParticipants is the participation total over the TwoRound
	// writes, needed in unicast mode where the put fan-out is priced per
	// participant.
	TwoRoundParticipants uint64 `json:"two_round_participants,omitempty"`
	// Pages counts continuation pages of the recovery exchange: each is
	// one request and one reply past the single pair §5 prices.
	Pages uint64 `json:"pages,omitempty"`
	// Messages is the §5 transmission total the transport attributed to
	// this operation class.
	Messages uint64 `json:"messages"`
}

// A ConformanceInput bundles everything one check needs.
type ConformanceInput struct {
	Scheme  analysis.Scheme
	Sites   int
	Unicast bool
	Write   OpObservation
	Read    OpObservation
	// Recovery covers every Recover invocation, including attempts that
	// ended with ErrAwaitingSites (they still query status).
	Recovery OpObservation
}

// An OpCheck is the verdict for one operation class.
type OpCheck struct {
	Op string `json:"op"`
	// Observed is the mean messages per operation — per completion in
	// strict mode, per attempt in bracket mode.
	Observed float64 `json:"observed"`
	// Predicted is the §5 formula value at the measured participation
	// (strict mode only; 0 in bracket mode).
	Predicted float64 `json:"predicted"`
	// Min and Max bracket the legal per-attempt mean (bracket mode
	// only).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	OK  bool    `json:"ok"`
	// Note explains skips ("no operations") and failures.
	Note string `json:"note,omitempty"`
}

// A ConformanceReport is the outcome of one check.
type ConformanceReport struct {
	Scheme string    `json:"scheme"`
	Mode   string    `json:"mode"`
	Strict bool      `json:"strict"`
	OK     bool      `json:"ok"`
	Checks []OpCheck `json:"checks"`
}

// strictTolerance absorbs float rounding in the affine formulas; the
// underlying counts are integers, so any genuine mismatch is >= 1/ops.
const strictTolerance = 1e-6

// CheckConformance compares observations against the §5 model. In
// strict mode (reliable network, failure-free attempts) every
// operation class must match its formula exactly; in bracket mode
// (chaos) the per-attempt mean must lie within the scheme's
// [min, max] message envelope.
func CheckConformance(in ConformanceInput, strict bool) (ConformanceReport, error) {
	mode := "multicast"
	if in.Unicast {
		mode = "unicast"
	}
	rep := ConformanceReport{Scheme: in.Scheme.String(), Mode: mode, Strict: strict, OK: true}
	type opCase struct {
		op  string
		obs OpObservation
	}
	for _, c := range []opCase{
		{protocol.OpWrite, in.Write},
		{protocol.OpRead, in.Read},
		{protocol.OpRecovery, in.Recovery},
	} {
		var (
			chk OpCheck
			err error
		)
		if strict {
			chk, err = strictCheck(in, c.op, c.obs)
		} else {
			chk, err = bracketCheck(in, c.op, c.obs)
		}
		if err != nil {
			return rep, err
		}
		rep.Checks = append(rep.Checks, chk)
		rep.OK = rep.OK && chk.OK
	}
	return rep, nil
}

// Violations renders the failed checks as violation strings (empty
// when the report is OK).
func (r ConformanceReport) Violations() []string {
	var out []string
	for _, c := range r.Checks {
		if c.OK {
			continue
		}
		if r.Strict {
			out = append(out, fmt.Sprintf("§5 conformance (%s/%s): %s observed %.4f msgs/op, predicted %.4f (%s)",
				r.Scheme, r.Mode, c.Op, c.Observed, c.Predicted, c.Note))
			continue
		}
		out = append(out, fmt.Sprintf("§5 conformance (%s/%s): %s observed %.4f msgs/attempt outside [%.1f, %.1f] (%s)",
			r.Scheme, r.Mode, c.Op, c.Observed, c.Min, c.Max, c.Note))
	}
	return out
}

func strictCheck(in ConformanceInput, op string, o OpObservation) (OpCheck, error) {
	chk := OpCheck{Op: op}
	if o.Attempts == 0 && o.Messages == 0 {
		chk.OK, chk.Note = true, "no operations"
		return chk, nil
	}
	if o.Attempts != o.Completions {
		chk.Note = fmt.Sprintf("strict mode requires failure-free attempts: %d attempts, %d completions", o.Attempts, o.Completions)
		return chk, nil
	}
	u := float64(o.ParticipantsSum) / float64(o.Completions)
	costs, err := analysis.CostsForParticipation(in.Scheme, in.Sites, u, in.Unicast)
	if err != nil {
		return chk, err
	}
	var predicted float64
	switch op {
	case protocol.OpWrite:
		predicted = costs.Write
		if in.Scheme == analysis.SchemeVoting {
			// Writes that took the single-round prepare-write path skip
			// the put fan-out: in multicast mode each saves exactly one
			// broadcast; in unicast mode each saves its (participants-1)
			// put sends. The §5 formula is affine in participation, so
			// adjusting costs.Write (priced at mean U) by the mean saving
			// stays exact for any mix of shapes.
			c := float64(o.Completions)
			fast := c - float64(o.TwoRound)
			if in.Unicast {
				fastPuts := (float64(o.ParticipantsSum) - float64(o.TwoRoundParticipants)) - fast
				predicted -= fastPuts / c
			} else {
				predicted -= fast / c
			}
		}
	case protocol.OpRead:
		// Each lazy refresh costs ReadStale - Read extra (one fetch).
		predicted = costs.Read + (costs.ReadStale-costs.Read)*float64(o.StaleReads)/float64(o.Completions)
	case protocol.OpRecovery:
		predicted = costs.Recovery + 2*float64(o.Pages)/float64(o.Completions)
	}
	chk.Observed = float64(o.Messages) / float64(o.Completions)
	chk.Predicted = predicted
	chk.OK = math.Abs(chk.Observed-chk.Predicted) <= strictTolerance
	if !chk.OK {
		chk.Note = fmt.Sprintf("U=%.4f over %d ops", u, o.Completions)
	}
	return chk, nil
}

// bracketCheck bounds the per-attempt mean. The envelopes follow from
// the §5 accounting: every attempt issues its initial broadcast (one
// transmission in multicast mode, n-1 in unicast mode — or zero for
// the message-free classes), and can at most gather a reply from every
// remote site plus the scheme's repair exchange.
func bracketCheck(in ConformanceInput, op string, o OpObservation) (OpCheck, error) {
	chk := OpCheck{Op: op}
	n := float64(in.Sites)
	bcast := 1.0 // cost of one logical broadcast to the remotes
	if in.Unicast {
		bcast = n - 1
	}
	replies := n - 1 // at most one reply per remote site
	switch in.Scheme {
	case analysis.SchemeVoting:
		switch op {
		case protocol.OpWrite:
			// vote broadcast + replies + put broadcast.
			chk.Min, chk.Max = bcast, bcast+replies+bcast
		case protocol.OpRead:
			// vote broadcast + replies + one repair fetch.
			chk.Min, chk.Max = bcast, bcast+replies+1
		case protocol.OpRecovery:
			// Lazy recovery generates no traffic at all (§5.1).
			chk.Min, chk.Max = 0, 0
		}
	case analysis.SchemeAvailableCopy, analysis.SchemeNaive:
		switch op {
		case protocol.OpWrite:
			if in.Scheme == analysis.SchemeNaive {
				// Fire-and-forget: exactly the broadcast, always.
				chk.Min, chk.Max = bcast, bcast
			} else {
				// put broadcast + acknowledgements.
				chk.Min, chk.Max = bcast, bcast+replies
			}
		case protocol.OpRead:
			// Local reads are message-free.
			chk.Min, chk.Max = 0, 0
		case protocol.OpRecovery:
			// status broadcast + replies + version-vector Call (2), and 2
			// more for every continuation page.
			chk.Min, chk.Max = bcast, bcast+replies+2
			if o.Attempts > 0 {
				chk.Max += 2 * float64(o.Pages) / float64(o.Attempts)
			}
		}
	default:
		return chk, fmt.Errorf("obs: unknown scheme %v", in.Scheme)
	}
	if o.Attempts == 0 {
		chk.Observed = float64(o.Messages)
		chk.OK = o.Messages == 0
		if chk.OK {
			chk.Note = "no operations"
		} else {
			chk.Note = "messages without attempts"
		}
		return chk, nil
	}
	chk.Observed = float64(o.Messages) / float64(o.Attempts)
	chk.OK = chk.Observed >= chk.Min-strictTolerance && chk.Observed <= chk.Max+strictTolerance
	return chk, nil
}

// SchemeFromName maps a controller name ("voting", "available-copy",
// "naive") to its analysis scheme.
func SchemeFromName(name string) (analysis.Scheme, bool) {
	switch name {
	case "voting":
		return analysis.SchemeVoting, true
	case "available-copy":
		return analysis.SchemeAvailableCopy, true
	case "naive":
		return analysis.SchemeNaive, true
	default:
		return 0, false
	}
}

// GatherObservations extracts the per-operation observations for one
// scheme from a metrics snapshot (summed across sites) plus the
// per-operation transmission totals reported by the metering transport
// (e.g. simnet's Stats.ByOp, keyed by the protocol.Op* labels).
func GatherObservations(snap Snapshot, schemeName string, transmissions map[string]uint64) (write, read, recovery OpObservation) {
	s := L("scheme", schemeName)
	gather := func(op string) OpObservation {
		o := L("op", op)
		return OpObservation{
			Attempts:        snap.CounterTotal(MetricOpAttempts, s, o),
			Completions:     snap.CounterTotal(MetricOpCompletions, s, o),
			ParticipantsSum: snap.CounterTotal(MetricOpParticipants, s, o),
			Messages:        transmissions[op],
		}
	}
	write = gather(protocol.OpWrite)
	write.TwoRound = snap.CounterTotal(MetricWriteTwoRound, s)
	write.TwoRoundParticipants = snap.CounterTotal(MetricWriteTwoRoundParticipants, s)
	read = gather(protocol.OpRead)
	read.StaleReads = snap.CounterTotal(MetricStaleReads, s)
	recovery = gather(protocol.OpRecovery)
	recovery.Pages = snap.CounterTotal(MetricRecoveryPages, s)
	return write, read, recovery
}

// UnpricedKinds returns, sorted, the request kinds observed on the
// wire (a transport's per-kind transmission counts, e.g. simnet's
// Stats.ByKind) that the protocol.KindOps §5 pricing table does not
// cover. A non-empty result means traffic reached the network that no
// cost formula attributes — the aggregate counters absorb it while
// every per-op bracket stays green — so conformance harnesses treat
// any unpriced kind as a model violation, not a tolerable residue.
func UnpricedKinds(byKind map[string]uint64) []string {
	var unpriced []string
	for kind, n := range byKind {
		if n > 0 && !protocol.PricedKind(kind) {
			unpriced = append(unpriced, kind)
		}
	}
	sort.Strings(unpriced)
	return unpriced
}
