package protocol

// KindOps maps every request kind to the §5 operation classes whose
// cost formulas cover its traffic. The paper prices three operation
// rows (write, read, recovery), and the conformance checker compares
// the transport's per-op transmission counts against those formulas. A request kind missing from this table is traffic
// the model cannot attribute: it inflates the aggregate counters while
// every per-op bracket stays green, which is exactly the silent skew
// the table exists to prevent.
//
// The static side of the contract is enforced by the wirecheck
// analyzer (every Kind() literal must appear here, and every key here
// must name a live request type); the dynamic side by
// obs.UnpricedKinds, which rejects observed traffic whose kind is not
// in the table.
var KindOps = map[string][]string{
	"vote":           {OpWrite, OpRead}, // quorum collection serves both §5 rows
	"fetch":          {OpRead},          // current-copy pull after a read quorum
	"put":            {OpWrite},         // commit push (incl. W-set tightening)
	"prepare-write":  {OpWrite},         // two-round stage
	"abort-write":    {OpWrite},         // two-round rollback
	"status":         {OpRecovery},      // readmission probe
	"recovery":       {OpRecovery},      // readmission state/block transfer
	"telemetry-pull": {OpTelemetry},     // registry or trace-ring scrape
}

// PricedKind reports whether the request kind is covered by the §5
// pricing table.
func PricedKind(kind string) bool {
	_, ok := KindOps[kind]
	return ok
}
