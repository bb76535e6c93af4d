package scheme

import (
	"sync"

	"relidev/internal/block"
	"relidev/internal/obs"
	"relidev/internal/protocol"
)

// OpLocks is the concurrency regime shared by the three consistency
// controllers: data operations (read/write of one block) take a stripe
// keyed by the block index, so operations on distinct blocks run
// concurrently while two local operations on the *same* block still
// serialise — preserving the paper's per-block semantics exactly as the
// old controller-wide mutex did. Recovery takes the whole structure
// exclusively: it mutates site-wide state (version vectors, was-available
// sets) and must not interleave with in-flight operations. Controllers
// take either through the Op bracket (BeginOp, BeginRecovery).
//
// Cross-site concurrency control is explicitly out of scope for the
// paper (§5: no commit protocols); this type does not order concurrent
// writes to one block from different sites, which under voting can
// leave copies that disagree at equal versions.
type OpLocks struct {
	// state is held shared by block operations and exclusively by
	// recovery, so recovery drains and excludes all in-flight operations.
	state sync.RWMutex
	// stripes serialise same-block (and same-stripe) operations: block
	// idx takes stripes[protocol.Stripe(idx)]. 64 stripes keep the
	// collision probability low for realistic client counts while costing
	// about 12 KB per controller, nearly all of it op scopes. Holding the
	// stripe from a prepare-write until its abort is sent is what
	// protocol.OpStripes promises every replica.
	stripes [protocol.OpStripes]sync.Mutex
	// scopes[i] is the obs.Scope of the op holding stripes[i], recovery
	// that of the op holding state exclusively: the lock that
	// serialises an op makes its slot its own until Op.End.
	scopes   [protocol.OpStripes]obs.Scope
	recovery obs.Scope
}

// LockOp acquires the operation lock for one block.
func (l *OpLocks) LockOp(idx block.Index) {
	l.state.RLock()
	l.stripes[protocol.Stripe(idx)].Lock()
}

// UnlockOp releases what LockOp acquired.
func (l *OpLocks) UnlockOp(idx block.Index) {
	l.stripes[protocol.Stripe(idx)].Unlock()
	l.state.RUnlock()
}
