// Package scheme defines the common shape of the three consistency
// control algorithms of §3. A Controller runs at one site and implements
// the data access operations (read and write of one block) plus the
// recovery procedure executed when the site restarts after a failure.
//
// The reliable device core drives Controllers; the file system above it
// never sees them.
package scheme

import (
	"context"
	"errors"
	"fmt"

	"relidev/internal/block"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/site"
)

// Errors shared by the schemes.
var (
	// ErrNoQuorum is returned by the voting scheme when too few sites are
	// reachable to form the required quorum (§3.1: "the file is
	// considered unavailable").
	ErrNoQuorum = errors.New("scheme: quorum not reachable")

	// ErrNotAvailable is returned by the available copy schemes when the
	// local site is failed or comatose: it must complete recovery before
	// serving data.
	ErrNotAvailable = errors.New("scheme: local site is not available")

	// ErrAwaitingSites is returned by Recover when the recovery protocol
	// cannot complete yet: no site is available and the sites this one
	// must wait for (C*(W_s), or all sites in the naive scheme) have not
	// all recovered — or the chosen repair source vanished mid-exchange.
	// The site stays comatose, and recovery is retried later.
	ErrAwaitingSites = errors.New("scheme: recovery must wait for more sites")
)

// IsTransportError reports whether err is a communication-level failure
// — the peer is down, unreachable, or suffered a transient wire error —
// as opposed to a handler or storage error. Schemes treat transport
// failures as missing answers (the §3 fail-stop model); everything else
// is surfaced.
func IsTransportError(err error) bool {
	return errors.Is(err, protocol.ErrSiteDown) ||
		errors.Is(err, protocol.ErrSiteUnreachable) ||
		errors.Is(err, protocol.ErrTransient)
}

// Controller is one site's consistency control and data access engine.
type Controller interface {
	// Name identifies the scheme ("voting", "available-copy", "naive").
	Name() string

	// Read returns the current contents of one block, or an error when
	// the scheme deems the block unavailable from this site.
	Read(ctx context.Context, idx block.Index) ([]byte, error)

	// Write replaces the contents of one block.
	Write(ctx context.Context, idx block.Index, data []byte) error

	// Recover runs the scheme's recovery procedure after the local site
	// restarts (state comatose). On success the site is available. When
	// recovery must wait for other sites it returns ErrAwaitingSites and
	// leaves the site comatose.
	Recover(ctx context.Context) error
}

// Env is everything a Controller needs about its surroundings.
type Env struct {
	// Self is the local replica.
	Self *site.Replica
	// Transport connects the sites.
	Transport protocol.Transport
	// Sites lists every site holding a copy, including Self, in id order.
	Sites []protocol.SiteID
	// Weights holds the voting weight (thousandths) of each entry of
	// Sites. Only the voting scheme reads it.
	Weights []int64
	// Obs is this controller's instrumentation handle. It may be nil —
	// every obs method is a nil-receiver no-op, so controllers call it
	// unconditionally and an unmetered cluster pays nothing.
	Obs *obs.SchemeObs
}

// Remotes returns every site except Self.
func (e Env) Remotes() []protocol.SiteID {
	out := make([]protocol.SiteID, 0, len(e.Sites)-1)
	for _, id := range e.Sites {
		if id != e.Self.ID() {
			out = append(out, id)
		}
	}
	return out
}

// TotalWeight returns the sum of all site weights.
func (e Env) TotalWeight() int64 {
	var total int64
	for _, w := range e.Weights {
		total += w
	}
	return total
}

// FullSet returns the set of all sites.
func (e Env) FullSet() protocol.SiteSet {
	return protocol.NewSiteSet(e.Sites...)
}

// Validate reports configuration errors.
func (e Env) Validate() error {
	if e.Self == nil {
		return errors.New("scheme: env requires a local replica")
	}
	if e.Transport == nil {
		return errors.New("scheme: env requires a transport")
	}
	if len(e.Sites) == 0 {
		return errors.New("scheme: env requires at least one site")
	}
	var seen protocol.SiteSet
	for _, id := range e.Sites {
		if id < 0 || id >= protocol.MaxSites {
			return fmt.Errorf("scheme: site id %v out of range [0,%d)", id, protocol.MaxSites)
		}
		if seen.Has(id) {
			return fmt.Errorf("scheme: site id %v listed twice", id)
		}
		seen = seen.Add(id)
	}
	if !seen.Has(e.Self.ID()) {
		return errors.New("scheme: env site list does not include the local site")
	}
	if e.Weights != nil && len(e.Weights) != len(e.Sites) {
		return errors.New("scheme: weights and sites disagree in length")
	}
	return nil
}
