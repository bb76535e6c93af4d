package core

import (
	"context"
	"fmt"

	"relidev/internal/protocol"
	"relidev/internal/site"
	"relidev/internal/store"
)

// Reconfiguration: the paper's introduction notes that "availability and
// reliability of a file can be made arbitrarily high by increasing the
// order of replication". Grow adds a copy to a live cluster; Remove
// retires one. Both rebuild the consistency controllers over the new
// membership and leave every issued device handle valid.

// Grow adds one replica site to the cluster and drives its recovery: the
// new site starts comatose with an empty store and is brought current by
// the scheme's ordinary recovery procedure (voting sites join
// immediately and repair lazily; available copy sites repair from any
// available copy). It returns the new site's id.
//
// The new site is a full data copy with weight 1000; witness layouts are
// fixed at construction.
func (cl *Cluster) Grow(ctx context.Context) (protocol.SiteID, error) {
	if cl.cfg.Sites >= protocol.MaxSites {
		return 0, fmt.Errorf("core: cluster already has the maximum of %d sites", protocol.MaxSites)
	}
	id := protocol.SiteID(cl.cfg.Sites)
	var st store.Store
	var err error
	st, err = cl.cfg.NewStore(id, cl.cfg.Geometry)
	if err != nil {
		return 0, fmt.Errorf("core: store for new site %v: %w", id, err)
	}
	rep, err := site.New(site.Config{
		ID:           id,
		Store:        st,
		Weight:       1000,
		InitialState: protocol.StateComatose,
	})
	if err != nil {
		st.Close()
		return 0, err
	}
	cl.cfg.Sites++
	cl.cfg.Weights = append(cl.cfg.Weights, 1000)
	cl.replicas = append(cl.replicas, rep)
	cl.net.Attach(id, rep)

	// Placeholder device slot; rebuildControllers fills in the engine.
	cl.ctrls = append(cl.ctrls, nil)
	cl.devices = append(cl.devices, &ReliableDevice{geom: cl.cfg.Geometry})
	if err := cl.rebuildControllers(); err != nil {
		return 0, err
	}
	// Bring the newcomer (and anything it unblocks) in.
	if err := cl.DriveRecovery(ctx); err != nil {
		return 0, err
	}
	return id, nil
}

// Remove retires the highest-numbered site from the cluster (shrinking
// is last-in-first-out so that site ids stay dense). The retired site's
// identity is also scrubbed from every remaining was-available set, so
// an available copy recovery never waits for a site that no longer
// exists.
//
// Removing a site that holds data no remaining site has — the only
// available copy, or the last site to fail while others are comatose —
// would silently discard its writes; Remove refuses these cases unless
// force is set.
func (cl *Cluster) Remove(ctx context.Context, force bool) error {
	if cl.cfg.Sites <= 1 {
		return fmt.Errorf("core: cannot remove the only site")
	}
	id := protocol.SiteID(cl.cfg.Sites - 1)
	victim := cl.replicas[id]

	if !force {
		availElsewhere := 0
		for _, r := range cl.replicas[:id] {
			if r.State() == protocol.StateAvailable {
				availElsewhere++
			}
		}
		if availElsewhere == 0 {
			return fmt.Errorf("core: removing %v could discard the most recent data (no other available site); use force to override", id)
		}
	}

	// Fail-stop the victim and detach it.
	//relidev:allow locking: administrative removal is a deliberate fail-stop of the victim (§3); the site leaves the configuration rather than racing its own operations
	victim.SetState(protocol.StateFailed)
	cl.net.SetUp(id, false)
	cl.cfg.Sites--
	cl.cfg.Weights = cl.cfg.Weights[:cl.cfg.Sites]
	cl.replicas = cl.replicas[:cl.cfg.Sites]
	cl.ctrls = cl.ctrls[:cl.cfg.Sites]
	cl.devices = cl.devices[:cl.cfg.Sites]

	// Scrub the retired identity from every remaining was-available set
	// (an administrative stable-storage edit, as reconfiguring the
	// replication order would be in practice).
	for _, r := range cl.replicas {
		if w := r.WasAvailable(); w.Has(id) {
			//relidev:allow locking: administrative stable-storage edit during reconfiguration; controllers are rebuilt immediately after, so no in-flight operation observes the interim set
			if err := r.SetWasAvailable(w.Remove(id)); err != nil {
				return err
			}
		}
	}
	if err := cl.rebuildControllers(); err != nil {
		return err
	}
	return cl.DriveRecovery(ctx)
}

// rebuildControllers (re)constructs every site's consistency engine and
// observation hooks over the current membership and swaps the engines
// into the live devices.
func (cl *Cluster) rebuildControllers() error {
	ids := make([]protocol.SiteID, cl.cfg.Sites)
	for i := range ids {
		ids[i] = protocol.SiteID(i)
	}
	for i := range ids {
		// Keep the WrapTransport decoration (fault injection, accounting):
		// rebuilding over the bare network would silently strip it after
		// Grow/Remove.
		ctrl, err := WireSite(cl.cfg, cl.replicas[i], cl.transport, ids)
		if err != nil {
			return err
		}
		cl.ctrls[i] = ctrl
		cl.devices[i].setController(ctrl)
	}
	return nil
}
