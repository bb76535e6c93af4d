package core

import (
	"context"
	"errors"
	"fmt"

	"relidev/internal/availcopy"
	"relidev/internal/block"
	"relidev/internal/naiveac"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/simnet"
	"relidev/internal/site"
	"relidev/internal/store"
	"relidev/internal/voting"
)

// SchemeKind selects a consistency control algorithm.
type SchemeKind int

// The three algorithms of §3.
const (
	Voting SchemeKind = iota + 1
	AvailableCopy
	NaiveAvailableCopy
)

// String implements fmt.Stringer.
func (k SchemeKind) String() string {
	switch k {
	case Voting:
		return "voting"
	case AvailableCopy:
		return "available-copy"
	case NaiveAvailableCopy:
		return "naive"
	default:
		return fmt.Sprintf("scheme(%d)", int(k))
	}
}

// ClusterConfig parameterises an in-process replica cluster.
type ClusterConfig struct {
	// Sites is the number of replica sites (1..protocol.MaxSites).
	Sites int
	// Geometry is the device shape; zero value defaults to 512x128.
	Geometry block.Geometry
	// Scheme selects the consistency algorithm.
	Scheme SchemeKind
	// Mode selects the §5 network flavour; zero defaults to Multicast.
	Mode simnet.Mode
	// Weights optionally assigns per-site voting weights (thousandths).
	// Nil assigns 1000 everywhere with the §4.1 tie-breaking nudge (+1 to
	// site 0) when the site count is even.
	Weights []int64
	// Witnesses makes the last Witnesses sites voting witnesses ([10]):
	// they vote with per-block version numbers but store no data, cutting
	// the storage cost of a copy to a version table. Valid only with the
	// Voting scheme, and at least one data site must remain.
	Witnesses int
	// NewStore optionally builds each site's stable storage for data
	// sites; nil uses in-memory stores. Witness sites always use
	// version-only stores.
	NewStore func(id protocol.SiteID, geom block.Geometry) (store.Store, error)
	// VotingOptions are passed to voting controllers.
	VotingOptions []voting.Option
	// AvailCopyOptions are passed to available copy controllers.
	AvailCopyOptions []availcopy.Option
	// WrapTransport optionally decorates the cluster's transport before
	// the controllers see it — the hook the chaos harness uses to splice
	// a fault-injecting faultnet.Network between the controllers and the
	// simulated network. Applied once, to the shared transport, not per
	// site. Nil leaves the transport bare.
	WrapTransport func(protocol.Transport) protocol.Transport
	// Observer, when set, instruments the cluster: per-scheme/site/op
	// metrics and optional protocol traces in the controllers and
	// replicas, plus a metering decorator applied outermost over the
	// (possibly WrapTransport-decorated) transport so it observes
	// exactly what the controllers see, fault injection included. Nil
	// leaves the cluster unmetered at zero overhead.
	Observer *obs.Observer
}

func (c *ClusterConfig) applyDefaults() error {
	if c.Sites <= 0 || c.Sites > protocol.MaxSites {
		return fmt.Errorf("core: cluster needs 1..%d sites, got %d", protocol.MaxSites, c.Sites)
	}
	if c.Geometry == (block.Geometry{}) {
		c.Geometry = block.Geometry{BlockSize: 512, NumBlocks: 128}
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch c.Scheme {
	case Voting, AvailableCopy, NaiveAvailableCopy:
	default:
		return fmt.Errorf("core: unknown scheme %v", c.Scheme)
	}
	if c.Mode == 0 {
		c.Mode = simnet.Multicast
	}
	if c.Weights == nil {
		c.Weights = DefaultWeights(c.Sites)
	}
	if len(c.Weights) != c.Sites {
		return fmt.Errorf("core: %d weights for %d sites", len(c.Weights), c.Sites)
	}
	if c.NewStore == nil {
		c.NewStore = func(_ protocol.SiteID, geom block.Geometry) (store.Store, error) {
			return store.NewMem(geom)
		}
	}
	if c.Witnesses < 0 || c.Witnesses >= c.Sites {
		return fmt.Errorf("core: %d witnesses need at least one data site among %d sites", c.Witnesses, c.Sites)
	}
	if c.Witnesses > 0 && c.Scheme != Voting {
		return fmt.Errorf("core: witnesses require the voting scheme, not %v", c.Scheme)
	}
	return nil
}

// Cluster is an in-process set of replica sites joined by a simulated
// network. It owns site lifecycle: failing a site, restarting it, and
// driving the scheme's recovery procedure — including re-driving it for
// sites whose recovery had to wait (comatose) whenever membership
// changes.
type Cluster struct {
	cfg       ClusterConfig
	net       *simnet.Network
	transport protocol.Transport // cl.net after WrapTransport decoration
	replicas  []*site.Replica
	ctrls     []scheme.Controller
	devices   []*ReliableDevice
}

// NewCluster builds and starts a cluster; all sites begin available with
// freshly formatted (all-zero) stores.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg:      cfg,
		net:      simnet.New(cfg.Mode),
		replicas: make([]*site.Replica, cfg.Sites),
		ctrls:    make([]scheme.Controller, cfg.Sites),
		devices:  make([]*ReliableDevice, cfg.Sites),
	}
	ids := make([]protocol.SiteID, cfg.Sites)
	for i := range ids {
		ids[i] = protocol.SiteID(i)
	}
	for i := range ids {
		witness := i >= cfg.Sites-cfg.Witnesses
		var st store.Store
		var err error
		if witness {
			st, err = store.NewVersionOnly(cfg.Geometry)
		} else {
			st, err = cfg.NewStore(ids[i], cfg.Geometry)
		}
		if err != nil {
			return nil, fmt.Errorf("core: store for %v: %w", ids[i], err)
		}
		rep, err := site.New(site.Config{ID: ids[i], Store: st, Weight: cfg.Weights[i], Witness: witness})
		if err != nil {
			return nil, err
		}
		cl.replicas[i] = rep
		cl.net.Attach(ids[i], rep)
	}
	cl.transport = cl.net
	if cfg.WrapTransport != nil {
		if cl.transport = cfg.WrapTransport(cl.net); cl.transport == nil {
			return nil, errors.New("core: WrapTransport returned nil")
		}
	}
	// Metering wraps outermost so it sees exactly what the controllers
	// send — including traffic the WrapTransport decorator (fault
	// injection) will fail. A nil Observer leaves the transport as-is.
	cl.transport = obs.WrapTransport(cfg.Observer, "sim", cl.transport, ids)
	// Construction and reconfiguration share one wiring path, so a site
	// added by Grow is observed exactly like a founding one.
	for i := range cl.devices {
		cl.devices[i] = &ReliableDevice{geom: cfg.Geometry}
	}
	if err := cl.rebuildControllers(); err != nil {
		return nil, err
	}
	return cl, nil
}

// DefaultWeights gives each of n sites one vote (1000 thousandths).
// §4.1: with an even number of equally weighted copies, draws occur
// whenever half the copies are down, so one copy's weight is adjusted
// by a small quantity to break ties.
func DefaultWeights(n int) []int64 {
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 1000
	}
	if n%2 == 0 {
		weights[0]++
	}
	return weights
}

// WireSite assembles one site's consistency engine over a membership:
// the scheme.Env, the replica's two observation hooks (W-transitions
// and handled requests) and the controller of cfg.Scheme (of cfg it
// reads Scheme, Observer, Weights — nil means DefaultWeights — and the
// controller options). Every host wires through here — the Cluster for
// each site, again after Grow and Remove, and relidev.OpenRemote for
// its one — so a site is observed the same way wherever it runs.
func WireSite(cfg ClusterConfig, self *site.Replica, transport protocol.Transport, ids []protocol.SiteID) (scheme.Controller, error) {
	weights := cfg.Weights
	if weights == nil {
		weights = DefaultWeights(len(ids))
	}
	name, id := cfg.Scheme.String(), self.ID()
	env := scheme.Env{
		Self:      self,
		Transport: transport,
		Sites:     ids,
		Weights:   weights,
		Obs:       cfg.Observer.SchemeSite(name, id),
	}
	if o := cfg.Observer; o != nil {
		self.SetWTransitionHook(env.Obs.WTransition)
		if hook := o.HandleHook(name, id); hook != nil {
			self.SetHandleHook(hook)
		}
	}
	switch cfg.Scheme {
	case Voting:
		return voting.New(env, cfg.VotingOptions...)
	case AvailableCopy:
		return availcopy.New(env, cfg.AvailCopyOptions...)
	case NaiveAvailableCopy:
		return naiveac.New(env)
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", cfg.Scheme)
	}
}

// Sites returns the number of sites.
func (cl *Cluster) Sites() int { return cl.cfg.Sites }

// Geometry returns the device shape.
func (cl *Cluster) Geometry() block.Geometry { return cl.cfg.Geometry }

// Network exposes the simulated network (traffic statistics, test-only
// partitions).
func (cl *Cluster) Network() *simnet.Network { return cl.net }

// Device returns the reliable device served at the given site. A file
// system mounted on it needs no knowledge of replication.
func (cl *Cluster) Device(id protocol.SiteID) (*ReliableDevice, error) {
	if err := cl.check(id); err != nil {
		return nil, err
	}
	return cl.devices[id], nil
}

// Replica exposes a site's replica (tests and examples).
func (cl *Cluster) Replica(id protocol.SiteID) (*site.Replica, error) {
	if err := cl.check(id); err != nil {
		return nil, err
	}
	return cl.replicas[id], nil
}

// Controller exposes a site's consistency controller (tests and benches).
func (cl *Cluster) Controller(id protocol.SiteID) (scheme.Controller, error) {
	if err := cl.check(id); err != nil {
		return nil, err
	}
	return cl.ctrls[id], nil
}

// State returns a site's current state.
func (cl *Cluster) State(id protocol.SiteID) (protocol.SiteState, error) {
	if err := cl.check(id); err != nil {
		return 0, err
	}
	return cl.replicas[id].State(), nil
}

// States returns every site's state, indexed by site id.
func (cl *Cluster) States() []protocol.SiteState {
	out := make([]protocol.SiteState, cl.cfg.Sites)
	for i, r := range cl.replicas {
		out[i] = r.State()
	}
	return out
}

// AvailableCount returns the number of available sites.
func (cl *Cluster) AvailableCount() int {
	n := 0
	for _, r := range cl.replicas {
		if r.State() == protocol.StateAvailable {
			n++
		}
	}
	return n
}

func (cl *Cluster) check(id protocol.SiteID) error {
	if id < 0 || int(id) >= cl.cfg.Sites {
		return fmt.Errorf("core: no site %v in a %d-site cluster", id, cl.cfg.Sites)
	}
	return nil
}

// Fail crashes a site: fail-stop, stable storage intact (§2). Failing a
// site that is already down is rejected — a chaos schedule replaying
// Poisson events must be able to tell an applied crash from a no-op.
func (cl *Cluster) Fail(id protocol.SiteID) error {
	if err := cl.check(id); err != nil {
		return err
	}
	if cl.replicas[id].State() == protocol.StateFailed {
		return fmt.Errorf("core: fail of %v which is already failed", id)
	}
	//relidev:allow locking: crash injection models the fail-stop event itself (§3); it deliberately bypasses the protocol's critical sections, and Replica serializes the state flip internally
	cl.replicas[id].SetState(protocol.StateFailed)
	cl.net.SetUp(id, false)
	return nil
}

// Restart brings a failed site's process back up (state comatose) and
// drives recovery: first for the restarted site, then for every other
// comatose site that may now be able to proceed (e.g. once the last site
// of a naive cluster returns, all of them recover in one cascade).
func (cl *Cluster) Restart(ctx context.Context, id protocol.SiteID) error {
	if err := cl.check(id); err != nil {
		return err
	}
	if cl.replicas[id].State() != protocol.StateFailed {
		return fmt.Errorf("core: restart of %v which is %v", id, cl.replicas[id].State())
	}
	//relidev:allow locking: process restart precedes any protocol activity on the site; the replica is comatose and rejects operations until Recover runs under its own exclusion
	cl.replicas[id].SetState(protocol.StateComatose)
	cl.net.SetUp(id, true)
	return cl.DriveRecovery(ctx)
}

// DriveRecovery repeatedly runs the scheme's recovery procedure on every
// comatose site until no further site can make progress. Sites whose
// recovery must still wait stay comatose; that is not an error.
func (cl *Cluster) DriveRecovery(ctx context.Context) error {
	for {
		progress := false
		for i, r := range cl.replicas {
			if r.State() != protocol.StateComatose {
				continue
			}
			err := cl.ctrls[i].Recover(ctx)
			switch {
			case err == nil:
				progress = true
			case errors.Is(err, scheme.ErrAwaitingSites):
				// Stay comatose; maybe a later recovery unblocks it.
			default:
				return fmt.Errorf("core: recovery of %v: %w", r.ID(), err)
			}
		}
		if !progress {
			return nil
		}
	}
}
