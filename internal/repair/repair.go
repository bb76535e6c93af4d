// Package repair implements the background anti-entropy engine of
// DESIGN.md §13: a rate-limited repairer that a recovering site runs
// after readmission to erase the staleness the paper's lazy per-block
// recovery leaves behind.
//
// Lazy recovery (§5.1) makes a restarted site cheap to readmit — one
// version-vector exchange — but the site then serves from a stale image
// until the workload happens to touch each block, untenable at millions
// of blocks. The repairer closes that window: it discovers stale ranges
// by broadcasting a version-vector summary request, computes the exact
// want-list against the freshest reachable peers, and streams the stale
// blocks concurrently from multiple donors using paged fetches with
// per-peer request pipelining and in-flight caps (the blocksync-pool
// idiom). Transient transport faults are retried with capped jittered
// backoff against the same donor; conclusive faults — crash, partition,
// a stream severed mid-exchange — demote the donor immediately and its
// remaining pages fail over to the surviving donors. A repair survives
// any fault schedule that leaves one up-to-date donor reachable.
//
// Installs go through the replica's atomic version-conditional gate
// (site.Replica.ApplyRepair), never through the schemes' per-block
// OpLocks, so foreground reads and writes proceed unblocked while the
// stream runs; a foreground write racing a repair install on the same
// block simply wins or loses by version number, never tears.
//
// Scheduling is deterministic by construction — donors are chosen in a
// fixed order, pages are assigned round-robin, and failover
// redistributes pages only at wave barriers — so a seeded chaos
// schedule replays bit-identically with the repairer enabled.
package repair

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"relidev/internal/block"
	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/site"
)

// Errors the repairer returns. Both mean "try again later when
// membership has changed"; neither is a protocol failure.
var (
	// ErrNoDonors reports that discovery found no available, non-witness
	// peer holding anything newer than the local image while stale
	// blocks remain (e.g. every fresher peer is down or partitioned).
	ErrNoDonors = errors.New("repair: no up-to-date donor reachable")

	// ErrIncomplete reports that streaming exhausted every donor —
	// demotions or unsatisfiable wants — with stale blocks remaining.
	ErrIncomplete = errors.New("repair: stale blocks remain after exhausting donors")
)

// Policy is the tuning surface of a repairer, separated from the wiring
// (Config) so a cluster can apply one policy to every site.
type Policy struct {
	// PageBlocks bounds the blocks per fetch page. Default 16.
	PageBlocks int
	// MaxInFlightPerPeer caps the pages outstanding to one donor — the
	// pipelining depth and per-peer backpressure bound. Default 2.
	// Deterministic harnesses use 1 so each link sees a sequential,
	// replayable request stream.
	MaxInFlightPerPeer int
	// MaxDonors caps how many donors stream concurrently, preferring
	// the freshest (then lowest-id). 0 means all qualifying peers.
	MaxDonors int
	// BlocksPerSec rate-limits the stream in blocks per second across
	// all donors. 0 means unlimited.
	BlocksPerSec float64
	// RetryBase is the first backoff after a transient fault; each
	// retry doubles it up to RetryMax, with deterministic jitter in
	// [d/2, d). Defaults 10ms and 640ms.
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxAttemptsPerPage bounds sends of one page to one donor before
	// the donor is demoted as repeatedly failing. Default 4.
	MaxAttemptsPerPage int
	// MaxRounds bounds discovery rounds: a round is one summary
	// broadcast plus one full streaming pass; a later round re-discovers
	// donors (peers recovered, targets changed). Default 3.
	MaxRounds int
	// Seed feeds the deterministic backoff jitter.
	Seed uint64
	// Clock is the time source for rate limiting and backoff. Default
	// clock.Wall; replayed harnesses inject a *clock.Manual, whose Sleep
	// advances instead of blocking (concurrent sleepers accumulate: an
	// upper bound on a serial wait, the safe side for a deadline).
	Clock clock.Clock
}

func (p Policy) withDefaults() Policy {
	if p.PageBlocks <= 0 {
		p.PageBlocks = 16
	}
	if p.MaxInFlightPerPeer <= 0 {
		p.MaxInFlightPerPeer = 2
	}
	if p.RetryBase <= 0 {
		p.RetryBase = 10 * time.Millisecond
	}
	if p.RetryMax <= 0 {
		p.RetryMax = 640 * time.Millisecond
	}
	if p.MaxAttemptsPerPage <= 0 {
		p.MaxAttemptsPerPage = 4
	}
	if p.MaxRounds <= 0 {
		p.MaxRounds = 3
	}
	if p.Clock == nil {
		p.Clock = clock.Wall
	}
	return p
}

// Config wires one site's repairer.
type Config struct {
	// Self is the local replica being freshened.
	Self *site.Replica
	// Transport connects the sites.
	Transport protocol.Transport
	// Peers lists every other site (donor candidates).
	Peers []protocol.SiteID
	// Policy tunes the engine; the zero value gets defaults.
	Policy Policy
	// Obs is the op-span/metrics handle (nil observes nothing).
	Obs *obs.SchemeObs
	// RepairObs is the repair-specific metrics handle (nil likewise).
	RepairObs *obs.RepairObs
}

// Repairer streams stale blocks to one site. Safe for repeated Runs;
// each Run is one complete anti-entropy pass.
type Repairer struct {
	cfg Config
	pol Policy
	lim *limiter
}

// New validates cfg and builds a repairer.
func New(cfg Config) (*Repairer, error) {
	if cfg.Self == nil {
		return nil, errors.New("repair: config requires a replica")
	}
	if cfg.Transport == nil {
		return nil, errors.New("repair: config requires a transport")
	}
	pol := cfg.Policy.withDefaults()
	return &Repairer{
		cfg: cfg,
		pol: pol,
		lim: newLimiter(pol.BlocksPerSec, pol.PageBlocks, pol.Clock),
	}, nil
}

// Result summarises one repair run.
type Result struct {
	// Stale is the want-list size at first discovery: how many blocks
	// the site was behind the freshest reachable peers.
	Stale int
	// Installed counts blocks whose local version actually advanced.
	Installed int
	// Pages counts successfully applied fetch pages.
	Pages int
	// Retries counts transient-fault page retries.
	Retries int
	// Demotions counts donors dropped mid-run.
	Demotions int
	// Rounds counts discovery rounds used.
	Rounds int
	// Donors is the donor set enlisted at first discovery, in the order
	// streaming used them.
	Donors []protocol.SiteID
	// Elapsed is the run's duration on the repairer's clock.
	Elapsed time.Duration
	// Bytes counts payload bytes fetched.
	Bytes int
}

// Deadline returns the bounded time-to-freshness promise for a run
// that found `stale` blocks under this policy: the latest instant (on
// the policy clock, measured from the run's start) by which the run
// must have finished. It is three times the ideal streaming time at
// the configured rate — headroom for retries and failover — plus a
// constant term covering every allowed backoff sleep. The chaos
// engine's standing invariant fails any run that exceeds it.
func (p Policy) Deadline(stale int) time.Duration {
	p = p.withDefaults()
	var stream time.Duration
	if p.BlocksPerSec > 0 {
		stream = time.Duration(3 * float64(stale) / p.BlocksPerSec * float64(time.Second))
	}
	// Worst case every page of every round exhausts its backoff budget:
	// attempts-1 sleeps, each at most RetryMax.
	pages := (stale + p.PageBlocks - 1) / p.PageBlocks
	if pages < 1 {
		pages = 1
	}
	backoff := time.Duration(p.MaxRounds*pages*(p.MaxAttemptsPerPage-1)) * p.RetryMax
	return stream + backoff + time.Second
}

// Run performs one anti-entropy pass: discover, stream, and (when
// donors failed mid-stream) re-discover, until the local image matches
// the freshest reachable peers or the round budget is spent. It returns
// ErrNoDonors / ErrIncomplete when blocks remain stale — the site stays
// available (it already passed scheme recovery); the caller simply
// retries later.
func (r *Repairer) Run(ctx context.Context) (Result, error) {
	start := r.pol.Clock.Now()
	ctx, sp := r.cfg.Obs.StartOp(ctx, protocol.OpRepair, obs.NoBlock)
	// The whole pass is one repair-interference window: foreground
	// operations at this site while the stream runs are counted and
	// their latency lands in the interference histogram (DESIGN.md §15).
	r.cfg.RepairObs.Active(true)
	defer r.cfg.RepairObs.Active(false)
	var res Result
	err := r.run(ctx, &res)
	res.Elapsed = r.pol.Clock.Now().Sub(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		r.cfg.RepairObs.SetRate(int64(float64(res.Bytes) / secs))
	}
	sp.Done(1+len(res.Donors), err)
	return res, err
}

func (r *Repairer) run(ctx context.Context, res *Result) error {
	for round := 0; round < r.pol.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Rounds = round + 1
		donors := r.discover(ctx)
		wants := wantsAgainst(r.cfg.Self.Vector(), donors)
		if round == 0 {
			res.Stale = len(wants)
			res.Donors = donorIDs(donors)
			r.cfg.RepairObs.SetLag(len(wants))
		}
		if len(wants) == 0 {
			r.cfg.RepairObs.SetLag(0)
			return nil
		}
		if len(donors) == 0 {
			return fmt.Errorf("%w (%d blocks stale)", ErrNoDonors, len(wants))
		}
		r.cfg.RepairObs.Enlisted(donorIDs(donors), len(wants))
		left := r.stream(ctx, donors, wants, res)
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("repair: cancelled with %d blocks left: %w", left, err)
		}
		if left == 0 {
			// This round's targets are in; loop once more to confirm no
			// peer moved ahead meanwhile (the confirming discovery finds
			// an empty want-list and returns nil above).
			continue
		}
		// Blocks remain — donors died or lacked the wanted versions.
		// Re-discover: recovered peers rejoin, lost targets drop out.
	}
	// Round budget spent. If the final pass converged the loop exited
	// via the empty want-list; reaching here means staleness remains.
	if left := len(wantsAgainst(r.cfg.Self.Vector(), r.discover(ctx))); left > 0 {
		return fmt.Errorf("%w (%d blocks)", ErrIncomplete, left)
	}
	return nil
}

// donor is one qualifying peer: available, not a witness, vector known.
type donor struct {
	id  protocol.SiteID
	vec block.Vector
}

func donorIDs(ds []donor) []protocol.SiteID {
	out := make([]protocol.SiteID, len(ds))
	for i, d := range ds {
		out[i] = d.id
	}
	return out
}

// discover broadcasts the summary request and selects donors: available
// non-witness peers, freshest first (version sum, then id), capped at
// MaxDonors. Iteration over Peers in slice order keeps the result
// deterministic for replay.
func (r *Repairer) discover(ctx context.Context) []donor {
	r.cfg.RepairObs.Round()
	results := r.cfg.Transport.Broadcast(ctx, r.cfg.Self.ID(), r.cfg.Peers, protocol.RepairSummaryRequest{})
	var ds []donor
	for _, id := range r.cfg.Peers {
		if id == r.cfg.Self.ID() {
			continue
		}
		res, ok := results[id]
		if !ok || res.Err != nil {
			continue
		}
		rep, ok := res.Resp.(protocol.RepairSummaryReply)
		if !ok || rep.Witness || rep.State != protocol.StateAvailable {
			continue
		}
		ds = append(ds, donor{id: id, vec: rep.Vector})
	}
	sort.SliceStable(ds, func(i, j int) bool {
		si, sj := ds[i].vec.Sum(), ds[j].vec.Sum()
		if si != sj {
			return si > sj
		}
		return ds[i].id < ds[j].id
	})
	if r.pol.MaxDonors > 0 && len(ds) > r.pol.MaxDonors {
		ds = ds[:r.pol.MaxDonors]
	}
	return ds
}

// wantsAgainst computes the want-list: every block where some donor's
// version exceeds mine, with the element-wise maximum as the floor —
// the repairer converges to the freshest reachable image, never to a
// lagging donor's.
func wantsAgainst(mine block.Vector, donors []donor) []protocol.BlockWant {
	target := mine.Clone()
	for _, d := range donors {
		for i, v := range d.vec {
			if i < len(target) && v > target[i] {
				target[i] = v
			}
		}
	}
	var wants []protocol.BlockWant
	for i, v := range target {
		idx := block.Index(i)
		if v > mine.Get(idx) {
			wants = append(wants, protocol.BlockWant{Index: idx, MinVersion: v})
		}
	}
	return wants
}

// wantState tracks one outstanding want through the waves of a round:
// which donors already had their chance (answered without the block, or
// were demoted while holding its page).
type wantState struct {
	protocol.BlockWant
	tried protocol.SiteSet
}

// page is one fetch unit: a slice of wants bound for one donor.
type page struct {
	wants []*wantState
}

// waveState collects what one wave's workers produced. All fields are
// guarded by mu; workers touch it briefly per page.
type waveState struct {
	mu        sync.Mutex
	satisfied map[block.Index]bool
	demoted   protocol.SiteSet
	installed int
	pages     int
	retries   int
	bytes     int
}

func (w *waveState) isDemoted(id protocol.SiteID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.demoted.Has(id)
}

// stream runs waves of statically assigned pages until the want-list is
// satisfied or no donor can serve what remains. Returns how many wants
// are left unsatisfied.
//
// The wave structure is what makes mid-stream failover deterministic: a
// demoted donor's unprocessed pages are *not* re-queued concurrently —
// they are collected at the wave barrier and redistributed round-robin
// among the surviving donors for the next wave. Every link therefore
// sees a request sequence fully determined by the assignment, not by
// goroutine scheduling.
func (r *Repairer) stream(ctx context.Context, donors []donor, wants []protocol.BlockWant, res *Result) int {
	pending := make([]*wantState, len(wants))
	for i, w := range wants {
		pending[i] = &wantState{BlockWant: w}
	}
	active := append([]donor(nil), donors...)

	for len(pending) > 0 && len(active) > 0 {
		// Assign each pending want to the next active donor that has not
		// yet had its chance at it, round-robin in index order.
		queues := make(map[protocol.SiteID][]*wantState)
		var unassignable []*wantState
		rr := 0
		for _, w := range pending {
			chosen := -1
			for k := 0; k < len(active); k++ {
				d := active[(rr+k)%len(active)]
				if !w.tried.Has(d.id) {
					chosen = (rr + k) % len(active)
					break
				}
			}
			if chosen < 0 {
				unassignable = append(unassignable, w)
				continue
			}
			queues[active[chosen].id] = append(queues[active[chosen].id], w)
			rr = chosen + 1
		}
		if len(queues) == 0 {
			break
		}

		ws := &waveState{satisfied: make(map[block.Index]bool)}
		var wg sync.WaitGroup
		for _, d := range active {
			q := queues[d.id]
			if len(q) == 0 {
				continue
			}
			pages := paginate(q, r.pol.PageBlocks)
			ch := make(chan *page, len(pages))
			for _, pg := range pages {
				ch <- pg
			}
			close(ch)
			for slot := 0; slot < r.pol.MaxInFlightPerPeer; slot++ {
				wg.Add(1)
				// Each pipelining slot gets its own jitter stream so
				// concurrent slots never race on one rand source.
				rng := rand.New(rand.NewSource(int64(r.pol.Seed) ^ int64(d.id)<<16 ^ int64(slot)<<32 ^ int64(r.cfg.Self.ID())))
				go func(d donor) {
					defer wg.Done()
					for pg := range ch {
						r.fetchPage(ctx, d, pg, ws, rng)
					}
				}(d)
			}
		}
		wg.Wait()

		ws.mu.Lock()
		res.Installed += ws.installed
		res.Pages += ws.pages
		res.Retries += ws.retries
		res.Bytes += ws.bytes
		demoted := ws.demoted
		satisfied := ws.satisfied
		ws.mu.Unlock()
		res.Demotions += demoted.Len()

		var next []*wantState
		for _, w := range pending {
			if !satisfied[w.Index] {
				next = append(next, w)
			}
		}
		next = append(next, unassignable...)
		sort.Slice(next, func(i, j int) bool { return next[i].Index < next[j].Index })
		pending = dedupeWants(next)

		var alive []donor
		for _, d := range active {
			if !demoted.Has(d.id) {
				alive = append(alive, d)
			}
		}
		// Progress guard: every wave either satisfies a want, demotes a
		// donor, or extends some want's tried set (a donor that answered
		// without the block). When none of that can happen any more —
		// every pending want has tried every active donor — the
		// assignment loop above finds nothing to queue and we broke out.
		active = alive
	}
	return len(pending)
}

// dedupeWants drops duplicates after a merge (defensive; wants are
// unique by construction).
func dedupeWants(ws []*wantState) []*wantState {
	out := ws[:0]
	var last *wantState
	for _, w := range ws {
		if last != nil && last.Index == w.Index {
			continue
		}
		out = append(out, w)
		last = w
	}
	return out
}

// paginate slices a donor queue into fetch pages.
func paginate(q []*wantState, size int) []*page {
	var pages []*page
	for len(q) > 0 {
		n := size
		if n > len(q) {
			n = len(q)
		}
		pages = append(pages, &page{wants: q[:n]})
		q = q[n:]
	}
	return pages
}

// fetchPage sends one page to one donor, applying the retry/backoff,
// demotion and failover policy. Every outcome is recorded in ws.
func (r *Repairer) fetchPage(ctx context.Context, d donor, pg *page, ws *waveState, rng *rand.Rand) {
	if ws.isDemoted(d.id) {
		// Failover: leave the page's wants untouched (tried unchanged);
		// the wave barrier reassigns them to surviving donors.
		return
	}
	req := protocol.RepairFetchRequest{Wants: make([]protocol.BlockWant, len(pg.wants))}
	for i, w := range pg.wants {
		req.Wants[i] = w.BlockWant
	}
	backoff := r.pol.RetryBase
	for attempt := 1; ; attempt++ {
		r.lim.acquire(ctx, len(req.Wants))
		r.cfg.RepairObs.Inflight(d.id, +1)
		resp, err := r.cfg.Transport.Fetch(ctx, r.cfg.Self.ID(), d.id, req)
		r.cfg.RepairObs.Inflight(d.id, -1)
		if err == nil {
			rep, ok := resp.(protocol.RepairFetchReply)
			if !ok {
				r.demote(ws, d.id, fmt.Sprintf("bad reply type %T", resp))
				return
			}
			r.applyPage(d, pg, rep, ws)
			return
		}
		if ctx.Err() != nil {
			return
		}
		if conclusive(err) {
			// The donor is gone (crash, partition, severed stream):
			// retrying here would burn the whole backoff budget against a
			// dead peer. Demote at once; the wave barrier fails the
			// donor's remaining pages over to the survivors.
			r.demote(ws, d.id, "conclusive: "+errString(err))
			return
		}
		if attempt >= r.pol.MaxAttemptsPerPage {
			r.demote(ws, d.id, "retries exhausted")
			return
		}
		r.cfg.RepairObs.Retry(d.id)
		ws.mu.Lock()
		ws.retries++
		ws.mu.Unlock()
		// Capped exponential backoff with jitter in [d/2, d).
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		r.pol.Clock.Sleep(ctx, sleep)
		if backoff *= 2; backoff > r.pol.RetryMax {
			backoff = r.pol.RetryMax
		}
	}
}

// applyPage installs a fetch reply and books the outcome: wants the
// donor shipped are satisfied (whether or not the install advanced the
// local version — a racing foreground write may already have done it);
// wants the donor omitted get the donor added to their tried set so the
// next wave asks someone fresher.
func (r *Repairer) applyPage(d donor, pg *page, rep protocol.RepairFetchReply, ws *waveState) {
	installed, err := r.cfg.Self.ApplyRepair(rep.Blocks)
	if err != nil {
		// Local storage failure: not the donor's fault, but unsafe to
		// continue this run.
		r.demote(ws, d.id, "local apply: "+errString(err))
		return
	}
	got := make(map[block.Index]bool, len(rep.Blocks))
	payload := 0
	for _, c := range rep.Blocks {
		got[c.Index] = true
		payload += len(c.Data)
	}
	ws.mu.Lock()
	ws.installed += installed
	ws.pages++
	ws.bytes += payload
	for _, w := range pg.wants {
		if got[w.Index] {
			ws.satisfied[w.Index] = true
		} else {
			w.tried = w.tried.Add(d.id)
		}
	}
	ws.mu.Unlock()
	r.cfg.RepairObs.PageFetched(d.id, installed, payload)
	r.cfg.RepairObs.AddLag(-len(rep.Blocks))
}

func (r *Repairer) demote(ws *waveState, id protocol.SiteID, reason string) {
	ws.mu.Lock()
	already := ws.demoted.Has(id)
	ws.demoted = ws.demoted.Add(id)
	ws.mu.Unlock()
	if already {
		return
	}
	r.cfg.RepairObs.Demoted(id, reason)
}

// conclusive reports whether a transport error is final for this donor:
// fail-stop, partition, or a stream severed mid-exchange. Transient
// faults (and only those) are worth retrying against the same donor.
func conclusive(err error) bool {
	if errors.Is(err, protocol.ErrSevered) || errors.Is(err, protocol.ErrSiteDown) || errors.Is(err, protocol.ErrSiteUnreachable) {
		return true
	}
	// A non-transport error is a handler or storage failure on the
	// donor; retrying won't change its answer.
	return !errors.Is(err, protocol.ErrTransient)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
