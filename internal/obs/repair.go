package obs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"relidev/internal/protocol"
)

// Metric families of the background anti-entropy repair engine
// (DESIGN.md §13). Families are keyed by scheme/site; the in-flight
// gauge adds a peer label per donor.
const (
	// MetricRepairPages counts fetched pages of the repair stream.
	MetricRepairPages = "relidev_repair_pages_total"
	// MetricRepairBlocks counts blocks installed by repair (stale copies
	// a donor shipped that actually advanced the local version).
	MetricRepairBlocks = "relidev_repair_blocks_total"
	// MetricRepairBytes counts payload bytes installed by repair.
	MetricRepairBytes = "relidev_repair_bytes_total"
	// MetricRepairRetries counts page fetches retried after a transient
	// transport failure.
	MetricRepairRetries = "relidev_repair_retries_total"
	// MetricRepairDemotions counts donors dropped mid-run: a conclusive
	// failure (crash, partition, severed stream) or retry exhaustion.
	MetricRepairDemotions = "relidev_repair_demotions_total"
	// MetricRepairRounds counts discovery rounds: summary broadcasts the
	// repairer issued. The §5 conformance checker prices each at one
	// logical broadcast plus its replies.
	MetricRepairRounds = "relidev_repair_rounds_total"
	// MetricRepairLag gauges how many blocks the site still has to
	// repair: set to the stale count at discovery, walked down as pages
	// install, zero when the site is fresh.
	MetricRepairLag = "relidev_repair_lag_blocks"
	// MetricRepairRate gauges the payload throughput of the most recent
	// repair run in bytes per second of the repairer's clock.
	MetricRepairRate = "relidev_repair_bytes_per_sec"
	// MetricRepairInflight gauges the pages currently outstanding to one
	// donor (peer label); bounded by the per-peer pipelining cap.
	MetricRepairInflight = "relidev_repair_inflight"
)

// Repair returns the instrumentation handle for one site's background
// repairer. Handles are cached per (scheme, site); nil-safe like
// SchemeSite — a nil observer returns a nil handle and every RepairObs
// method accepts a nil receiver.
func (o *Observer) Repair(scheme string, site protocol.SiteID) *RepairObs {
	if o == nil {
		return nil
	}
	key := fmt.Sprintf("repair/%s/%d", scheme, site)
	o.mu.Lock()
	defer o.mu.Unlock()
	if r, ok := o.repairs[key]; ok {
		return r
	}
	siteLabel := L("site", site.String())
	schemeLabel := L("scheme", scheme)
	r := &RepairObs{
		o:         o,
		scheme:    scheme,
		site:      site,
		active:    o.repairFlag(scheme, site),
		pages:     o.reg.Counter(MetricRepairPages, schemeLabel, siteLabel),
		blocks:    o.reg.Counter(MetricRepairBlocks, schemeLabel, siteLabel),
		bytes:     o.reg.Counter(MetricRepairBytes, schemeLabel, siteLabel),
		retries:   o.reg.Counter(MetricRepairRetries, schemeLabel, siteLabel),
		demotions: o.reg.Counter(MetricRepairDemotions, schemeLabel, siteLabel),
		rounds:    o.reg.Counter(MetricRepairRounds, schemeLabel, siteLabel),
		lag:       o.reg.Gauge(MetricRepairLag, schemeLabel, siteLabel),
		rate:      o.reg.Gauge(MetricRepairRate, schemeLabel, siteLabel),
	}
	if o.repairs == nil {
		o.repairs = make(map[string]*RepairObs)
	}
	o.repairs[key] = r
	return r
}

// A RepairObs instruments one site's background repairer. All methods
// are nil-receiver safe no-ops, so the repairer calls them
// unconditionally and an unmetered cluster pays nothing.
type RepairObs struct {
	o      *Observer
	scheme string
	site   protocol.SiteID

	pages     *Counter
	blocks    *Counter
	bytes     *Counter
	retries   *Counter
	demotions *Counter
	rounds    *Counter
	lag       *Gauge
	rate      *Gauge
	active    *atomic.Bool

	mu       sync.Mutex
	inflight map[protocol.SiteID]*Gauge
}

// SetLag records how many blocks the site still needs to repair.
func (r *RepairObs) SetLag(blocks int) {
	if r == nil {
		return
	}
	r.lag.Set(int64(blocks))
}

// AddLag walks the lag gauge by delta (negative as pages install).
func (r *RepairObs) AddLag(delta int) {
	if r == nil {
		return
	}
	r.lag.Add(int64(delta))
}

// SetRate records the run's payload throughput in bytes per second.
func (r *RepairObs) SetRate(bytesPerSec int64) {
	if r == nil {
		return
	}
	r.rate.Set(bytesPerSec)
}

// PageFetched records one successfully applied page: which donor served
// it, how many of its blocks installed, and their payload bytes. Also
// emits the repair_page trace event.
func (r *RepairObs) PageFetched(donor protocol.SiteID, installed, payloadBytes int) {
	if r == nil {
		return
	}
	r.pages.Inc()
	if installed > 0 {
		r.blocks.Add(uint64(installed))
	}
	if payloadBytes > 0 {
		r.bytes.Add(uint64(payloadBytes))
	}
	if r.o.tracer != nil {
		r.emit(Event{Kind: EvRepairPage, Op: protocol.OpRepair, Block: NoBlock, Lane: int(donor) + 1,
			Detail: fmt.Sprintf("donor=%v installed=%d bytes=%d", donor, installed, payloadBytes)})
	}
}

// Round records one discovery round (a summary broadcast).
func (r *RepairObs) Round() {
	if r == nil {
		return
	}
	r.rounds.Inc()
}

// Retry records a page fetch retried against the same donor after a
// transient failure.
func (r *RepairObs) Retry(donor protocol.SiteID) {
	if r == nil {
		return
	}
	r.retries.Inc()
}

// Demoted records a donor dropped from the run, with the reason, and
// emits the repair_donor trace event so failovers are visible in the
// trace tree.
func (r *RepairObs) Demoted(donor protocol.SiteID, reason string) {
	if r == nil {
		return
	}
	r.demotions.Inc()
	if r.o.tracer != nil {
		r.emit(Event{Kind: EvRepairDonor, Op: protocol.OpRepair, Block: NoBlock, Lane: int(donor) + 1,
			Detail: fmt.Sprintf("demoted donor=%v reason=%s", donor, reason)})
	}
}

// Enlisted records the donor set selected at discovery.
func (r *RepairObs) Enlisted(donors []protocol.SiteID, stale int) {
	if r == nil || r.o.tracer == nil {
		return
	}
	r.emit(Event{Kind: EvRepairDonor, Op: protocol.OpRepair, Block: NoBlock,
		Detail: fmt.Sprintf("enlisted donors=%v stale=%d", donors, stale)})
}

// Inflight walks the per-donor outstanding-pages gauge by delta (+1 on
// send, -1 on completion). Gauges are created on first use per donor.
func (r *RepairObs) Inflight(donor protocol.SiteID, delta int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	g, ok := r.inflight[donor]
	if !ok {
		g = r.o.reg.Gauge(MetricRepairInflight,
			L("scheme", r.scheme), L("site", r.site.String()), L("peer", donor.String()))
		if r.inflight == nil {
			r.inflight = make(map[protocol.SiteID]*Gauge)
		}
		r.inflight[donor] = g
	}
	r.mu.Unlock()
	g.Add(int64(delta))
}

// emit forwards a trace event (no-op when tracing is off).
func (r *RepairObs) emit(e Event) {
	if r.o.tracer == nil {
		return
	}
	e.Scheme = r.scheme
	e.Site = int(r.site)
	r.o.tracer.Emit(e)
}
