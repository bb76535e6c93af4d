package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"relidev"
	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

// The traced pass records a span around every call into a layer's
// public functions, from decorators in this file: nothing inside the
// program is touched. The seams, outside in:
//
//	device     core.Device.ReadBlock / WriteBlock   one root span per op
//	transport  protocol.Transport                   Call, Fetch, Broadcast, Notify
//	handler    protocol.Handler (site.Replica)      one span per request served
//	store      store.Store as the replica sees it   Read, Write, Version, ...
//	log        the store under the group-commit     Write and Sync of the
//	           Batcher                              segment log itself
type layer uint8

const (
	layerDevice layer = iota
	layerTransport
	layerHandler
	layerStore
	layerLog
	numLayers
)

var layerNames = [numLayers]string{"device", "transport", "handler", "store", "log"}

// Methods a span can name, across all layers.
const (
	mRead uint8 = iota
	mWrite
	mRecover
	mCall
	mFetch
	mBroadcast
	mNotify
	mVersion
	mVector
	mLoadMeta
	mSaveMeta
	mSync
	mOther
	numMethods
)

var methodNames = [numMethods]string{
	"read", "write", "recover", "call", "fetch", "broadcast", "notify",
	"version", "vector", "loadmeta", "savemeta", "sync", "other",
}

// span is one timed call. Times are nanoseconds since the recorder's
// epoch; ids are positions in the recorder's buffer, plus one.
type span struct {
	start, end int64
	op         uint32 // the device op (or recovery) it served; 0 if none was in flight
	parent     uint32 // the span that caused it; 0 for a root
	layer      layer
	method     uint8
	site       int8
}

// recorder holds the spans in one preallocated buffer and knows which
// span each client has in flight at each seam. That is how a span finds
// its parent without anything being passed through the traced program
// or over the wire: a request's block index names the client that owns
// the block, and a closed-loop client has exactly one op in flight.
// Slot c is client c; the extra last slot is the one recovery a restart
// cycle runs while the clients are idle.
type recorder struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	stopped atomic.Bool
	ops     atomic.Uint32
	clients int

	root     []atomic.Uint64   // [slot] op<<32 | device span id
	rootSite []atomic.Int32    // [slot] site of that device
	trans    []atomic.Uint32   // [slot] transport span in flight
	hand     [][]atomic.Uint32 // [site][slot] handler span in flight
	stor     [][]atomic.Uint32 // [site][slot] store span in flight
}

func newRecorder(capacity, sites, clients int) *recorder {
	r := &recorder{
		epoch: time.Now(), spans: make([]span, capacity), clients: clients,
		root: make([]atomic.Uint64, clients+1), rootSite: make([]atomic.Int32, clients+1),
		trans: make([]atomic.Uint32, clients+1),
		hand:  make([][]atomic.Uint32, sites), stor: make([][]atomic.Uint32, sites),
	}
	for s := 0; s < sites; s++ {
		r.hand[s] = make([]atomic.Uint32, clients+1)
		r.stor[s] = make([]atomic.Uint32, clients+1)
	}
	return r
}

func (r *recorder) aux() int { return r.clients }

// used returns how many spans have been recorded.
func (r *recorder) used() int {
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return n
}

// stop makes the recorder drop everything from now on (the final
// verification reads every copy and is not part of the workload).
func (r *recorder) stop() { r.stopped.Store(true) }

// start empties the buffer and begins recording; no op may be in flight.
func (r *recorder) start() {
	r.epoch = time.Now()
	r.next.Store(0)
	r.dropped.Store(0)
	r.stopped.Store(false)
}

func (r *recorder) begin(l layer, method uint8, site int, parent, op uint32) uint32 {
	if r.stopped.Load() {
		return 0
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return 0
	}
	r.spans[i] = span{start: int64(time.Since(r.epoch)), op: op, parent: parent, layer: l, method: method, site: int8(site)}
	return uint32(i + 1)
}

func (r *recorder) end(id uint32) {
	if id != 0 {
		r.spans[id-1].end = int64(time.Since(r.epoch))
	}
}

func (r *recorder) slotOfIdx(idx block.Index) int { return int(idx) % r.clients }

// slotOf names the client a request works for.
func (r *recorder) slotOf(req protocol.Request) int {
	switch q := req.(type) {
	case protocol.VoteRequest:
		return r.slotOfIdx(q.Block)
	case protocol.FetchRequest:
		return r.slotOfIdx(q.Block)
	case protocol.PutRequest:
		return r.slotOfIdx(q.Block)
	case protocol.PrepareWriteRequest:
		return r.slotOfIdx(q.Block)
	case protocol.AbortWriteRequest:
		return r.slotOfIdx(q.Block)
	}
	return r.aux()
}

// startRoot opens a device-level span and makes it the slot's op.
func (r *recorder) startRoot(slot int, method uint8, site int) uint32 {
	op := r.ops.Add(1)
	id := r.begin(layerDevice, method, site, 0, op)
	r.rootSite[slot].Store(int32(site))
	r.root[slot].Store(uint64(op)<<32 | uint64(id))
	return id
}

func (r *recorder) endRoot(slot int, id uint32) {
	r.root[slot].Store(0)
	r.end(id)
}

// tracedDevice is the outermost seam: what a file system calls.
type tracedDevice struct {
	inner relidev.Device
	rec   *recorder
	site  int
}

func (d *tracedDevice) Geometry() relidev.Geometry { return d.inner.Geometry() }

func (d *tracedDevice) ReadBlock(ctx context.Context, idx relidev.Index) ([]byte, error) {
	slot := d.rec.slotOfIdx(idx)
	id := d.rec.startRoot(slot, mRead, d.site)
	data, err := d.inner.ReadBlock(ctx, idx)
	d.rec.endRoot(slot, id)
	return data, err
}

func (d *tracedDevice) WriteBlock(ctx context.Context, idx relidev.Index, data []byte) error {
	slot := d.rec.slotOfIdx(idx)
	id := d.rec.startRoot(slot, mWrite, d.site)
	err := d.inner.WriteBlock(ctx, idx, data)
	d.rec.endRoot(slot, id)
	return err
}

// tracedTransport sits under the obs metering decorator, where
// core.ClusterConfig.WrapTransport puts a decorator, so a transport
// span is the wire, the codec and the goroutine hops, and the metering
// stays with the controller above it.
type tracedTransport struct {
	inner protocol.Transport
	rec   *recorder
}

func (t *tracedTransport) begin(method uint8, from protocol.SiteID, req protocol.Request) (uint32, int) {
	slot := t.rec.slotOf(req)
	root := t.rec.root[slot].Load()
	id := t.rec.begin(layerTransport, method, int(from), uint32(root), uint32(root>>32))
	t.rec.trans[slot].Store(id)
	return id, slot
}

func (t *tracedTransport) finish(id uint32, slot int) {
	t.rec.trans[slot].Store(0)
	t.rec.end(id)
}

func (t *tracedTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	id, slot := t.begin(mCall, from, req)
	resp, err := t.inner.Call(ctx, from, to, req)
	t.finish(id, slot)
	return resp, err
}

func (t *tracedTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	id, slot := t.begin(mFetch, from, req)
	resp, err := t.inner.Fetch(ctx, from, to, req)
	t.finish(id, slot)
	return resp, err
}

func (t *tracedTransport) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	id, slot := t.begin(mBroadcast, from, req)
	res := t.inner.Broadcast(ctx, from, dests, req)
	t.finish(id, slot)
	return res
}

func (t *tracedTransport) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	id, slot := t.begin(mNotify, from, req)
	res := t.inner.Notify(ctx, from, dests, req)
	t.finish(id, slot)
	return res
}

// tracedHandler wraps a site's replica where the transport delivers to
// it.
type tracedHandler struct {
	inner protocol.Handler
	rec   *recorder
	site  int
}

func (h *tracedHandler) Handle(ctx context.Context, from protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	slot := h.rec.slotOf(req)
	id := h.rec.begin(layerHandler, requestMethod(req), h.site, h.rec.trans[slot].Load(), uint32(h.rec.root[slot].Load()>>32))
	h.rec.hand[h.site][slot].Store(id)
	resp, err := h.inner.Handle(ctx, from, req)
	h.rec.hand[h.site][slot].Store(0)
	h.rec.end(id)
	return resp, err
}

func requestMethod(req protocol.Request) uint8 {
	switch req.(type) {
	case protocol.VoteRequest:
		return mVersion
	case protocol.FetchRequest:
		return mFetch
	case protocol.PutRequest, protocol.PrepareWriteRequest:
		return mWrite
	case protocol.RecoveryRequest:
		return mRecover
	}
	return mOther
}

// tracedStore wraps a site's stable storage, either as the replica
// sees it (layerStore) or underneath the group-commit Batcher
// (layerLog).
type tracedStore struct {
	inner store.Store
	rec   *recorder
	site  int
	layer layer
}

// tracedSyncStore also forwards Sync: the Batcher only syncs a store
// that is a store.Syncer, so a decorator that hid the method would
// silently turn durability off.
type tracedSyncStore struct {
	tracedStore
	syncer store.Syncer
}

func wrapStore(st store.Store, rec *recorder, site int, l layer) store.Store {
	ts := tracedStore{inner: st, rec: rec, site: site, layer: l}
	if sy, ok := st.(store.Syncer); ok {
		return &tracedSyncStore{tracedStore: ts, syncer: sy}
	}
	return &ts
}

// begin finds who the call is for: the handler serving that client at
// this site, else the recovery being served here, else the client's own
// device op if this is its site, else the recovery running here. A log
// write's parent is the store write waiting on it.
func (s *tracedStore) begin(method uint8, slot int) uint32 {
	r := s.rec
	aux := r.aux()
	var parent uint32
	var root uint64
	if s.layer == layerLog {
		if parent = r.stor[s.site][slot].Load(); parent != 0 {
			root = r.root[slot].Load()
		} else if parent = r.stor[s.site][aux].Load(); parent != 0 {
			root = r.root[aux].Load()
		}
		return r.begin(s.layer, method, s.site, parent, uint32(root>>32))
	}
	switch {
	case r.hand[s.site][slot].Load() != 0:
		parent, root = r.hand[s.site][slot].Load(), r.root[slot].Load()
	case r.hand[s.site][aux].Load() != 0:
		parent, root = r.hand[s.site][aux].Load(), r.root[aux].Load()
	case r.root[slot].Load() != 0 && int(r.rootSite[slot].Load()) == s.site:
		root = r.root[slot].Load()
		parent = uint32(root)
	case r.root[aux].Load() != 0 && int(r.rootSite[aux].Load()) == s.site:
		root = r.root[aux].Load()
		parent = uint32(root)
	}
	id := r.begin(s.layer, method, s.site, parent, uint32(root>>32))
	r.stor[s.site][slot].Store(id)
	return id
}

func (s *tracedStore) end(id uint32, slot int) {
	if s.layer == layerStore {
		s.rec.stor[s.site][slot].Store(0)
	}
	s.rec.end(id)
}

func (s *tracedStore) Geometry() block.Geometry { return s.inner.Geometry() }
func (s *tracedStore) Close() error             { return s.inner.Close() }

func (s *tracedStore) Read(idx block.Index) ([]byte, block.Version, error) {
	slot := s.rec.slotOfIdx(idx)
	id := s.begin(mRead, slot)
	data, ver, err := s.inner.Read(idx)
	s.end(id, slot)
	return data, ver, err
}

func (s *tracedStore) Write(idx block.Index, data []byte, ver block.Version) error {
	slot := s.rec.slotOfIdx(idx)
	id := s.begin(mWrite, slot)
	err := s.inner.Write(idx, data, ver)
	s.end(id, slot)
	return err
}

func (s *tracedStore) Version(idx block.Index) (block.Version, error) {
	slot := s.rec.slotOfIdx(idx)
	id := s.begin(mVersion, slot)
	ver, err := s.inner.Version(idx)
	s.end(id, slot)
	return ver, err
}

func (s *tracedStore) Vector() block.Vector {
	id := s.begin(mVector, s.rec.aux())
	v := s.inner.Vector()
	s.end(id, s.rec.aux())
	return v
}

func (s *tracedStore) LoadMeta() ([]byte, error) {
	id := s.begin(mLoadMeta, s.rec.aux())
	meta, err := s.inner.LoadMeta()
	s.end(id, s.rec.aux())
	return meta, err
}

func (s *tracedStore) SaveMeta(meta []byte) error {
	id := s.begin(mSaveMeta, s.rec.aux())
	err := s.inner.SaveMeta(meta)
	s.end(id, s.rec.aux())
	return err
}

// Sync serves a whole batch, so it has no single parent.
func (s *tracedSyncStore) Sync() error {
	id := s.rec.begin(s.layer, mSync, s.site, 0, 0)
	err := s.syncer.Sync()
	s.rec.end(id)
	return err
}

// analysis is what the spans say about each layer.
type analysis struct {
	values     map[string]float64
	violations int // child spans reaching outside their parent
}

// analyse computes self times (a span's duration minus the part of it
// its children cover), counts, and the per-layer metrics built on them.
func (r *recorder) analyse() analysis {
	spans := r.spans[:r.used()]
	a := analysis{values: map[string]float64{}}

	// Children of each span, as one flat slice indexed by offset.
	offset := make([]int32, len(spans)+2)
	for _, sp := range spans {
		if sp.parent != 0 {
			offset[sp.parent+1]++
		}
	}
	for i := 1; i < len(offset); i++ {
		offset[i] += offset[i-1]
	}
	kids := make([]uint32, offset[len(offset)-1])
	fill := append([]int32(nil), offset...)
	for i, sp := range spans {
		if sp.parent != 0 {
			kids[fill[sp.parent]] = uint32(i + 1)
			fill[sp.parent]++
		}
	}
	self := func(id uint32) float64 {
		sp := spans[id-1]
		ks := kids[offset[id]:offset[id+1]]
		if len(ks) > 1 {
			sort.Slice(ks, func(i, j int) bool { return spans[ks[i]-1].start < spans[ks[j]-1].start })
		}
		covered, reach := int64(0), sp.start
		for _, k := range ks {
			c := spans[k-1]
			if c.start < sp.start || c.end > sp.end {
				a.violations++
			}
			from, to := c.start, c.end
			if from < reach {
				from = reach
			}
			if to > sp.end {
				to = sp.end
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		return float64(sp.end-sp.start-covered) / 1e3
	}

	var (
		selfUs    [numLayers][numMethods][]float64
		durUs     [numLayers][numMethods][]float64
		count     [numLayers][numMethods]float64
		handled   float64 // handler spans that belong to an op
		rootDur   float64 // total time inside device spans
		fanoutDur float64 // of which in Broadcast/Notify called by the controller
		rpcDur    float64 // of which in Call/Fetch called by the controller
		callsOf   [numMethods]float64
	)
	for i, sp := range spans {
		if sp.end == 0 {
			continue // still open when the recorder stopped
		}
		id := uint32(i + 1)
		d := float64(sp.end-sp.start) / 1e3
		count[sp.layer][sp.method]++
		durUs[sp.layer][sp.method] = append(durUs[sp.layer][sp.method], d)
		selfUs[sp.layer][sp.method] = append(selfUs[sp.layer][sp.method], self(id))
		if sp.layer == layerHandler && sp.op != 0 {
			handled++
		}
		switch {
		case sp.layer == layerDevice && sp.method != mRecover:
			rootDur += d
		case sp.layer == layerTransport && sp.parent != 0:
			parent := spans[sp.parent-1]
			if parent.method == mRecover {
				break
			}
			callsOf[parent.method]++
			if sp.method == mBroadcast || sp.method == mNotify {
				fanoutDur += d
			} else {
				rpcDur += d
			}
		}
	}
	all := func(l layer) []float64 {
		var xs []float64
		for m := range selfUs[l] {
			xs = append(xs, selfUs[l][m]...)
		}
		return xs
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p := func(xs []float64, q float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return quantile(s, q)
	}
	reads, writes := count[layerDevice][mRead], count[layerDevice][mWrite]
	v := a.values
	v["scheme.read_self_us"] = median(selfUs[layerDevice][mRead])
	v["scheme.write_self_us"] = median(selfUs[layerDevice][mWrite])
	v["transport.calls_per_read"] = ratio(callsOf[mRead], reads)
	v["transport.calls_per_write"] = ratio(callsOf[mWrite], writes)
	v["transport.self_us"] = median(all(layerTransport))
	v["site.handles_per_op"] = ratio(handled, reads+writes)
	v["site.handle_self_us"] = median(all(layerHandler))
	storeWrites := count[layerStore][mWrite]
	v["store.writes_per_op"] = ratio(storeWrites, writes)
	v["store.write_p50_us"] = median(durUs[layerStore][mWrite])
	syncs := durUs[layerLog][mSync]
	v["store.sync_p50_us"] = p(syncs, 0.5)
	v["store.sync_p90_us"] = p(syncs, 0.9)
	v["store.syncs_per_write"] = ratio(float64(len(syncs)), storeWrites)
	v["store.batch_mean"] = ratio(count[layerLog][mWrite]+count[layerLog][mSaveMeta], float64(len(syncs)))
	if len(syncs) > 0 {
		v["store.write_minus_sync_us"] = v["store.write_p50_us"] - v["store.sync_p50_us"]
	}
	v["span.share_fanout"] = ratio(fanoutDur, rootDur)
	v["span.share_rpc"] = ratio(rpcDur, rootDur)
	v["trace.spans"] = float64(len(spans))
	v["trace.dropped"] = float64(r.dropped.Load())
	v["trace.violations"] = float64(a.violations)
	return a
}

// writeTo writes every span as one JSON array per line:
// [id, parent, op, layer, method, site, start_ns, end_ns].
func (r *recorder) writeTo(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"layers\":[", workload)
	for i, n := range layerNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"methods\":[")
	for i, n := range methodNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"columns\":[\"id\",\"parent\",\"op\",\"layer\",\"method\",\"site\",\"start_ns\",\"end_ns\"],\"spans\":[\n")
	var line []byte
	for i, sp := range r.spans[:r.used()] {
		line = line[:0]
		if i > 0 {
			line = append(line, ",\n"...)
		}
		line = append(line, '[')
		for j, x := range [...]int64{int64(i + 1), int64(sp.parent), int64(sp.op), int64(sp.layer), int64(sp.method), int64(sp.site), sp.start, sp.end} {
			if j > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(line, x, 10)
		}
		line = append(line, ']')
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
