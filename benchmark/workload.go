package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"relidev"
)

// Device shape of every workload: 4096 blocks of 4 KiB, 16 MiB a site.
var geometry = relidev.Geometry{BlockSize: 4096, NumBlocks: 4096}

// spec describes one workload. Op counts are per client.
type spec struct {
	name   string
	why    string
	sites  int
	scheme relidev.Scheme
	tcp    bool
	// storeDir keeps each site's blocks in a segment log on the real
	// filesystem; groupCommit additionally makes every write wait for
	// an fsync.
	storeDir    bool
	groupCommit int
	// readPct is the share of reads in a segment's ops. readBack instead
	// makes every client, after the timed ops of a segment, read back
	// the blocks it wrote.
	readPct  int
	readBack bool
	// segOps is the size of one segment: ops per client, or for the
	// restart workload blocks written per client while site 2 is down.
	segOps int
	// ageWrites is how many random overwrites each site's log has seen
	// before the sites open (see agedLog).
	ageWrites int
	restart   bool
	// ungated keeps the workload out of BENCHMARK.json: it runs by name,
	// in the table, under -calibrate and in the smoke test, but the
	// pipeline does not compare it (README.md says why).
	ungated bool
}

var specs = []*spec{
	{
		name: "sim_voting_n5", sites: 5, scheme: relidev.Voting, readPct: 50, segOps: 40000,
		why: "CPU-bound path: voting+site+locks+obs over zero-latency simnet and MemStore; codec, sockets and disk idle",
	},
	{
		name: "tcp_voting_n5", sites: 5, scheme: relidev.Voting, tcp: true, readPct: 50, segOps: 7000,
		why: "rpcnet+gob over loopback TCP do most of the work; quorum reads and prepare-write writes; store idle",
	},
	{
		name: "tcp_ac_n3_durable", sites: 3, scheme: relidev.AvailableCopy, tcp: true, storeDir: true, groupCommit: 64,
		readBack: true, segOps: 600, ungated: true,
		why: "writes only: SegStore+Batcher+fsync dominate (a batch holds at most 2 records with 2 clients); local AC reads only read back",
	},
	{
		name: "tcp_ac_n3_restart", sites: 3, scheme: relidev.AvailableCopy, tcp: true, storeDir: true,
		segOps: 512, ageWrites: 28 * 1024, restart: true,
		why: "fail-stop recovery: bulk log replay, version-vector exchange and a 4 MiB transfer instead of small ops",
	},
}

// gatedSpecs are the workloads BENCHMARK.json lists.
func gatedSpecs() []*spec {
	var out []*spec
	for _, s := range specs {
		if !s.ungated {
			out = append(out, s)
		}
	}
	return out
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// node is one site of a TCP cluster: *relidev.RemoteSite, or the
// traced pass's assembly of the same parts.
type node interface {
	Device() relidev.Device
	Recover(ctx context.Context) error
	CriticalPath() (*relidev.CriticalPathProfile, error)
	Close() error
}

// cluster is a running reliable device with one Device per site.
type cluster struct {
	spec *spec
	devs []relidev.Device
	// copyAt returns what one site currently stores for a block,
	// bypassing the consistency scheme; nil when the API offers no way.
	copyAt func(site, idx int) ([]byte, error)
	// profiles returns the obs critical-path profile of every observer
	// in the cluster.
	profiles func() []*relidev.CriticalPathProfile
	// traffic returns simnet's transmission and byte counters (nil for
	// TCP clusters); trafficByOp splits the transmissions by "read" and
	// "write", which only the internal API can.
	traffic     func() relidev.TrafficStats
	trafficByOp func(op string) uint64

	nodes []node                 // TCP only
	cfgs  []relidev.RemoteConfig // TCP only, to reopen a site
	open  func(relidev.RemoteConfig) (node, error)
	dir   string // store directories live under here; removed on close
}

func (cl *cluster) close() error {
	var first error
	for _, n := range cl.nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	if cl.dir != "" {
		if err := os.RemoveAll(cl.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// env is what a run needs besides its workload.
type env struct {
	seed    int64
	scale   float64
	workDir string // this run's own directory; holds the store directories
	clients int
	aged    *agedLog // what StoreDir sites start from
}

func (e env) scaled(n int) int {
	m := int(float64(n) * e.scale)
	if m < 8 {
		m = 8
	}
	return m
}

// openPublic builds the workload's cluster through the public API.
func openPublic(sp *spec, e env, shadow *shadow) (*cluster, error) {
	if !sp.tcp {
		c, err := relidev.New(sp.sites, sp.scheme, relidev.WithGeometry(geometry), relidev.WithMetering())
		if err != nil {
			return nil, err
		}
		cl := &cluster{spec: sp, devs: make([]relidev.Device, sp.sites), traffic: c.Traffic}
		for i := range cl.devs {
			if cl.devs[i], err = c.Device(i); err != nil {
				return nil, err
			}
		}
		cl.profiles = func() []*relidev.CriticalPathProfile {
			p, err := c.CriticalPath()
			if err != nil {
				return nil
			}
			return []*relidev.CriticalPathProfile{p}
		}
		return cl, nil
	}
	cl, err := openTCP(sp, e, shadow, func(cfg relidev.RemoteConfig) (node, error) {
		s, err := relidev.OpenRemote(cfg)
		if err != nil {
			return nil, err // not a nil *RemoteSite in a non-nil node
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	// Each site is asked for its own copy: after a restart cycle the
	// other sites' failure detectors may still be backing off from it.
	cl.copyAt = func(site, idx int) ([]byte, error) {
		data, _, err := cl.nodes[site].(*relidev.RemoteSite).FetchFrom(context.Background(), site, idx)
		return data, err
	}
	return cl, nil
}

// openTCP reserves loopback addresses, prepares store directories and
// opens every site with the given constructor.
func openTCP(sp *spec, e env, shadow *shadow, open func(relidev.RemoteConfig) (node, error)) (cl *cluster, err error) {
	err = bindRetry(func() error {
		cl, err = openTCPOnce(sp, e, shadow, open)
		return err
	})
	return cl, err
}

// bindRetry runs f up to three times while it fails on the network. The
// ports were free a moment ago when they were reserved (or, for a site
// that restarts, in use by the site itself), so losing one to another
// process is a race worth a retry.
func bindRetry(f func() error) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = f(); err == nil {
			return nil
		}
		var opErr *net.OpError
		if !errors.As(err, &opErr) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return err
}

func openTCPOnce(sp *spec, e env, shadow *shadow, open func(relidev.RemoteConfig) (node, error)) (_ *cluster, err error) {
	cl := &cluster{spec: sp, open: open, nodes: make([]node, sp.sites), devs: make([]relidev.Device, sp.sites)}
	defer func() {
		if err != nil {
			cl.close()
		}
	}()
	peers, err := reserveAddrs(sp.sites)
	if err != nil {
		return nil, err
	}
	if sp.storeDir {
		if cl.dir, err = os.MkdirTemp(e.workDir, "stores-"); err != nil {
			return nil, err
		}
		for i := 0; i < sp.sites; i++ {
			if err := e.aged.cloneInto(siteDir(cl.dir, i)); err != nil {
				return nil, err
			}
		}
		copy(shadow.seq, e.aged.seq)
	}
	for i := 0; i < sp.sites; i++ {
		cfg := relidev.RemoteConfig{
			Self: i, Peers: peers, Scheme: sp.scheme, Geometry: geometry,
			GroupCommitBatch: sp.groupCommit, Metered: true,
		}
		if sp.storeDir {
			cfg.StoreDir = siteDir(cl.dir, i)
		}
		cl.cfgs = append(cl.cfgs, cfg)
		if cl.nodes[i], err = open(cfg); err != nil {
			return nil, fmt.Errorf("open site %d: %w", i, err)
		}
		cl.devs[i] = cl.nodes[i].Device()
	}
	cl.profiles = func() []*relidev.CriticalPathProfile {
		var out []*relidev.CriticalPathProfile
		for _, n := range cl.nodes {
			if p, err := n.CriticalPath(); err == nil {
				out = append(out, p)
			}
		}
		return out
	}
	return cl, nil
}

func siteDir(dir string, site int) string { return filepath.Join(dir, fmt.Sprintf("site%d", site)) }

// reserveAddrs picks n free loopback ports by binding and releasing
// them.
func reserveAddrs(n int) (map[int]string, error) {
	peers := make(map[int]string, n)
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		peers[i] = ln.Addr().String()
	}
	return peers, nil
}

// Payloads carry (client, idx, seq) at both ends of the block, so a
// stale, misdirected or torn block is recognised without keeping a
// copy of every block.
const (
	stampLen = 16
	bodyByte = 0xA5
)

func newPayload() []byte {
	buf := make([]byte, geometry.BlockSize)
	for i := range buf {
		buf[i] = bodyByte
	}
	return buf
}

func stamp(buf []byte, client, idx int, seq uint64) {
	for _, b := range [][]byte{buf[:stampLen], buf[len(buf)-stampLen:]} {
		binary.LittleEndian.PutUint32(b[0:], uint32(client))
		binary.LittleEndian.PutUint32(b[4:], uint32(idx))
		binary.LittleEndian.PutUint64(b[8:], seq)
	}
}

// shadow records, for every block, the seq of the last write its owner
// completed: the paper's "most recent write" a read must return.
type shadow struct {
	clients int
	seq     []uint64
}

func newShadow(clients int) *shadow {
	return &shadow{clients: clients, seq: make([]uint64, geometry.NumBlocks)}
}

func (s *shadow) owner(idx int) int { return idx % s.clients }

// matches reports whether data is exactly the block the shadow expects
// at idx. full also compares the body, not only the two stamps.
func (s *shadow) matches(idx int, data []byte, full bool) bool {
	if len(data) != geometry.BlockSize {
		return false
	}
	seq := s.seq[idx]
	if seq == 0 {
		for _, b := range data {
			if b != 0 {
				return false
			}
		}
		return true
	}
	var want [stampLen]byte
	binary.LittleEndian.PutUint32(want[0:], uint32(s.owner(idx)))
	binary.LittleEndian.PutUint32(want[4:], uint32(idx))
	binary.LittleEndian.PutUint64(want[8:], seq)
	if [stampLen]byte(data[:stampLen]) != want || [stampLen]byte(data[len(data)-stampLen:]) != want {
		return false
	}
	if full {
		for _, b := range data[stampLen : len(data)-stampLen] {
			if b != bodyByte {
				return false
			}
		}
	}
	return true
}

// client is one closed-loop caller: it issues its next op when the
// previous one returns, like a file system doing synchronous block I/O.
// It owns the blocks idx ≡ id (mod clients), so no two clients ever
// write the same block and message counts repeat exactly.
type client struct {
	id     int
	dev    relidev.Device
	shadow *shadow
	rng    *rand.Rand
	buf    []byte
	owned  []int

	readLat, writeLat []int64
	reads, writes     int // completed without error
	attempted, failed int
	firstErr          error
}

func newClients(e env, devs []relidev.Device, sh *shadow) []*client {
	cs := make([]*client, e.clients)
	for c := range cs {
		cs[c] = &client{
			id: c, dev: devs[c], shadow: sh, buf: newPayload(),
			rng: rand.New(rand.NewSource(e.seed*1000003 + int64(c))),
		}
		for idx := c; idx < geometry.NumBlocks; idx += e.clients {
			cs[c].owned = append(cs[c].owned, idx)
		}
	}
	return cs
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *client) write(ctx context.Context, idx int) {
	seq := c.shadow.seq[idx] + 1
	stamp(c.buf, c.id, idx, seq)
	c.attempted++
	t0 := time.Now()
	err := c.dev.WriteBlock(ctx, relidev.Index(idx), c.buf)
	c.writeLat = append(c.writeLat, int64(time.Since(t0)))
	if err != nil {
		c.fail(fmt.Errorf("write block %d: %w", idx, err))
		return
	}
	c.shadow.seq[idx] = seq
	c.writes++
}

func (c *client) read(ctx context.Context, dev relidev.Device, idx int) {
	c.attempted++
	t0 := time.Now()
	data, err := dev.ReadBlock(ctx, relidev.Index(idx))
	c.readLat = append(c.readLat, int64(time.Since(t0)))
	if err != nil {
		c.fail(fmt.Errorf("read block %d: %w", idx, err))
		return
	}
	c.reads++
	if !c.shadow.matches(idx, data, false) {
		c.fail(fmt.Errorf("read block %d: not the most recent write (want seq %d)", idx, c.shadow.seq[idx]))
	}
}

// An op is a block index, with readBit set for a read.
const readBit = 1 << 31

// genOps draws n ops on the client's own blocks from its seeded stream.
func (c *client) genOps(n, readPct int) []uint32 {
	ops := make([]uint32, n)
	for i := range ops {
		ops[i] = uint32(c.owned[c.rng.Intn(len(c.owned))])
		if c.rng.Intn(100) < readPct {
			ops[i] |= readBit
		}
	}
	return ops
}

func (c *client) run(ctx context.Context, ops []uint32) {
	for _, op := range ops {
		if op&readBit != 0 {
			c.read(ctx, c.dev, int(op&^readBit))
		} else {
			c.write(ctx, int(op))
		}
	}
}

// together runs f once per client, each on its own goroutine, and
// returns when all have finished.
func together(cs []*client, f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// sample is what one segment measured.
type sample map[string]float64

// usage is the process-wide resource reading taken around a segment.
type usage struct {
	wall      time.Time
	user, sys time.Duration
	mem       runtime.MemStats
}

func readUsage() usage {
	var u usage
	runtime.ReadMemStats(&u.mem)
	u.user, u.sys = cpuTime()
	u.wall = time.Now()
	return u
}

// perOp fills the resource metrics of a segment that did ops ops
// between the two readings.
func (s sample) perOp(before, after usage, ops int) {
	n := float64(ops)
	s["cpu.user_us_per_op"] = float64(after.user-before.user) / 1e3 / n
	s["cpu.sys_us_per_op"] = float64(after.sys-before.sys) / 1e3 / n
	s["allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / n
	s["alloc_kb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / n
	s["gc.cycles_per_kop"] = float64(after.mem.NumGC-before.mem.NumGC) / n * 1000
	s["gc.pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
}

// latencies moves the clients' recorded latencies into the sample as
// percentiles and resets the recordings.
func (s sample) latencies(cs []*client) {
	var reads, writes []int64
	for _, c := range cs {
		reads = append(reads, c.readLat...)
		writes = append(writes, c.writeLat...)
		c.readLat, c.writeLat = c.readLat[:0], c.writeLat[:0]
	}
	r := durQuantilesUs(reads, 0.5, 0.9, 0.99)
	w := durQuantilesUs(writes, 0.5, 0.9, 0.99)
	s["read_p50_us"], s["client.read_p90_us"], s["client.read_p99_us"] = r[0], r[1], r[2]
	s["write_p50_us"], s["client.write_p90_us"], s["client.write_p99_us"] = w[0], w[1], w[2]
	s["client.samples"] = float64(len(reads) + len(writes))
}

// steadySegment runs one fixed-size segment of the read/write mix on
// every client and measures it.
func steadySegment(ctx context.Context, sp *spec, e env, cs []*client) sample {
	n := e.scaled(sp.segOps)
	ops := make([][]uint32, len(cs))
	for i, c := range cs {
		ops[i] = c.genOps(n, sp.readPct)
	}
	before := readUsage()
	together(cs, func(c *client) { c.run(ctx, ops[c.id]) })
	after := readUsage()
	if sp.readBack {
		together(cs, func(c *client) {
			for _, op := range ops[c.id] {
				c.read(ctx, c.dev, int(op))
			}
		})
	}
	s := sample{}
	total := n * len(cs)
	s["ops_per_s"] = float64(total) / after.wall.Sub(before.wall).Seconds()
	s.perOp(before, after, total)
	s.latencies(cs)
	return s
}

// prefill makes every client write each of its blocks once.
func prefill(ctx context.Context, cs []*client) {
	together(cs, func(c *client) {
		for _, idx := range c.owned {
			c.write(ctx, idx)
		}
		c.writeLat = c.writeLat[:0]
	})
}

// verifyCopies compares every site's stored copy of every block with
// the shadow after the last op. Available copy keeps all copies
// current; voting promises the most recent write on a write quorum (a
// majority, all weights being equal).
func verifyCopies(cl *cluster, sh *shadow) (checked, bad int, first error) {
	need := cl.spec.sites
	if cl.spec.scheme == relidev.Voting {
		need = cl.spec.sites/2 + 1
	}
	for idx := 0; idx < geometry.NumBlocks; idx++ {
		current := 0
		for site := 0; site < cl.spec.sites; site++ {
			data, err := cl.copyAt(site, idx)
			if err == nil && sh.matches(idx, data, true) {
				current++
			}
		}
		checked++
		if current < need {
			bad++
			if first == nil {
				first = fmt.Errorf("block %d: %d of %d copies hold the most recent write, need %d", idx, current, cl.spec.sites, need)
			}
		}
	}
	return checked, bad, first
}

// verifyThrough reads every block through a site that coordinated none
// of its writes: the check available when single copies cannot be
// inspected.
func verifyThrough(ctx context.Context, cl *cluster, cs []*client) {
	together(cs, func(c *client) {
		dev := cl.devs[(c.id+len(cs))%len(cl.devs)]
		for _, idx := range c.owned {
			c.read(ctx, dev, idx)
		}
		c.readLat = c.readLat[:0]
	})
}
