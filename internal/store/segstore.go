package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"relidev/internal/block"
)

// SegStore layout: a directory of append-only segment files named
// seg-<seq>.log. Each segment starts with a header
//
//	magic[8] blockSize[4] numBlocks[4] seq[8]
//
// followed by CRC-framed records (little endian):
//
//	crc32[4] type[1] idx[4] ver[8] len[4] payload[len]
//
// where the CRC (IEEE) covers everything after the crc field. Record
// type 0 carries a block write (payload is the block data, len must
// equal the block size); type 1 carries the scheme metadata area.
//
// Writes never seek: a block update appends a fresh record to the
// active segment and updates the in-memory image, so the disk write
// path is a single sequential append (plus one fsync per Sync call —
// see Batcher for amortising that). When the active segment exceeds
// the rotation threshold it is fsynced and sealed, a new segment is
// created, the directory is fsynced so the new name survives crash, the
// segments whose records have all been superseded are handed to a
// reaper goroutine, which unlinks them and syncs the directory off the
// log mutex, and the log cleaner may empty one more (see cleanLocked).
// Close waits for every reaper.
//
// On open the segments are replayed, in parallel, to rebuild the image
// (see OpenSeg). A torn tail — a short or CRC-damaged record at the end
// of the *last* segment, the only place an in-flight append can be
// interrupted — is truncated away; damage anywhere else is corruption
// and fails the open.
const (
	segMagic      = "RELIDSEG"
	segHeaderSize = 8 + 4 + 4 + 8
	recHeaderSize = 4 + 1 + 4 + 8 + 4

	recBlock = 0
	recMeta  = 1

	// defaultMaxSegmentBytes rotates segments at 4 MiB.
	defaultMaxSegmentBytes = 4 << 20

	// replayBufBytes is the least size of the buffer an OpenSeg streams
	// every segment through, so that replay costs one sequential read
	// per MiB of log instead of two small ones per record.
	replayBufBytes = 1 << 20

	// cleanFactor bounds the log: once the segments still holding live
	// records exceed cleanFactor times the live record bytes plus one
	// segment, a rotation cleans. Chosen from a sweep (EXPERIMENTS.md):
	// at 3 replay is 30 % slower; at 1.5 it is 15 % faster, but a byte
	// written costs 1.30 appended bytes instead of 1.12.
	cleanFactor = 2
)

// ErrCorruptSegment reports CRC or framing damage before the tail of
// the last segment, which replay cannot repair.
var ErrCorruptSegment = errors.New("store: corrupt segment record")

// ErrNoSegments reports an OpenSeg on a directory holding no segment
// files; callers typically fall back to CreateSeg.
var ErrNoSegments = errors.New("store: no segments")

// SegStore is a Store backed by a directory of append-only segment
// files. Reads are served from an in-memory image; writes append.
type SegStore struct {
	// mem holds the authoritative in-memory image (data, versions,
	// meta) and its stripe locks; SegStore layers the log underneath
	// its write path.
	mem *MemStore

	// mu, the log mutex, serialises appends, rotation, cleaning, meta
	// saves and Sync, and guards the fields below. An image slot changes
	// only under mu and its stripe lock (the metadata's: mem.metaMu), so
	// mu alone holds the image still, and a Read, under the stripe lock
	// only, never waits behind a write(2), a seal fsync or a cleaner.
	mu sync.Mutex

	dir      string
	maxBytes int64

	active    *os.File
	activeSeq uint64
	activeLen int64

	// liveSeg[idx] is the segment holding block idx's newest record
	// (liveNone when the block has never been written); metaSeg
	// likewise for the metadata area. live[seq] counts records in
	// segment seq that are still current, so a segment whose count
	// reaches zero holds only superseded history and can be deleted.
	// size[seq] is sealed segment seq's length in bytes, recorded at
	// rotation and rebuilt by replay, so the cleaner decides alike on a
	// reopened store and on one never closed.
	liveSeg []uint64
	metaSeg uint64
	live    map[uint64]int
	size    map[uint64]int64

	// cleaning is set while cleanLocked re-appends a victim's records, so
	// the rotations its own copies cause do not clean again.
	cleaning bool

	// rec is appendLocked's scratch, the records of one write(2): about
	// a segment at most (a recovery page is 1 MiB). The write is
	// synchronous, so the buffer is free again when it returns.
	rec []byte

	// reapers counts the goroutines that delete dead segments (see
	// reap); reapErr is the first error one met, which Close reports.
	reapers sync.WaitGroup
	reapErr atomic.Pointer[error]
}

const liveNone = ^uint64(0)

var _ Store = (*SegStore)(nil)

// SegOption tunes a SegStore.
type SegOption func(*SegStore)

// WithMaxSegmentBytes sets the rotation threshold.
func WithMaxSegmentBytes(n int64) SegOption {
	return func(s *SegStore) {
		if n > 0 {
			s.maxBytes = n
		}
	}
}

// CreateSeg initialises dir (created if missing, must not already hold
// segments) as an all-zero segment store.
func CreateSeg(dir string, geom block.Geometry, opts ...SegOption) (*SegStore, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create segment dir: %w", err)
	}
	if names, err := segmentNames(dir); err != nil {
		return nil, err
	} else if len(names) > 0 {
		return nil, fmt.Errorf("store: %s already holds %d segments", dir, len(names))
	}
	s, err := newSegStore(dir, geom, opts)
	if err != nil {
		return nil, err
	}
	//relidev:allow locking: store not yet shared during construction
	if err := s.openSegmentLocked(0); err != nil {
		s.mem.Close()
		return nil, err
	}
	return s, nil
}

// OpenSeg rebuilds the image from an existing segment store.
//
// Segments are replayed on every core (see replay), each streamed
// through a buffer with every record CRC-verified in place. A record
// installs only if no newer segment claimed its slot (a block's or the
// metadata's): an older one's may be copied, then overwritten, but is
// never counted live. Log order decides, never the version number: an
// aborted write legitimately restores a lower version.
//
// A bad frame in the final segment is a torn append and is truncated
// away; anywhere else it is ErrCorruptSegment. A final segment shorter
// than its header is a rotation that crashed between creating the file
// and writing the header: it is removed, and its predecessor — fsynced
// before the successor was created, so held to the sealed-segment
// standard — becomes the active segment.
func OpenSeg(dir string, opts ...SegOption) (*SegStore, error) {
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	tornTailOK := true
	if n := len(names); n > 0 {
		last := filepath.Join(dir, names[n-1])
		fi, err := os.Stat(last)
		if err != nil {
			return nil, fmt.Errorf("stat segment: %w", err)
		}
		if fi.Size() < segHeaderSize {
			if err := os.Remove(last); err != nil {
				return nil, fmt.Errorf("remove torn segment creation: %w", err)
			}
			if err := syncDir(dir); err != nil {
				return nil, err
			}
			names, tornTailOK = names[:n-1], false
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoSegments, dir)
	}
	sealed, last := names[:len(names)-1], names[len(names)-1]
	active, err := os.OpenFile(filepath.Join(dir, last), os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("open active segment: %w", err)
	}
	geom, seq, err := readSegHeader(active)
	if err != nil {
		active.Close()
		return nil, err
	}
	s, err := newSegStore(dir, geom, opts)
	if err != nil {
		active.Close()
		return nil, err
	}
	s.active, s.activeSeq = active, seq
	if err := s.replay(sealed, tornTailOK); err != nil {
		active.Close()
		s.mem.Close()
		return nil, err
	}
	return s, nil
}

// replay rebuilds the image and liveness from every segment on
// min(GOMAXPROCS, segments) workers, which take segments newest first
// and stop at a failure: the newest failed segment's error is returned.
func (s *SegStore) replay(sealed []string, tornTailOK bool) error {
	done := make([]replayed, len(sealed)+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(done)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Two maximal records, so that a refill always leaves a whole
			// record in the buffer.
			buf := make([]byte, max(replayBufBytes, 2*(recHeaderSize+s.maxPayload())))
			for i := int(next.Add(1) - 1); i < len(done); i = int(next.Add(1) - 1) {
				if i == 0 {
					done[0] = s.replaySegment(s.active, s.activeSeq, buf, tornTailOK)
				} else {
					done[i] = s.replaySealed(sealed[len(sealed)-i], buf)
				}
				if done[i].err != nil {
					next.Store(int64(len(done)))
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range done {
		if r.err != nil {
			return r.err
		}
	}
	if _, err := s.active.Seek(done[0].end, io.SeekStart); err != nil {
		return fmt.Errorf("seek active segment: %w", err)
	}
	s.activeLen = done[0].end
	s.tally(done)
	return nil
}

// replayed is where a segment's last intact record ends, or why not.
type replayed struct {
	seq uint64
	end int64
	err error
}

// replaySealed replays one sealed segment, opened read-only: only the
// final segment can need truncating.
func (s *SegStore) replaySealed(name string, buf []byte) replayed {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return replayed{err: fmt.Errorf("open segment: %w", err)}
	}
	defer f.Close()
	geom, seq, err := readSegHeader(f)
	if err != nil {
		return replayed{err: err}
	}
	if geom != s.mem.geom {
		return replayed{err: fmt.Errorf("store: segment %s geometry %+v differs from %+v", name, geom, s.mem.geom)}
	}
	return s.replaySegment(f, seq, buf, false)
}

// tally counts each replayed segment's live records, zero included so
// that rotation-time GC sees it, and records each sealed one's length.
func (s *SegStore) tally(done []replayed) {
	for _, r := range done {
		s.live[r.seq] = 0
		if r.seq != s.activeSeq {
			s.size[r.seq] = r.end
		}
	}
	for _, seq := range s.liveSeg {
		s.live[seq]++
	}
	s.live[s.metaSeg]++
	delete(s.live, liveNone) // the slots never written
}

func newSegStore(dir string, geom block.Geometry, opts []SegOption) (*SegStore, error) {
	mem, err := NewMem(geom)
	if err != nil {
		return nil, err
	}
	s := &SegStore{
		mem:      mem,
		dir:      dir,
		maxBytes: defaultMaxSegmentBytes,
		liveSeg:  make([]uint64, geom.NumBlocks),
		metaSeg:  liveNone,
		live:     make(map[uint64]int),
		size:     make(map[uint64]int64),
	}
	for i := range s.liveSeg {
		s.liveSeg[i] = liveNone
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Geometry returns the device shape.
func (s *SegStore) Geometry() block.Geometry { return s.mem.Geometry() }

// Read returns a copy of block idx and its version from the image.
func (s *SegStore) Read(idx block.Index) ([]byte, block.Version, error) {
	return s.mem.Read(idx)
}

// Version returns the version of block idx.
func (s *SegStore) Version(idx block.Index) (block.Version, error) {
	return s.mem.Version(idx)
}

// Vector returns a copy of the full version vector.
func (s *SegStore) Vector() block.Vector { return s.mem.Vector() }

// Write appends a block record to the active segment and installs it
// in the image: a run of one.
func (s *SegStore) Write(idx block.Index, data []byte, ver block.Version) error {
	return s.WriteRun([]Install{{Index: idx, Data: data, Version: ver}})
}

// WriteRun appends ins as block records and installs them in the image,
// in order, exactly as that many Writes would, but with one write(2)
// unless the Writes would have rotated in between (see appendLocked).
// Every install is checked before anything is written.
func (s *SegStore) WriteRun(ins []Install) error { return s.install(ins, nil) }

// Swap appends the record Write would, then makes buf itself block idx's
// image slot (see the package func Swap).
func (s *SegStore) Swap(idx block.Index, buf []byte, ver block.Version) (prev []byte, err error) {
	err = s.install([]Install{{Index: idx, Data: buf, Version: ver}}, &prev)
	return prev, err
}

func (s *SegStore) install(ins []Install, swapped *[]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem.closed.Load() {
		return ErrClosed
	}
	for _, in := range ins {
		if err := checkWrite(s.mem.geom, in.Index, in.Data); err != nil {
			return err
		}
	}
	return s.appendLocked(recBlock, ins, swapped)
}

// LoadMeta returns a copy of the metadata area.
func (s *SegStore) LoadMeta() ([]byte, error) { return s.mem.LoadMeta() }

// SaveMeta appends a metadata record and installs it in the image.
func (s *SegStore) SaveMeta(meta []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem.closed.Load() {
		return ErrClosed
	}
	if len(meta) > defaultMetaCap {
		return fmt.Errorf("store: metadata %d bytes exceeds capacity %d", len(meta), defaultMetaCap)
	}
	if err := s.appendLocked(recMeta, []Install{{Data: meta}}, nil); err != nil {
		return err
	}
	s.mem.metaMu.Lock()
	s.mem.meta = append([]byte(nil), meta...)
	s.mem.metaMu.Unlock()
	return nil
}

// Sync flushes the active segment to disk.
func (s *SegStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem.closed.Load() {
		return ErrClosed
	}
	return s.active.Sync()
}

// Close syncs and closes the active segment and waits for every
// reaper. It reports the first error of the two, or of any reaper.
func (s *SegStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem.closed.Load() {
		return nil
	}
	s.mem.Close()
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.reapers.Wait()
	if p := s.reapErr.Load(); err == nil && p != nil {
		err = *p
	}
	return err
}

// appendLocked appends ins as records of type typ — block installs, or
// one metadata area in ins[0].Data — and moves each slot's liveness, and
// a block's image, to its record. The active segment is rotated before
// any record once it has reached maxBytes, and only there is the run
// cut: each piece is framed into s.rec, written with one write(2), and
// installed before the next rotation, whose cleaner copies from the
// image. So segment boundaries, live counts and cleaner decisions are
// those of record-at-a-time appends, byte for byte. A Swap's one install
// passes swapped: the image slot takes its buffer instead of a copy, and
// *swapped the slot's old one. A piece's blocks are installed under
// their stripe locks, taken together after its write(2). Callers hold
// s.mu and have checked every install.
func (s *SegStore) appendLocked(typ byte, ins []Install, swapped *[]byte) error {
	for len(ins) > 0 {
		if s.activeLen >= s.maxBytes {
			if err := s.rotateLocked(); err != nil {
				return err
			}
		}
		// One allocation for a piece, not a doubling series: a run's
		// records are of one size, and a piece is about a segment at most.
		s.rec = slices.Grow(s.rec[:0], min(len(ins)*(recHeaderSize+len(ins[0].Data)), int(s.maxBytes)))
		n := 0
		for n < len(ins) && (n == 0 || s.activeLen+int64(len(s.rec)) < s.maxBytes) {
			s.rec = frameRecord(s.rec, typ, ins[n])
			n++
		}
		if _, err := s.active.Write(s.rec); err != nil {
			return fmt.Errorf("append segment record: %w", err)
		}
		s.activeLen += int64(len(s.rec))
		s.live[s.activeSeq] += n
		if typ == recMeta {
			// The image's area is the caller's to install (SaveMeta) or
			// already holds the record (evacuateLocked).
			s.retireLocked(&s.metaSeg)
			ins = ins[n:]
			continue
		}
		var stripes uint64
		for _, in := range ins[:n] {
			stripes |= 1 << block.Stripe(in.Index)
		}
		s.mem.lock(stripes)
		for _, in := range ins[:n] {
			if swapped != nil {
				*swapped, s.mem.blocks[in.Index] = s.mem.blocks[in.Index], in.Data
			} else {
				copy(s.mem.blocks[in.Index], in.Data)
			}
			s.mem.versions[in.Index].Store(uint64(in.Version))
			s.retireLocked(&s.liveSeg[in.Index])
		}
		s.mem.unlock(stripes)
		ins = ins[n:]
	}
	return nil
}

// frameRecord appends one CRC-framed record to buf.
func frameRecord(buf []byte, typ byte, in Install) []byte {
	at := len(buf)
	buf = slices.Grow(buf, recHeaderSize+len(in.Data))[:at+recHeaderSize]
	buf[at+4] = typ
	binary.LittleEndian.PutUint32(buf[at+5:], uint32(in.Index))
	binary.LittleEndian.PutUint64(buf[at+9:], uint64(in.Version))
	binary.LittleEndian.PutUint32(buf[at+17:], uint32(len(in.Data)))
	buf = append(buf, in.Data...)
	binary.LittleEndian.PutUint32(buf[at:], crc32.ChecksumIEEE(buf[at+4:]))
	return buf
}

// retireLocked moves a liveness slot (a block's or the metadata's) to
// the active segment, decrementing the old segment's live count.
// Callers hold s.mu; the record itself was already appended.
func (s *SegStore) retireLocked(slot *uint64) {
	if old := *slot; old != liveNone {
		s.live[old]--
	}
	*slot = s.activeSeq
}

// rotateLocked seals the active segment (fsync), opens the next one,
// fsyncs the directory, hands the fully-superseded segments to a reaper
// and runs the cleaner. Dead segments are only collected here, after the
// records that displaced them are durable, so the reaper's unlinks need
// not reach disk before anything else: a dead segment a crash keeps
// replays to the same image, counts zero live and is collected again by
// the first rotation after the reopen. Callers hold s.mu.
func (s *SegStore) rotateLocked() error {
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("seal segment %d: %w", s.activeSeq, err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("seal segment %d: %w", s.activeSeq, err)
	}
	s.size[s.activeSeq] = s.activeLen
	if err := s.openSegmentLocked(s.activeSeq + 1); err != nil {
		return err
	}
	var dead []string
	for seq, n := range s.live {
		if n == 0 && seq != s.activeSeq {
			dead = append(dead, filepath.Join(s.dir, segmentName(seq)))
			delete(s.live, seq)
			delete(s.size, seq)
		}
	}
	if len(dead) > 0 {
		s.reapers.Add(1)
		go s.reap(dead)
	}
	return s.cleanLocked()
}

// reap unlinks dead segment files, then fsyncs the directory, keeping
// the first error for Close. It runs on its own goroutine: an unlink
// that frees a whole segment takes milliseconds, and no append waits
// for it.
func (s *SegStore) reap(paths []string) {
	defer s.reapers.Done()
	var err error
	for _, p := range paths {
		if rerr := os.Remove(p); rerr != nil && err == nil {
			err = fmt.Errorf("delete dead segment: %w", rerr)
		}
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		s.reapErr.CompareAndSwap(nil, &err)
	}
}

// cleanLocked is the log cleaner. When the segments still holding live
// records (the active one included) exceed cleanFactor times the live
// record bytes plus one segment, it empties the sealed segment with the
// fewest live records — the lowest sequence number on a tie — by
// re-appending those records from the image, at the image's versions.
// The copies are the newest records of their slots, so replay, which
// goes by log order, rebuilds the same image with or without them. The
// victim's live count is then zero and the next rotation deletes it,
// after that rotation's seal has made the copies durable. Callers hold
// s.mu, under which the image holds still.
func (s *SegStore) cleanLocked() error {
	if s.cleaning {
		return nil
	}
	s.cleaning = true
	defer func() { s.cleaning = false }()
	// One victim per rotation holds the log steady; the loop takes a
	// second only when uneven segment sizes have let it creep over. A
	// victim holds under half live bytes while the log is over the
	// bound, so each pass shrinks it, and a pass that does not ends it.
	for last := int64(math.MaxInt64); ; {
		// live counts a block record per current record, then corrects
		// for the metadata's.
		held, live, victim := s.activeLen, int64(0), liveNone
		for seq, n := range s.live {
			live += int64(n) * int64(recHeaderSize+s.mem.geom.BlockSize)
			if n == 0 || seq == s.activeSeq {
				continue
			}
			held += s.size[seq]
			if victim == liveNone || n < s.live[victim] || (n == s.live[victim] && seq < victim) {
				victim = seq
			}
		}
		if s.metaSeg != liveNone {
			live += int64(len(s.mem.meta) - s.mem.geom.BlockSize)
		}
		if victim == liveNone || held <= cleanFactor*live+s.maxBytes || held >= last {
			return nil
		}
		last = held
		if err := s.evacuateLocked(victim); err != nil {
			return err
		}
	}
}

// evacuateLocked re-appends every current record segment victim holds,
// from the image — the blocks as one run — leaving its live count zero.
// Callers hold s.mu.
func (s *SegStore) evacuateLocked(victim uint64) error {
	run := make([]Install, 0, s.live[victim])
	for i, seq := range s.liveSeg {
		if seq == victim {
			idx := block.Index(i)
			run = append(run, Install{Index: idx, Data: s.mem.blocks[idx], Version: block.Version(s.mem.versions[idx].Load())})
		}
	}
	if err := s.appendLocked(recBlock, run, nil); err != nil {
		return err
	}
	if s.metaSeg == victim {
		return s.appendLocked(recMeta, []Install{{Data: s.mem.meta}}, nil)
	}
	return nil
}

// openSegmentLocked creates segment seq, writes its header, and fsyncs
// the directory so the new name survives a crash. Callers hold s.mu
// (or are constructing the store).
func (s *SegStore) openSegmentLocked(seq uint64) error {
	path := filepath.Join(s.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("create segment: %w", err)
	}
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(s.mem.geom.BlockSize))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(s.mem.geom.NumBlocks))
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync segment header: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.active = f
	s.activeSeq = seq
	s.activeLen = segHeaderSize
	if _, ok := s.live[seq]; !ok {
		s.live[seq] = 0
	}
	return nil
}

// maxPayload bounds a record's length field: a block or a metadata
// area. A larger length is framing damage, not a record to read.
func (s *SegStore) maxPayload() int { return s.mem.geom.BlockSize + defaultMetaCap }

// segScanner frames the records of one segment file out of large
// sequential reads into a caller-owned buffer.
type segScanner struct {
	f          *os.File
	buf        []byte // at least two maximal records long
	r, w       int    // buf[r:w] is read and not yet consumed
	off        int64  // file offset of buf[r]
	eof        bool
	maxPayload uint32
}

// next returns the next record, header included, CRC-verified and
// aliasing the buffer until the following call; nil at a clean end of
// file. bad describes a short or damaged frame starting at sc.off.
func (sc *segScanner) next() (rec []byte, bad string, err error) {
	if err := sc.fill(recHeaderSize); err != nil {
		return nil, "", err
	}
	switch avail := sc.w - sc.r; {
	case avail == 0:
		return nil, "", nil
	case avail < recHeaderSize:
		return nil, "torn record header", nil
	}
	size := binary.LittleEndian.Uint32(sc.buf[sc.r+17:])
	if size > sc.maxPayload {
		return nil, fmt.Sprintf("implausible record length %d", size), nil
	}
	n := recHeaderSize + int(size)
	if err := sc.fill(n); err != nil {
		return nil, "", err
	}
	if sc.w-sc.r < n {
		return nil, "torn record payload", nil
	}
	rec = sc.buf[sc.r : sc.r+n]
	if crc32.ChecksumIEEE(rec[4:]) != binary.LittleEndian.Uint32(rec) {
		return nil, "checksum mismatch", nil
	}
	sc.r += n
	sc.off += int64(n)
	return rec, "", nil
}

// fill makes buf[r:w] hold at least need bytes (at most half the
// buffer) unless the file ends first.
func (sc *segScanner) fill(need int) error {
	if sc.w-sc.r >= need || sc.eof {
		return nil
	}
	sc.w = copy(sc.buf, sc.buf[sc.r:sc.w])
	sc.r = 0
	n, err := sc.f.ReadAt(sc.buf[sc.w:], sc.off+int64(sc.w))
	sc.w += n
	if err == io.EOF {
		sc.eof = true
	} else if err != nil {
		return fmt.Errorf("read segment: %w", err)
	}
	return nil
}

// replaySegment verifies every record of segment seq, streaming the
// file through buf, and installs each one whose slot no newer segment
// has claimed (see OpenSeg), under the image's lock of that slot (its
// stripe's, or the metadata's): workers replaying other segments race
// for it. It returns the offset just past the last intact record. A
// damaged record is a torn append when tornTailOK: the file is cut
// there and fsynced, and replay succeeds. Otherwise it is corruption.
func (s *SegStore) replaySegment(f *os.File, seq uint64, buf []byte, tornTailOK bool) replayed {
	name := filepath.Base(f.Name())
	sc := segScanner{f: f, buf: buf, off: segHeaderSize, maxPayload: uint32(s.maxPayload())}
	// current claims a slot unless a newer segment holds it.
	current := func(slot *uint64) bool {
		if *slot == liveNone || *slot < seq {
			*slot = seq
		}
		return *slot == seq
	}
	for {
		at := sc.off
		rec, bad, err := sc.next()
		if err != nil {
			return replayed{err: err}
		}
		if bad != "" {
			if !tornTailOK {
				return replayed{err: fmt.Errorf("%w: %s: %s at %d", ErrCorruptSegment, name, bad, at)}
			}
			if err := f.Truncate(at); err != nil {
				return replayed{err: fmt.Errorf("truncate torn tail: %w", err)}
			}
			if err := f.Sync(); err != nil {
				return replayed{err: fmt.Errorf("sync truncated tail: %w", err)}
			}
		}
		if rec == nil {
			return replayed{seq: seq, end: at}
		}
		payload := rec[recHeaderSize:]
		switch rec[4] {
		case recBlock:
			idx := block.Index(binary.LittleEndian.Uint32(rec[5:]))
			if err := checkWrite(s.mem.geom, idx, payload); err != nil {
				return replayed{err: fmt.Errorf("%w: %s: record at %d: %v", ErrCorruptSegment, name, at, err)}
			}
			l := &s.mem.stripes[block.Stripe(idx)]
			l.Lock()
			if current(&s.liveSeg[idx]) {
				copy(s.mem.blocks[idx], payload)
				s.mem.versions[idx].Store(binary.LittleEndian.Uint64(rec[9:]))
			}
			l.Unlock()
		case recMeta:
			s.mem.metaMu.Lock()
			if current(&s.metaSeg) {
				// An empty area is nil, as SaveMeta leaves it.
				if s.mem.meta = append(s.mem.meta[:0], payload...); len(payload) == 0 {
					s.mem.meta = nil
				}
			}
			s.mem.metaMu.Unlock()
		default:
			return replayed{err: fmt.Errorf("%w: %s: unknown record type %d at %d", ErrCorruptSegment, name, rec[4], at)}
		}
	}
}

func segmentName(seq uint64) string { return fmt.Sprintf("seg-%08d.log", seq) }

// segmentNames lists the segment files in dir in sequence order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("list segments: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if len(name) == len("seg-00000000.log") && name[:4] == "seg-" && filepath.Ext(name) == ".log" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// readSegHeader validates an open segment file's header, which must
// carry the sequence number the file is named for, and returns its
// geometry and that number.
func readSegHeader(f *os.File) (block.Geometry, uint64, error) {
	hdr := make([]byte, segHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return block.Geometry{}, 0, fmt.Errorf("read segment header: %w", err)
	}
	if string(hdr[:8]) != segMagic {
		return block.Geometry{}, 0, ErrBadImage
	}
	geom := block.Geometry{
		BlockSize: int(binary.LittleEndian.Uint32(hdr[8:])),
		NumBlocks: int(binary.LittleEndian.Uint32(hdr[12:])),
	}
	if err := geom.Validate(); err != nil {
		return block.Geometry{}, 0, fmt.Errorf("segment header: %w", err)
	}
	seq := binary.LittleEndian.Uint64(hdr[16:])
	if name := filepath.Base(f.Name()); name != segmentName(seq) {
		return block.Geometry{}, 0, fmt.Errorf("store: segment %s carries sequence %d in its header", name, seq)
	}
	return geom, seq, nil
}

// syncDir fsyncs a directory so entry creations and deletions inside
// it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}
