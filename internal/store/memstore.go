package store

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"relidev/internal/block"
)

// MemStore is an in-memory Store. It is the storage used by simulations,
// tests and the in-process cluster; it still models *stable* storage —
// the simulated fail-stop crash halts the site process but deliberately
// leaves the MemStore contents intact, matching the paper's failure model.
// Writers store a block's data before its version, so a Read after a
// lock-free Version returns data at least that new.
// Operations on blocks of distinct stripes share no lock (DESIGN.md §7).
type MemStore struct {
	// stripes[block.Stripe(idx)] guards block idx's slot, each lock on
	// two cache lines of its own; whatever takes several stripes takes
	// them in ascending order. metaMu guards meta.
	stripes [block.OpStripes]struct {
		sync.RWMutex
		_ [128 - unsafe.Sizeof(sync.RWMutex{})]byte
	}
	metaMu   sync.RWMutex
	geom     block.Geometry
	blocks   [][]byte // one slot per block, carved from one allocation; Swap hands a slot's buffer out
	versions []atomic.Uint64
	meta     []byte
	closed   atomic.Bool
}

// lock write-locks the stripes in mask in ascending order; unlock
// releases them.
func (m *MemStore) lock(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		m.stripes[bits.TrailingZeros64(mask)].Lock()
	}
}

func (m *MemStore) unlock(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		m.stripes[bits.TrailingZeros64(mask)].Unlock()
	}
}

var _ Store = (*MemStore)(nil)

// NewMem returns an all-zero MemStore with the given geometry.
func NewMem(geom block.Geometry) (*MemStore, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	data, bs := make([]byte, geom.Size()), geom.BlockSize
	blocks := make([][]byte, geom.NumBlocks)
	for i := range blocks {
		blocks[i] = data[i*bs : (i+1)*bs : (i+1)*bs]
	}
	return &MemStore{
		geom:     geom,
		blocks:   blocks,
		versions: make([]atomic.Uint64, geom.NumBlocks),
	}, nil
}

// Geometry returns the device shape.
func (m *MemStore) Geometry() block.Geometry { return m.geom }

// Read returns a copy of block idx and its version.
func (m *MemStore) Read(idx block.Index) ([]byte, block.Version, error) {
	l := &m.stripes[block.Stripe(idx)]
	l.RLock()
	defer l.RUnlock()
	if m.closed.Load() {
		return nil, 0, ErrClosed
	}
	if err := checkAccess(m.geom, idx); err != nil {
		return nil, 0, err
	}
	// Cloned, not made and copied: make would zero the block first.
	return append([]byte(nil), m.blocks[idx]...), block.Version(m.versions[idx].Load()), nil
}

// Write replaces block idx with data at version ver.
func (m *MemStore) Write(idx block.Index, data []byte, ver block.Version) error {
	l := &m.stripes[block.Stripe(idx)]
	l.Lock()
	defer l.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	if err := checkWrite(m.geom, idx, data); err != nil {
		return err
	}
	copy(m.blocks[idx], data)
	m.versions[idx].Store(uint64(ver))
	return nil
}

// Swap installs buf itself as block idx (see the package func Swap).
func (m *MemStore) Swap(idx block.Index, buf []byte, ver block.Version) ([]byte, error) {
	l := &m.stripes[block.Stripe(idx)]
	l.Lock()
	defer l.Unlock()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if err := checkWrite(m.geom, idx, buf); err != nil {
		return nil, err
	}
	prev := m.blocks[idx]
	m.blocks[idx] = buf
	m.versions[idx].Store(uint64(ver))
	return prev, nil
}

// Version returns the version of block idx.
func (m *MemStore) Version(idx block.Index) (block.Version, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	if err := checkAccess(m.geom, idx); err != nil {
		return 0, err
	}
	return block.Version(m.versions[idx].Load()), nil
}

// Vector returns a copy of the full version vector, taken with every
// stripe held: no install is half done in it.
func (m *MemStore) Vector() block.Vector {
	m.lock(^uint64(0))
	v := block.NewVector(len(m.versions))
	for i := range v {
		v[i] = block.Version(m.versions[i].Load())
	}
	m.unlock(^uint64(0))
	return v
}

// LoadMeta returns a copy of the metadata area.
func (m *MemStore) LoadMeta() ([]byte, error) {
	m.metaMu.RLock()
	defer m.metaMu.RUnlock()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	return bytes.Clone(m.meta), nil
}

// SaveMeta replaces the metadata area.
func (m *MemStore) SaveMeta(meta []byte) error {
	m.metaMu.Lock()
	defer m.metaMu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	m.meta = make([]byte, len(meta))
	copy(m.meta, meta)
	return nil
}

// Close marks the store closed. It takes every lock, so once it returns
// every operation fails with ErrClosed.
func (m *MemStore) Close() error {
	m.lock(^uint64(0))
	m.metaMu.Lock()
	m.closed.Store(true)
	m.metaMu.Unlock()
	m.unlock(^uint64(0))
	return nil
}
