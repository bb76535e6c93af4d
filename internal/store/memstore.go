package store

import (
	"sync"
	"sync/atomic"

	"relidev/internal/block"
)

// MemStore is an in-memory Store. It is the storage used by simulations,
// tests and the in-process cluster; it still models *stable* storage —
// the simulated fail-stop crash halts the site process but deliberately
// leaves the MemStore contents intact, matching the paper's failure model.
// Writers store a block's data before its version, so a Read after a
// lock-free Version returns data at least that new.
type MemStore struct {
	mu       sync.RWMutex
	geom     block.Geometry
	blocks   [][]byte // one slot per block, carved from one allocation; Swap hands a slot's buffer out
	versions []atomic.Uint64
	meta     []byte
	closed   atomic.Bool
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
	m.mu.RLock()
	defer m.mu.RUnlock()
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
	m.mu.Lock()
	defer m.mu.Unlock()
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
	m.mu.Lock()
	defer m.mu.Unlock()
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

// Vector returns a copy of the full version vector.
func (m *MemStore) Vector() block.Vector {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v := block.NewVector(len(m.versions))
	for i := range v {
		v[i] = block.Version(m.versions[i].Load())
	}
	return v
}

// LoadMeta returns a copy of the metadata area.
func (m *MemStore) LoadMeta() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if m.meta == nil {
		return nil, nil
	}
	out := make([]byte, len(m.meta))
	copy(out, m.meta)
	return out, nil
}

// SaveMeta replaces the metadata area.
func (m *MemStore) SaveMeta(meta []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	m.meta = make([]byte, len(meta))
	copy(m.meta, meta)
	return nil
}

// Close marks the store closed.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed.Store(true)
	return nil
}
