package store

import (
	"sync"

	"relidev/internal/block"
)

// MemStore is an in-memory Store. It is the storage used by simulations,
// tests and the in-process cluster; it still models *stable* storage —
// the simulated fail-stop crash halts the site process but deliberately
// leaves the MemStore contents intact, matching the paper's failure model.
type MemStore struct {
	mu       sync.RWMutex
	geom     block.Geometry
	data     []byte // NumBlocks contiguous blocks
	versions block.Vector
	meta     []byte
	closed   bool
}

var _ Store = (*MemStore)(nil)

// NewMem returns an all-zero MemStore with the given geometry.
func NewMem(geom block.Geometry) (*MemStore, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	return &MemStore{
		geom:     geom,
		data:     make([]byte, geom.Size()),
		versions: block.NewVector(geom.NumBlocks),
	}, nil
}

// Geometry returns the device shape.
func (m *MemStore) Geometry() block.Geometry { return m.geom }

// Read returns a copy of block idx and its version.
func (m *MemStore) Read(idx block.Index) ([]byte, block.Version, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, 0, ErrClosed
	}
	if err := checkAccess(m.geom, idx); err != nil {
		return nil, 0, err
	}
	// Cloned, not made and copied: make would zero the block first.
	return append([]byte(nil), m.slice(idx)...), m.versions[idx], nil
}

// ReadInto implements ReaderInto.
func (m *MemStore) ReadInto(idx block.Index, buf []byte) (block.Version, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, ErrClosed
	}
	if err := checkWrite(m.geom, idx, buf); err != nil {
		return 0, err
	}
	copy(buf, m.slice(idx))
	return m.versions[idx], nil
}

// Write replaces block idx with data at version ver.
func (m *MemStore) Write(idx block.Index, data []byte, ver block.Version) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if err := checkWrite(m.geom, idx, data); err != nil {
		return err
	}
	copy(m.slice(idx), data)
	m.versions[idx] = ver
	return nil
}

// Version returns the version of block idx.
func (m *MemStore) Version(idx block.Index) (block.Version, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, ErrClosed
	}
	if err := checkAccess(m.geom, idx); err != nil {
		return 0, err
	}
	return m.versions[idx], nil
}

// Vector returns a copy of the full version vector.
func (m *MemStore) Vector() block.Vector {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.versions.Clone()
}

// LoadMeta returns a copy of the metadata area.
func (m *MemStore) LoadMeta() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
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
	if m.closed {
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
	m.closed = true
	return nil
}

// slice returns the in-place storage for block idx. Callers hold m.mu.
func (m *MemStore) slice(idx block.Index) []byte {
	off := int64(idx) * int64(m.geom.BlockSize)
	return m.data[off : off+int64(m.geom.BlockSize)]
}
