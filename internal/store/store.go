// Package store provides versioned block storage for a replica site.
//
// Each site participating in the replication holds a full copy of the
// device: for every block, the data plus the per-block version number the
// consistency algorithms rely on (paper §3). Stores model *stable*
// storage: their contents survive a fail-stop crash of the site (the site
// process halts, the disk does not lose data), which is exactly the
// failure model of §2 and [11].
//
// Three implementations are provided: MemStore (fast, for simulation
// and tests), FileStore (a single backing file with in-place block
// slots), and SegStore (checksummed append-only segment files with an
// in-memory image — the fast write path for real server processes).
// All offer a small metadata area used by the available copy scheme to
// persist its was-available set across crashes. Batcher layers group
// commit over any of them, coalescing concurrent writes into a single
// apply+fsync.
//
// The package funcs WriteRun and Swap reach what not every store has;
// any other store gets the same result from Write and Read.
package store

import (
	"errors"
	"fmt"

	"relidev/internal/block"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// OutOfRangeError reports an access outside the device geometry.
type OutOfRangeError struct {
	Index     block.Index
	NumBlocks int
}

// Error implements the error interface.
func (e *OutOfRangeError) Error() string {
	return fmt.Sprintf("store: block %d out of range (device has %d blocks)", e.Index, e.NumBlocks)
}

// SizeError reports a write whose payload does not match the block size.
type SizeError struct {
	Got, Want int
}

// Error implements the error interface.
func (e *SizeError) Error() string {
	return fmt.Sprintf("store: payload is %d bytes, block size is %d", e.Got, e.Want)
}

// Store is stable versioned block storage for one site.
//
// Implementations must be safe for concurrent use: a site serves local
// file system requests and remote protocol requests at the same time.
type Store interface {
	// Geometry returns the device shape.
	Geometry() block.Geometry

	// Read returns the data and version of block idx. The returned slice
	// is a copy owned by the caller.
	Read(idx block.Index) ([]byte, block.Version, error)

	// Write replaces block idx with data at version ver. Payloads shorter
	// than the block size are rejected; the caller pads.
	Write(idx block.Index, data []byte, ver block.Version) error

	// Version returns the version of block idx without reading the data.
	Version(idx block.Index) (block.Version, error)

	// Vector returns a copy of the full version vector.
	Vector() block.Vector

	// LoadMeta returns the scheme metadata area (nil when never written).
	LoadMeta() ([]byte, error)

	// SaveMeta atomically replaces the scheme metadata area.
	SaveMeta(meta []byte) error

	// Close releases resources. Further operations fail with ErrClosed.
	Close() error
}

// Install is one block write of a run: block Index holds Data at
// Version.
type Install struct {
	Index   block.Index
	Data    []byte
	Version block.Version
}

// WriteRun writes ins to st in order, as that many Writes would. A store
// with its own WriteRun takes the run whole (SegStore: one append;
// Batcher: one group commit); any other — FileStore, MemStore, a
// decorator — gets one Write per install up to the first error. Like
// Swap, the method stays out of Store only because benchmark/
// implements Store; folding both in is the follow-up.
func WriteRun(st Store, ins []Install) error {
	if rw, ok := st.(interface{ WriteRun([]Install) error }); ok {
		return rw.WriteRun(ins)
	}
	for _, in := range ins {
		if err := st.Write(in.Index, in.Data, in.Version); err != nil {
			return err
		}
	}
	return nil
}

// Swap installs buf as block idx at version ver and returns the bytes it
// displaced. A store with its own Swap (MemStore, SegStore, Batcher)
// keeps buf itself and hands back the buffer that held the block; any
// other gets a Read and a Write. prev is non-nil exactly when buf was
// installed: the store then owns buf and the caller prev, even when a
// Batcher's Sync then fails and err says so. On a nil prev buf stays
// the caller's.
func Swap(st Store, idx block.Index, buf []byte, ver block.Version) (prev []byte, err error) {
	if sw, ok := st.(interface {
		Swap(block.Index, []byte, block.Version) ([]byte, error)
	}); ok {
		return sw.Swap(idx, buf, ver)
	}
	prev, _, err = st.Read(idx)
	if err != nil {
		return nil, err
	}
	if err := st.Write(idx, buf, ver); err != nil {
		return nil, err
	}
	return prev, nil
}

func checkAccess(g block.Geometry, idx block.Index) error {
	if !g.Contains(idx) {
		return &OutOfRangeError{Index: idx, NumBlocks: g.NumBlocks}
	}
	return nil
}

func checkWrite(g block.Geometry, idx block.Index, data []byte) error {
	if err := checkAccess(g, idx); err != nil {
		return err
	}
	if len(data) != g.BlockSize {
		return &SizeError{Got: len(data), Want: g.BlockSize}
	}
	return nil
}
