// Package block defines the basic value types of the block-level
// replication model: block indices, per-block version numbers, and
// version vectors describing the state of a whole device.
//
// The paper (Carroll, Long, Pâris 1987, §2-3) replicates at the
// granularity of fixed-size device blocks. Every copy of a block carries a
// version number; a copy is current when its version number equals the
// maximum version number held by any site. A version vector records, for
// one site, the version number of every block it stores, and is the unit
// exchanged during recovery (Figure 5).
package block

import (
	"fmt"
	"strconv"
)

// Index identifies a block on the device, in [0, NumBlocks).
type Index uint32

// String implements fmt.Stringer.
func (i Index) String() string { return "blk" + strconv.FormatUint(uint64(i), 10) }

// Version is a per-block version number. Version numbers start at zero
// (the freshly formatted block) and increase by exactly one on each
// successful write (Figure 4: v <- max_i{v_i} + 1).
type Version uint64

// String implements fmt.Stringer.
func (v Version) String() string { return "v" + strconv.FormatUint(uint64(v), 10) }

// Geometry describes the shape of a block device.
type Geometry struct {
	// BlockSize is the size of every block in bytes.
	BlockSize int
	// NumBlocks is the number of blocks on the device.
	NumBlocks int
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.BlockSize <= 0 {
		return fmt.Errorf("block geometry: block size %d must be positive", g.BlockSize)
	}
	if g.NumBlocks <= 0 {
		return fmt.Errorf("block geometry: block count %d must be positive", g.NumBlocks)
	}
	return nil
}

// Size returns the device capacity in bytes.
func (g Geometry) Size() int64 { return int64(g.BlockSize) * int64(g.NumBlocks) }

// Contains reports whether idx addresses a block on a device with this
// geometry.
func (g Geometry) Contains(idx Index) bool { return int(idx) < g.NumBlocks }

// Vector is a version vector: the version number of every block held by
// one site. During recovery a comatose site sends its vector to an
// up-to-date site and receives back the correct vector together with the
// blocks that changed while it was down (Figure 5).
type Vector []Version

// NewVector returns an all-zero vector for a device with n blocks.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Get returns the version of block idx, or zero when idx is out of range.
// Out-of-range reads arise only when vectors of different geometry are
// compared, which callers guard against; zero is the safe default.
func (v Vector) Get(idx Index) Version {
	if int(idx) >= len(v) {
		return 0
	}
	return v[idx]
}

// Set records version ver for block idx. It is a no-op when idx is out of
// range.
func (v Vector) Set(idx Index, ver Version) {
	if int(idx) < len(v) {
		v[idx] = ver
	}
}

// Equal reports whether the two vectors are identical.
func (v Vector) Equal(other Vector) bool {
	if len(v) != len(other) {
		return false
	}
	for i := range v {
		if v[i] != other[i] {
			return false
		}
	}
	return true
}

// StaleAgainst returns the indices at which v is older than newer. These
// are exactly the blocks a recovering site must fetch.
func (v Vector) StaleAgainst(newer Vector) []Index {
	var stale []Index
	for i := range v {
		if i < len(newer) && v[i] < newer[i] {
			stale = append(stale, Index(i))
		}
	}
	return stale
}

// Sum returns the total of all version numbers. It is a convenient scalar
// proxy for "how current" a site is: for a single sequential writer the
// site with the maximal sum holds the most recent state. The recovery
// selection rules in Figures 5 and 6 ("let t: version(t) >= version(u)")
// compare sites by currency; Sum implements that comparison for
// whole-device state.
func (v Vector) Sum() uint64 {
	var total uint64
	for _, ver := range v {
		total += uint64(ver)
	}
	return total
}
