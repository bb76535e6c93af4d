// Package minifs is a small UNIX-like file system written purely against
// the core.Device block interface.
//
// It exists to demonstrate the paper's central architectural claim (§1-2):
// because the reliable device presents the interface of an ordinary
// block-structured device, the file system above it needs no modification
// whatsoever. minifs contains no mention of replication, sites, quorums
// or recovery — yet mounted on a reliable device it transparently
// survives site failures under any of the three consistency schemes, and
// mounted on a plain local device it is just a tiny file system.
//
// On-disk layout (all little endian):
//
//	block 0                superblock
//	blocks 1..B            block allocation bitmap (1 bit per block)
//	blocks B+1..B+I        inode table (64-byte inodes)
//	remaining blocks       file and directory data
//
// Inodes use 10 direct block pointers plus one single-indirect block.
// Directories are ordinary files holding fixed 32-byte entries.
package minifs

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"relidev/internal/block"
	"relidev/internal/core"
)

// Errors reported by the file system.
var (
	// ErrNotFormatted is returned by Mount when the device does not hold
	// a minifs image.
	ErrNotFormatted = errors.New("minifs: device is not formatted")
	// ErrExist is returned when creating a name that already exists.
	ErrExist = errors.New("minifs: file exists")
	// ErrNotExist is returned when a path component is missing.
	ErrNotExist = errors.New("minifs: no such file or directory")
	// ErrNotDir is returned when a path component is not a directory.
	ErrNotDir = errors.New("minifs: not a directory")
	// ErrIsDir is returned by file operations applied to a directory.
	ErrIsDir = errors.New("minifs: is a directory")
	// ErrDirNotEmpty is returned when removing a non-empty directory.
	ErrDirNotEmpty = errors.New("minifs: directory not empty")
	// ErrNoSpace is returned when the device or inode table is full.
	ErrNoSpace = errors.New("minifs: no space left on device")
	// ErrFileTooBig is returned when a write exceeds the maximum mappable
	// file size.
	ErrFileTooBig = errors.New("minifs: file too large")
	// ErrBadPath is returned for malformed paths or names.
	ErrBadPath = errors.New("minifs: invalid path")
)

const (
	magic         = 0x4D494E46 // "MINF"
	inodeSize     = 64
	direct        = 10
	maxNameLen    = 27
	dirEntrySize  = 32
	rootInode     = 1
	minBlockSize  = 128
	typeFree      = 0
	typeFile      = 1
	typeDirectory = 2
)

// superblock is block 0.
type superblock struct {
	Magic        uint32
	BlockSize    uint32
	NumBlocks    uint32
	BitmapStart  uint32
	BitmapBlocks uint32
	InodeStart   uint32
	InodeBlocks  uint32
	InodeCount   uint32
	DataStart    uint32
}

const superblockLen = 9 * 4

func (sb *superblock) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], sb.Magic)
	le.PutUint32(buf[4:], sb.BlockSize)
	le.PutUint32(buf[8:], sb.NumBlocks)
	le.PutUint32(buf[12:], sb.BitmapStart)
	le.PutUint32(buf[16:], sb.BitmapBlocks)
	le.PutUint32(buf[20:], sb.InodeStart)
	le.PutUint32(buf[24:], sb.InodeBlocks)
	le.PutUint32(buf[28:], sb.InodeCount)
	le.PutUint32(buf[32:], sb.DataStart)
}

func (sb *superblock) decode(buf []byte) error {
	if len(buf) < superblockLen {
		return ErrNotFormatted
	}
	le := binary.LittleEndian
	sb.Magic = le.Uint32(buf[0:])
	sb.BlockSize = le.Uint32(buf[4:])
	sb.NumBlocks = le.Uint32(buf[8:])
	sb.BitmapStart = le.Uint32(buf[12:])
	sb.BitmapBlocks = le.Uint32(buf[16:])
	sb.InodeStart = le.Uint32(buf[20:])
	sb.InodeBlocks = le.Uint32(buf[24:])
	sb.InodeCount = le.Uint32(buf[28:])
	sb.DataStart = le.Uint32(buf[32:])
	if sb.Magic != magic {
		return ErrNotFormatted
	}
	return nil
}

// FS is a mounted file system.
type FS struct {
	dev core.Device
	sb  superblock

	// mu serialises metadata operations; minifs is a teaching-scale file
	// system and takes a single big lock.
	mu sync.Mutex
}

// Mkfs formats the device with an empty file system and returns it
// mounted. Everything previously on the device is lost.
func Mkfs(ctx context.Context, dev core.Device) (*FS, error) {
	geom := dev.Geometry()
	if geom.BlockSize < minBlockSize {
		return nil, fmt.Errorf("minifs: block size %d below minimum %d", geom.BlockSize, minBlockSize)
	}
	nb := uint32(geom.NumBlocks)
	bs := uint32(geom.BlockSize)
	bitmapBlocks := (nb + bs*8 - 1) / (bs * 8)
	inodeCount := nb / 4
	if inodeCount < 16 {
		inodeCount = 16
	}
	inodesPerBlock := bs / inodeSize
	inodeBlocks := (inodeCount + inodesPerBlock - 1) / inodesPerBlock
	inodeCount = inodeBlocks * inodesPerBlock
	sb := superblock{
		Magic:        magic,
		BlockSize:    bs,
		NumBlocks:    nb,
		BitmapStart:  1,
		BitmapBlocks: bitmapBlocks,
		InodeStart:   1 + bitmapBlocks,
		InodeBlocks:  inodeBlocks,
		InodeCount:   inodeCount,
		DataStart:    1 + bitmapBlocks + inodeBlocks,
	}
	if sb.DataStart >= nb {
		return nil, fmt.Errorf("minifs: device too small: %d blocks, %d needed for metadata", nb, sb.DataStart+1)
	}
	fs := &FS{dev: dev, sb: sb}

	// Zero the metadata blocks.
	zero := make([]byte, bs)
	for b := uint32(0); b < sb.DataStart; b++ {
		if err := dev.WriteBlock(ctx, block.Index(b), zero); err != nil {
			return nil, fmt.Errorf("minifs: format block %d: %w", b, err)
		}
	}
	// Superblock.
	buf := make([]byte, bs)
	sb.encode(buf)
	if err := dev.WriteBlock(ctx, 0, buf); err != nil {
		return nil, fmt.Errorf("minifs: write superblock: %w", err)
	}
	// Mark metadata blocks used.
	for b := uint32(0); b < sb.DataStart; b++ {
		if err := fs.setBitmap(ctx, b, true); err != nil {
			return nil, err
		}
	}
	// Root directory.
	root := inode{Type: typeDirectory, Nlink: 1}
	if err := fs.writeInode(ctx, rootInode, &root); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount opens an existing file system on the device.
func Mount(ctx context.Context, dev core.Device) (*FS, error) {
	buf, err := dev.ReadBlock(ctx, 0)
	if err != nil {
		return nil, fmt.Errorf("minifs: read superblock: %w", err)
	}
	var sb superblock
	if err := sb.decode(buf); err != nil {
		return nil, err
	}
	geom := dev.Geometry()
	if sb.BlockSize != uint32(geom.BlockSize) || sb.NumBlocks != uint32(geom.NumBlocks) {
		return nil, fmt.Errorf("minifs: image geometry %dx%d does not match device %dx%d: %w",
			sb.BlockSize, sb.NumBlocks, geom.BlockSize, geom.NumBlocks, ErrNotFormatted)
	}
	return &FS{dev: dev, sb: sb}, nil
}

// MaxFileSize returns the largest representable file in bytes.
func (fs *FS) MaxFileSize() int64 {
	bs := int64(fs.sb.BlockSize)
	return (direct + bs/4) * bs
}
