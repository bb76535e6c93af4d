// Package core assembles the paper's primary contribution: the *reliable
// device* (§1-2). A reliable device appears to the file system as an
// ordinary block-structured device but is implemented by server processes
// on several sites, each running one of the §3 consistency control
// algorithms. Because the device interface is the ordinary one, the file
// system — and everything above it — needs no modification.
package core

import (
	"context"
	"errors"
	"fmt"

	"relidev/internal/block"
	"relidev/internal/scheme"
	"relidev/internal/store"
)

// Device is the ordinary block-device interface (the role of the device
// driver stub in Figure 1 / the IPC interface in Figure 2). File systems
// are written against this interface only.
type Device interface {
	// Geometry returns the device shape.
	Geometry() block.Geometry
	// ReadBlock returns the contents of one block.
	ReadBlock(ctx context.Context, idx block.Index) ([]byte, error)
	// WriteBlock replaces the contents of one block. The payload must be
	// exactly one block long.
	WriteBlock(ctx context.Context, idx block.Index, data []byte) error
}

// LocalDevice is an ordinary, unreplicated device over a single store —
// the baseline the reliable device is measured against, and a handy
// backing for tests of file systems.
type LocalDevice struct {
	st store.Store
}

var _ Device = (*LocalDevice)(nil)

// NewLocalDevice wraps a store as a plain device.
func NewLocalDevice(st store.Store) *LocalDevice { return &LocalDevice{st: st} }

// Geometry implements Device.
func (d *LocalDevice) Geometry() block.Geometry { return d.st.Geometry() }

// ReadBlock implements Device.
func (d *LocalDevice) ReadBlock(ctx context.Context, idx block.Index) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, _, err := d.st.Read(idx)
	return data, err
}

// WriteBlock implements Device.
func (d *LocalDevice) WriteBlock(ctx context.Context, idx block.Index, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ver, err := d.st.Version(idx)
	if err != nil {
		return err
	}
	return d.st.Write(idx, data, ver+1)
}

// ReliableDevice is the paper's reliable device as seen from one site: an
// ordinary device whose reads and writes are mediated by a consistency
// controller. Every site of the cluster exposes its own ReliableDevice;
// a diskless workstation would talk to any of them (§2).
type ReliableDevice struct {
	geom block.Geometry
	ctrl scheme.Controller
}

var _ Device = (*ReliableDevice)(nil)

// NewReliableDevice wraps a consistency controller as a device.
func NewReliableDevice(geom block.Geometry, ctrl scheme.Controller) (*ReliableDevice, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if ctrl == nil {
		return nil, errors.New("core: reliable device requires a controller")
	}
	return &ReliableDevice{geom: geom, ctrl: ctrl}, nil
}

// Geometry implements Device.
func (d *ReliableDevice) Geometry() block.Geometry { return d.geom }

// ReadBlock implements Device.
func (d *ReliableDevice) ReadBlock(ctx context.Context, idx block.Index) ([]byte, error) {
	if !d.geom.Contains(idx) {
		return nil, fmt.Errorf("reliable device: read of %v beyond %d blocks", idx, d.geom.NumBlocks)
	}
	return d.ctrl.Read(ctx, idx)
}

// WriteBlock implements Device.
func (d *ReliableDevice) WriteBlock(ctx context.Context, idx block.Index, data []byte) error {
	if !d.geom.Contains(idx) {
		return fmt.Errorf("reliable device: write of %v beyond %d blocks", idx, d.geom.NumBlocks)
	}
	if len(data) != d.geom.BlockSize {
		return fmt.Errorf("reliable device: write of %d bytes, block size is %d", len(data), d.geom.BlockSize)
	}
	return d.ctrl.Write(ctx, idx, data)
}
