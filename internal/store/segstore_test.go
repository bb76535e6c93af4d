package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"relidev/internal/block"
)

// smallSegs rotates early so a handful of writes exercises sealing,
// directory syncs, and dead-segment collection.
func smallSegs(t *testing.T, g block.Geometry) (*SegStore, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "segs")
	s, err := CreateSeg(dir, g, WithMaxSegmentBytes(512))
	if err != nil {
		t.Fatalf("CreateSeg: %v", err)
	}
	return s, dir
}

// reaped waits for s's reapers, so that its directory holds exactly
// the segments it counts. No call may be in flight on s.
func reaped(s *SegStore) { s.reapers.Wait() }

func TestSegStorePersistsAcrossReopen(t *testing.T) {
	s, dir := smallSegs(t, testGeom)
	for i := 0; i < 40; i++ {
		idx := block.Index(i % testGeom.NumBlocks)
		if err := s.Write(idx, fill(byte(i), testGeom.BlockSize), block.Version(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveMeta([]byte("meta!")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSeg(dir)
	if err != nil {
		t.Fatalf("OpenSeg: %v", err)
	}
	defer re.Close()
	if re.Geometry() != testGeom {
		t.Fatalf("reopened geometry = %+v, want %+v", re.Geometry(), testGeom)
	}
	for i := 40 - testGeom.NumBlocks; i < 40; i++ {
		idx := block.Index(i % testGeom.NumBlocks)
		data, ver, err := re.Read(idx)
		if err != nil || ver != block.Version(i) || !bytes.Equal(data, fill(byte(i), testGeom.BlockSize)) {
			t.Fatalf("block %d after reopen: ver %v err %v", idx, ver, err)
		}
	}
	meta, err := re.LoadMeta()
	if err != nil || string(meta) != "meta!" {
		t.Fatalf("meta after reopen = %q, %v", meta, err)
	}

	// Writes must keep working in the reopened store (the active
	// segment is appendable again).
	if err := re.Write(0, fill(0xEE, testGeom.BlockSize), 99); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
	if _, ver, _ := re.Read(0); ver != 99 {
		t.Fatalf("version after reopen write = %v, want 99", ver)
	}
}

func TestSegStoreRotationCollectsDeadSegments(t *testing.T) {
	s, dir := smallSegs(t, testGeom)
	defer s.Close()
	// Hammer a single block: every rotation strands a segment full of
	// superseded records, which the next rotation must delete.
	for i := 0; i < 200; i++ {
		if err := s.Write(3, fill(byte(i), testGeom.BlockSize), block.Version(i)); err != nil {
			t.Fatal(err)
		}
	}
	reaped(s)
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) > 3 {
		t.Fatalf("%d segments survive a single-block workload, want <= 3 (dead segments not collected)", len(names))
	}
}

// TestSegCloseWaitsForReaper closes a store right after a rotation that
// handed dead segments to a reaper, which may still be unlinking them.
// Once Close returns, the directory must hold exactly the segments the
// store counts, none that a reaper was handed, and a reopen must rebuild
// the image.
func TestSegCloseWaitsForReaper(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, dir := smallSegs(t, testGeom)
		for i := 0; i < testGeom.NumBlocks; i++ {
			if err := s.Write(block.Index(i), fill(byte(i), testGeom.BlockSize), 1); err != nil {
				t.Fatal(err)
			}
		}
		// Block 3 alone: each rotation strands a segment of its history.
		for ver, rotations := block.Version(2), 0; rotations < 4+round%4; ver++ {
			seq := s.activeSeq
			if err := s.Write(3, fill(byte(ver), testGeom.BlockSize), ver); err != nil {
				t.Fatal(err)
			}
			if s.activeSeq != seq {
				rotations++
			}
		}
		var counted []string
		for seq := range s.live {
			counted = append(counted, segmentName(seq))
		}
		sort.Strings(counted)
		want := imageOf(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := segmentNames(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(names, counted) {
			t.Fatalf("round %d: Close left segments %v, the store counts %v", round, names, counted)
		}
		re, err := OpenSeg(dir)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		if imageOf(re) != want {
			t.Fatalf("round %d: the reopened image differs from the closed store's", round)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegStoreCrashRecovery simulates a torn append: the tail of the
// active segment is cut mid-record, as a crash during write would
// leave it. Reopen must truncate the tail and recover every record
// before it.
func TestSegStoreCrashRecovery(t *testing.T) {
	s, dir := smallSegs(t, testGeom)
	for i := 0; i < 10; i++ {
		if err := s.Write(block.Index(i), fill(byte(i+1), testGeom.BlockSize), block.Version(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop 7 bytes off the newest segment.
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, names[len(names)-1])
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSeg(dir)
	if err != nil {
		t.Fatalf("OpenSeg after torn tail: %v", err)
	}
	defer re.Close()
	// The torn record is gone; every earlier record survives. The torn
	// write was never acked as durable (no Sync covered it), so losing
	// it is the contract, not data loss.
	sawTorn := 0
	for i := 0; i < 10; i++ {
		data, ver, err := re.Read(block.Index(i))
		if err != nil {
			t.Fatal(err)
		}
		if ver == 0 {
			sawTorn++
			continue
		}
		if ver != block.Version(i+1) || !bytes.Equal(data, fill(byte(i+1), testGeom.BlockSize)) {
			t.Fatalf("block %d after recovery: ver %v", i, ver)
		}
	}
	if sawTorn > 1 {
		t.Fatalf("%d blocks lost, a torn tail can only lose the final record", sawTorn)
	}

	// Recovery must leave the store writable and re-reopenable.
	if err := re.Write(2, fill(0xAA, testGeom.BlockSize), 50); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenSeg(dir)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer again.Close()
	if _, ver, _ := again.Read(2); ver != 50 {
		t.Fatalf("post-recovery write lost: ver = %v, want 50", ver)
	}
}

func TestSegStoreCrashRecoveryChecksumTail(t *testing.T) {
	s, dir := smallSegs(t, testGeom)
	if err := s.Write(0, fill(1, testGeom.BlockSize), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, fill(2, testGeom.BlockSize), 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of the final record: the frame is intact
	// but the CRC no longer matches, as a partial sector write would
	// leave it.
	names, _ := segmentNames(dir)
	last := filepath.Join(dir, names[len(names)-1])
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(last, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSeg(dir)
	if err != nil {
		t.Fatalf("OpenSeg after checksum damage: %v", err)
	}
	defer re.Close()
	if _, ver, _ := re.Read(0); ver != 1 {
		t.Fatalf("intact record lost: block 0 ver = %v, want 1", ver)
	}
	if _, ver, _ := re.Read(1); ver != 0 {
		t.Fatalf("damaged record survived: block 1 ver = %v, want 0", ver)
	}
}

func TestSegStoreRejectsMidLogCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	s, err := CreateSeg(dir, testGeom, WithMaxSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	// Enough writes to span several segments.
	for i := 0; i < 30; i++ {
		if err := s.Write(block.Index(i%testGeom.NumBlocks), fill(byte(i), testGeom.BlockSize), block.Version(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segmentNames(dir)
	if len(names) < 2 {
		t.Fatalf("workload produced %d segments, need >= 2", len(names))
	}
	// Damage a record in the FIRST segment: that is corruption, not a
	// torn tail, and replay must refuse rather than silently drop
	// history.
	first := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+recHeaderSize] ^= 0xFF
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSeg(dir); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("OpenSeg on mid-log corruption = %v, want ErrCorruptSegment", err)
	}
}

func TestSegStoreRecordFraming(t *testing.T) {
	// Pin the on-disk record layout: crc[4] type[1] idx[4] ver[8]
	// len[4] payload. A layout change breaks every existing store.
	s, dir := smallSegs(t, testGeom)
	payload := fill(0x5A, testGeom.BlockSize)
	if err := s.Write(7, payload, 9); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	rec := raw[segHeaderSize:]
	if len(rec) != recHeaderSize+testGeom.BlockSize {
		t.Fatalf("record is %d bytes, want %d", len(rec), recHeaderSize+testGeom.BlockSize)
	}
	if got := crc32.ChecksumIEEE(rec[4:]); got != binary.LittleEndian.Uint32(rec[:4]) {
		t.Fatal("stored CRC does not cover type..payload")
	}
	if rec[4] != recBlock {
		t.Fatalf("record type = %d, want %d", rec[4], recBlock)
	}
	if got := binary.LittleEndian.Uint32(rec[5:]); got != 7 {
		t.Fatalf("record idx = %d, want 7", got)
	}
	if got := binary.LittleEndian.Uint64(rec[9:]); got != 9 {
		t.Fatalf("record ver = %d, want 9", got)
	}
	if got := binary.LittleEndian.Uint32(rec[17:]); got != uint32(testGeom.BlockSize) {
		t.Fatalf("record len = %d, want %d", got, testGeom.BlockSize)
	}
	if !bytes.Equal(rec[recHeaderSize:], payload) {
		t.Fatal("record payload differs from written block")
	}
}

func TestOpenSegRejectsEmptyAndForeignDirs(t *testing.T) {
	if _, err := OpenSeg(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("OpenSeg accepted a missing directory")
	}
	empty := t.TempDir()
	if _, err := OpenSeg(empty); err == nil {
		t.Fatal("OpenSeg accepted an empty directory")
	}
	junk := t.TempDir()
	if err := os.WriteFile(filepath.Join(junk, segmentName(0)), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSeg(junk); err == nil {
		t.Fatal("OpenSeg accepted a garbage segment file")
	}
}

func TestCreateSegRefusesNonEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	s, err := CreateSeg(dir, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := CreateSeg(dir, testGeom); err == nil {
		t.Fatal("CreateSeg clobbered an existing store")
	}
}

func TestSegStoreManySegmentsSortStable(t *testing.T) {
	// Rotation past ten segments exercises name ordering (a naive
	// lexical sort of unpadded numbers would replay out of order).
	dir := filepath.Join(t.TempDir(), "segs")
	s, err := CreateSeg(dir, testGeom, WithMaxSegmentBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		idx := block.Index(i % 4) // few blocks, so most segments die
		if err := s.Write(idx, fill(byte(i), testGeom.BlockSize), block.Version(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSeg(dir)
	if err != nil {
		t.Fatalf("OpenSeg: %v", err)
	}
	defer re.Close()
	for i := 56; i < 60; i++ {
		idx := block.Index(i % 4)
		data, ver, err := re.Read(idx)
		if err != nil || ver != block.Version(i+1) {
			t.Fatalf("block %d = ver %v err %v, want %d", idx, ver, err, i+1)
		}
		if !bytes.Equal(data, fill(byte(i), testGeom.BlockSize)) {
			t.Fatalf("block %d data mismatch", idx)
		}
	}
}

func ExampleSegStore() {
	dir, _ := os.MkdirTemp("", "segstore")
	defer os.RemoveAll(dir)
	g := block.Geometry{BlockSize: 16, NumBlocks: 4}
	s, _ := CreateSeg(filepath.Join(dir, "dev"), g)
	_ = s.Write(1, []byte("0123456789abcdef"), 1)
	_ = s.Sync()
	_ = s.Close()
	re, _ := OpenSeg(filepath.Join(dir, "dev"))
	defer re.Close()
	data, ver, _ := re.Read(1)
	fmt.Printf("ver %d: %s\n", ver, data)
	// Output: ver 1: 0123456789abcdef
}
