package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"relidev/internal/block"
)

// refImage is what an open must rebuild: the image and the liveness
// accounting rotation-time GC works from.
type refImage struct {
	data    []byte
	vers    block.Vector
	meta    []byte
	liveSeg []uint64
	metaSeg uint64
	live    map[uint64]int
	// bounds are each segment's record boundaries, the end of its
	// header first and the end of its last intact record last; end is
	// the final segment's last one.
	bounds map[string][]int64
	end    int64
}

// refReplay is the reference OpenSeg is held to: whole files, oldest
// segment first, every record applied, liveness moved record by
// record. It stops at the first damaged frame of the final segment,
// passes over a final segment too short to hold a header, and fails the
// test on damage anywhere else.
func refReplay(t testing.TB, dir string) refImage {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ref refImage
	var geom block.Geometry
	for i, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < segHeaderSize && i > 0 && i == len(names)-1 {
			break
		}
		if i == 0 {
			geom = block.Geometry{
				BlockSize: int(binary.LittleEndian.Uint32(raw[8:])),
				NumBlocks: int(binary.LittleEndian.Uint32(raw[12:])),
			}
			ref = refImage{
				data:    make([]byte, geom.Size()),
				vers:    block.NewVector(geom.NumBlocks),
				liveSeg: make([]uint64, geom.NumBlocks),
				metaSeg: liveNone,
				live:    map[uint64]int{},
				bounds:  map[string][]int64{},
			}
			for b := range ref.liveSeg {
				ref.liveSeg[b] = liveNone
			}
		}
		seq := binary.LittleEndian.Uint64(raw[16:])
		ref.live[seq] += 0 // a segment with nothing live still has an entry
		move := func(slot *uint64) {
			if *slot != liveNone {
				ref.live[*slot]--
			}
			*slot = seq
			ref.live[seq]++
		}
		off := segHeaderSize
		ref.bounds[name] = []int64{int64(off)}
		for off < len(raw) {
			rec := raw[off:]
			intact := len(rec) >= recHeaderSize
			if intact {
				n := recHeaderSize + int64(binary.LittleEndian.Uint32(rec[17:]))
				if intact = n <= int64(len(rec)); intact {
					rec = rec[:n]
					intact = crc32.ChecksumIEEE(rec[4:]) == binary.LittleEndian.Uint32(rec)
				}
			}
			if !intact {
				if i != len(names)-1 {
					t.Fatalf("reference replay: damaged record in sealed %s at %d", name, off)
				}
				break
			}
			payload := rec[recHeaderSize:]
			switch rec[4] {
			case recBlock:
				idx := int(binary.LittleEndian.Uint32(rec[5:]))
				copy(ref.data[idx*geom.BlockSize:], payload)
				ref.vers[idx] = block.Version(binary.LittleEndian.Uint64(rec[9:]))
				move(&ref.liveSeg[idx])
			case recMeta:
				ref.meta = append([]byte(nil), payload...)
				move(&ref.metaSeg)
			default:
				t.Fatalf("reference replay: record type %d in %s at %d", rec[4], name, off)
			}
			off += len(rec)
			ref.bounds[name] = append(ref.bounds[name], int64(off))
		}
		ref.end = int64(off)
	}
	return ref
}

// checkAgainst compares an opened store with the reference replay of
// the directory it was opened from.
func (ref refImage) checkAgainst(t testing.TB, s *SegStore) {
	t.Helper()
	if !bytes.Equal(imageData(s.mem), ref.data) {
		t.Fatal("image data differs from in-order replay")
	}
	if vers := s.mem.Vector(); !reflect.DeepEqual(vers, ref.vers) {
		t.Fatalf("versions %v, in-order replay gives %v", vers, ref.vers)
	}
	if !bytes.Equal(s.mem.meta, ref.meta) || (s.mem.meta == nil) != (ref.meta == nil) {
		t.Fatalf("meta %q, in-order replay gives %q", s.mem.meta, ref.meta)
	}
	if !reflect.DeepEqual(s.liveSeg, ref.liveSeg) || s.metaSeg != ref.metaSeg {
		t.Fatalf("liveSeg %v meta %d, in-order replay gives %v meta %d", s.liveSeg, s.metaSeg, ref.liveSeg, ref.metaSeg)
	}
	if !reflect.DeepEqual(s.live, ref.live) {
		t.Fatalf("live counts %v, in-order replay gives %v", s.live, ref.live)
	}
	if s.activeLen != ref.end {
		t.Fatalf("active segment length %d, last intact record ends at %d", s.activeLen, ref.end)
	}
}

func readDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = raw
	}
	return files
}

// TestSegReplayEquivalence drives seeded random histories — overwrites,
// version-lowering rewrites (what an aborted write's restore looks
// like), metadata saves — through two stores fed the same calls, and
// reopens one of them at random points. Each reopen must rebuild what
// the in-test model and the in-order reference replay say, liveness
// included; and since the twin that is never reopened keeps its
// liveness from append-time accounting alone, the two directories must
// go on holding the same files through every later rotation. Twelve
// blocks in segments of a handful of records make the log cleaner fire
// every few rotations, so that check also pins "a reopened store makes
// the cleaner's decisions".
func TestSegReplayEquivalence(t *testing.T) {
	geom := block.Geometry{BlockSize: 24, NumBlocks: 12}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opt := WithMaxSegmentBytes(int64(200 + rng.Intn(600)))
			dir := filepath.Join(t.TempDir(), "reopened")
			s, err := CreateSeg(dir, geom, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			twinDir := filepath.Join(t.TempDir(), "twin")
			twin, err := CreateSeg(twinDir, geom, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()

			data := make([][]byte, geom.NumBlocks)
			for i := range data {
				data[i] = make([]byte, geom.BlockSize)
			}
			vers := block.NewVector(geom.NumBlocks)
			var meta []byte
			cleanings := 0
			both := func(op func(*SegStore) error) {
				t.Helper()
				before := append([]uint64(nil), twin.liveSeg...)
				for _, st := range []*SegStore{s, twin} {
					if err := op(st); err != nil {
						t.Fatal(err)
					}
				}
				if cleaned(before, twin) {
					cleanings++
				}
			}
			reopens := 0
			for step := 0; step < 600; step++ {
				switch p := rng.Intn(100); {
				case p < 75:
					idx := rng.Intn(geom.NumBlocks)
					if rng.Intn(5) == 0 && vers[idx] > 0 {
						vers[idx] -= block.Version(1 + rng.Intn(int(vers[idx])))
					} else {
						vers[idx] += block.Version(1 + rng.Intn(3))
					}
					rng.Read(data[idx])
					both(func(st *SegStore) error { return st.Write(block.Index(idx), data[idx], vers[idx]) })
				case p < 90:
					meta = make([]byte, rng.Intn(40))
					rng.Read(meta)
					if len(meta) == 0 {
						meta = nil
					}
					both(func(st *SegStore) error { return st.SaveMeta(meta) })
				default:
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					ref := refReplay(t, dir)
					if s, err = OpenSeg(dir, opt); err != nil {
						t.Fatalf("step %d: OpenSeg: %v", step, err)
					}
					reopens++
					ref.checkAgainst(t, s)
					for i := range data {
						got, ver, err := s.Read(block.Index(i))
						if err != nil || ver != vers[i] || !bytes.Equal(got, data[i]) {
							t.Fatalf("step %d: block %d reopened at version %d (err %v), model has %d", step, i, ver, err, vers[i])
						}
					}
					if got, err := s.LoadMeta(); err != nil || !bytes.Equal(got, meta) {
						t.Fatalf("step %d: meta reopened as %q (err %v), model has %q", step, got, err, meta)
					}
				}
				if !reflect.DeepEqual(s.live, twin.live) {
					t.Fatalf("step %d: live counts %v after %d reopens, never-reopened twin has %v", step, s.live, reopens, twin.live)
				}
			}
			if reopens == 0 {
				t.Fatal("history never reopened the store")
			}
			if cleanings == 0 {
				t.Fatal("history never made the cleaner copy more than one block")
			}
			both(func(st *SegStore) error { return st.Close() })
			if got, want := readDir(t, dir), readDir(t, twinDir); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened store holds %d segment files, never-reopened twin %d, or their contents differ", len(got), len(want))
			}
		})
	}
}

// TestSegTornTailEnumeration damages the last two records of a segment
// in every way a crash mid-append can — the file cut at each byte, each
// byte flipped — and requires of the final segment exactly the prefix
// of intact records, the file cut at a record boundary, and a second
// open that changes nothing; and of a sealed segment ErrCorruptSegment,
// superseded though the damaged records are. Large geometries sample
// the payload offsets.
func TestSegTornTailEnumeration(t *testing.T) {
	cases := []struct {
		name     string
		geom     block.Geometry
		perSeg   int // records per segment; rotation happens exactly there
		stride   int // offsets tried are this far apart (at most 3 inside a record header)
		metaLast bool
	}{
		{name: "small", geom: block.Geometry{BlockSize: 32, NumBlocks: 4}, perSeg: 6, stride: 1, metaLast: true},
		// Record 254 of a segment lies across the end of the first
		// 1 MiB buffer fill; 256 records make it the last but one.
		{name: "straddles-refill", geom: block.Geometry{BlockSize: 4096, NumBlocks: 8}, perSeg: 256, stride: 509},
		// One record is larger than replayBufBytes.
		{name: "record-exceeds-buffer", geom: block.Geometry{BlockSize: replayBufBytes + 512, NumBlocks: 2}, perSeg: 2, stride: 262139},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.stride > 1 {
				t.Skip("multi-megabyte logs")
			}
			recSize := recHeaderSize + tc.geom.BlockSize
			opt := WithMaxSegmentBytes(int64(segHeaderSize + tc.perSeg*recSize))
			dir := filepath.Join(t.TempDir(), "segs")
			s, err := CreateSeg(dir, tc.geom, opt)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			payload := make([]byte, tc.geom.BlockSize)
			for i := 0; i < 2*tc.perSeg; i++ {
				// Block 0 is written once, so the sealed segment
				// stays live while all its other records die.
				idx := i
				if i >= tc.geom.NumBlocks {
					idx = 1 + i%(tc.geom.NumBlocks-1)
				}
				rng.Read(payload)
				if i == 2*tc.perSeg-1 && tc.metaLast {
					err = s.SaveMeta(payload[:9])
				} else {
					err = s.Write(block.Index(idx), payload, block.Version(i+1))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			pristine := readDir(t, dir)
			if len(pristine) != 2 {
				t.Fatalf("history left %d segments, want a sealed and a final one", len(pristine))
			}
			sealed, final := segmentName(0), segmentName(1)
			intact := refReplay(t, dir)
			restore := func(name string, raw []byte) {
				t.Helper()
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			for _, name := range []string{final, sealed} {
				bounds := intact.bounds[name]
				if len(bounds) != tc.perSeg+1 {
					t.Fatalf("%s holds %d records, want %d", name, len(bounds)-1, tc.perSeg)
				}
				first, end := bounds[len(bounds)-3], bounds[len(bounds)-1]
				var offsets []int64
				for _, start := range bounds[len(bounds)-3 : len(bounds)-1] {
					for o := start; o < start+recHeaderSize; o += int64(min(tc.stride, 3)) {
						offsets = append(offsets, o)
					}
				}
				for o := first; o < end; o += int64(tc.stride) {
					offsets = append(offsets, o)
				}
				offsets = append(offsets, end-1)

				for _, o := range offsets {
					for _, kind := range []string{"cut", "flip"} {
						raw := append([]byte(nil), pristine[name]...)
						boundary := false
						if kind == "cut" {
							raw = raw[:o]
							boundary = o == bounds[len(bounds)-2] || o == first
						} else {
							raw[o] ^= 0xFF
						}
						restore(name, raw)
						what := fmt.Sprintf("%s %s at %d", name, kind, o)
						if name == sealed {
							// A cut at a record boundary of a
							// sealed segment leaves no damaged
							// frame to find.
							if boundary {
								continue
							}
							if _, err := OpenSeg(dir, opt); !errors.Is(err, ErrCorruptSegment) {
								t.Fatalf("%s: OpenSeg = %v, want ErrCorruptSegment", what, err)
							}
							if got, err := os.ReadFile(filepath.Join(dir, final)); err != nil || !bytes.Equal(got, pristine[final]) {
								t.Fatalf("%s: refused open changed the final segment (err %v)", what, err)
							}
							continue
						}
						ref := refReplay(t, dir)
						want := bounds[len(bounds)-3]
						if o >= bounds[len(bounds)-2] {
							want = bounds[len(bounds)-2]
						}
						if ref.end != want {
							t.Fatalf("%s: reference keeps %d bytes, want %d", what, ref.end, want)
						}
						for open := 1; open <= 2; open++ {
							s, err := OpenSeg(dir, opt)
							if err != nil {
								t.Fatalf("%s: OpenSeg %d: %v", what, open, err)
							}
							ref.checkAgainst(t, s)
							if err := s.Close(); err != nil {
								t.Fatal(err)
							}
							got, err := os.ReadFile(filepath.Join(dir, final))
							if err != nil || !bytes.Equal(got, pristine[final][:want]) {
								t.Fatalf("%s: open %d left %d bytes (err %v), want the %d of the intact prefix", what, open, len(got), err, want)
							}
						}
					}
				}
				restore(name, pristine[name])
			}
		})
	}
}

// TestOpenSegTornCreation pins what a crash inside rotation, between
// creating the next segment and writing its header, leaves behind.
func TestOpenSegTornCreation(t *testing.T) {
	build := func(t *testing.T) (string, []string) {
		dir := filepath.Join(t.TempDir(), "segs")
		s, err := CreateSeg(dir, testGeom, WithMaxSegmentBytes(400))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if err := s.Write(block.Index(i), fill(byte(i+1), testGeom.BlockSize), block.Version(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := segmentNames(dir)
		if err != nil || len(names) < 3 {
			t.Fatalf("history left segments %v (err %v), want at least 3", names, err)
		}
		return dir, names
	}
	nextName := func(names []string) string { return segmentName(uint64(len(names))) }

	for _, short := range []int{0, 5, segHeaderSize - 1} {
		t.Run(fmt.Sprintf("header-%d-bytes", short), func(t *testing.T) {
			dir, names := build(t)
			torn := filepath.Join(dir, nextName(names))
			if err := os.WriteFile(torn, make([]byte, short), 0o644); err != nil {
				t.Fatal(err)
			}
			ref := refReplay(t, dir)
			s, err := OpenSeg(dir, WithMaxSegmentBytes(400))
			if err != nil {
				t.Fatalf("OpenSeg beside a torn creation: %v", err)
			}
			defer s.Close()
			if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("torn creation still on disk (stat err %v)", err)
			}
			ref.checkAgainst(t, s)
			// The predecessor is active again, and the rotation that
			// crashed can now happen.
			for i := 0; i < 12; i++ {
				if err := s.Write(block.Index(i), fill(0xEE, testGeom.BlockSize), 100); err != nil {
					t.Fatalf("write %d after recovery: %v", i, err)
				}
			}
			if _, err := os.Stat(torn); err != nil {
				t.Fatalf("rotation after recovery did not recreate %s: %v", filepath.Base(torn), err)
			}
		})
	}

	t.Run("only-file", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSeg(dir); !errors.Is(err, ErrNoSegments) {
			t.Fatalf("OpenSeg of a lone torn creation = %v, want ErrNoSegments", err)
		}
		s, err := CreateSeg(dir, testGeom)
		if err != nil {
			t.Fatalf("CreateSeg after ErrNoSegments: %v", err)
		}
		s.Close()
	})

	t.Run("predecessor-held-to-sealed-standard", func(t *testing.T) {
		dir, names := build(t)
		last := filepath.Join(dir, names[len(names)-1])
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(last, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, nextName(names)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSeg(dir); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("OpenSeg = %v, want ErrCorruptSegment: the predecessor was fsynced before its successor existed", err)
		}
	})

	t.Run("short-header-on-earlier-segment", func(t *testing.T) {
		dir, names := build(t)
		if err := os.Truncate(filepath.Join(dir, names[1]), segHeaderSize-4); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSeg(dir); err == nil || errors.Is(err, ErrNoSegments) {
			t.Fatalf("OpenSeg with a short sealed header = %v, want a header error", err)
		}
		if _, err := os.Stat(filepath.Join(dir, names[1])); err != nil {
			t.Fatalf("sealed segment with a short header was removed: %v", err)
		}
	})

	t.Run("foreign-header-on-earlier-segment", func(t *testing.T) {
		dir, names := build(t)
		raw, err := os.ReadFile(filepath.Join(dir, names[0]))
		if err != nil {
			t.Fatal(err)
		}
		copy(raw, "NOTASEGM")
		if err := os.WriteFile(filepath.Join(dir, names[0]), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSeg(dir); !errors.Is(err, ErrBadImage) {
			t.Fatalf("OpenSeg with a foreign sealed header = %v, want ErrBadImage", err)
		}
	})
}

// TestOpenSegGeometryMismatch: segments of two devices in one directory
// fail the open, whichever of them is newer.
func TestOpenSegGeometryMismatch(t *testing.T) {
	other := block.Geometry{BlockSize: testGeom.BlockSize, NumBlocks: testGeom.NumBlocks * 2}
	for _, geoms := range [][2]block.Geometry{{testGeom, other}, {other, testGeom}} {
		dir := t.TempDir()
		for seq, g := range geoms {
			hdr := make([]byte, segHeaderSize)
			copy(hdr, segMagic)
			binary.LittleEndian.PutUint32(hdr[8:], uint32(g.BlockSize))
			binary.LittleEndian.PutUint32(hdr[12:], uint32(g.NumBlocks))
			binary.LittleEndian.PutUint64(hdr[16:], uint64(seq))
			if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(seq))), hdr, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if s, err := OpenSeg(dir); err == nil {
			s.Close()
			t.Fatalf("OpenSeg accepted segments of geometries %+v and %+v", geoms[0], geoms[1])
		}
	}
}

// TestOpenSegRejectsMisnamedSegment: replay orders segments by their
// file names and claims slots by their headers' sequence numbers, so a
// header must carry the sequence number its file is named for.
func TestOpenSegRejectsMisnamedSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	s, err := CreateSeg(dir, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, segmentName(0)), filepath.Join(dir, segmentName(3))); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenSeg(dir); err == nil {
		s.Close()
		t.Fatal("OpenSeg accepted segment 0's header in a file named for segment 3")
	}
}

// TestAppendReusesRecordBuffer: a steady stream of writes allocates
// nothing per record.
func TestAppendReusesRecordBuffer(t *testing.T) {
	s, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := fill(3, testGeom.BlockSize)
	ver := block.Version(0)
	if got := testing.AllocsPerRun(100, func() {
		ver++
		if err := s.Write(5, data, ver); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Write allocates %v times per call, want 0", got)
	}
}
