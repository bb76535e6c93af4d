package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"relidev/internal/block"
)

// TestSegCleanerBoundsLog: after every block is written once, random
// overwrites — uniform, and nine in ten on a tenth of the blocks, so
// cold records pin segments nothing else would empty — and metadata
// saves never leave more on disk at a rotation than the cleaner's bound
// — cleanFactor times the live record bytes plus one segment — plus
// three segments: what the rotation's victims held, deleted only at the
// next rotation, and the records by which segments overrun their
// threshold. (Over histories twenty times longer the excess peaks at
// 2.6 segments.)
func TestSegCleanerBoundsLog(t *testing.T) {
	geom := block.Geometry{BlockSize: 64, NumBlocks: 60}
	recSize := int64(recHeaderSize + geom.BlockSize)
	for _, hot := range []int{geom.NumBlocks, geom.NumBlocks / 10} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("hot%d/seed%d", hot, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				maxBytes := segHeaderSize + int64(3+rng.Intn(10))*recSize
				dir := filepath.Join(t.TempDir(), "segs")
				s, err := CreateSeg(dir, geom, WithMaxSegmentBytes(maxBytes))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				payload := make([]byte, geom.BlockSize)
				metaRec := int64(0)
				seq, rotations := s.activeSeq, 0
				for i := 0; i < 11*geom.NumBlocks; i++ {
					idx := i
					if i >= geom.NumBlocks {
						if idx = rng.Intn(geom.NumBlocks); rng.Intn(10) > 0 {
							idx = rng.Intn(hot)
						}
					}
					rng.Read(payload)
					if i >= geom.NumBlocks && rng.Intn(20) == 0 {
						meta := payload[:rng.Intn(geom.BlockSize)]
						err, metaRec = s.SaveMeta(meta), int64(recHeaderSize+len(meta))
					} else {
						err = s.Write(block.Index(idx), payload, block.Version(i+1))
					}
					if err != nil {
						t.Fatal(err)
					}
					if s.activeSeq == seq {
						continue
					}
					seq, rotations = s.activeSeq, rotations+1
					var onDisk int64
					for _, raw := range readDir(t, dir) {
						onDisk += int64(len(raw))
					}
					live := int64(min(i+1, geom.NumBlocks))*recSize + metaRec
					if bound := cleanFactor*live + 4*maxBytes; onDisk > bound {
						t.Fatalf("write %d, rotation %d: %d log bytes for %d live, bound %d", i, rotations, onDisk, live, bound)
					}
				}
				if rotations < 20 {
					t.Fatalf("history rotated %d times, want a long one", rotations)
				}
			})
		}
	}
}

// cleaned reports whether the cleaner ran during a call that writes at
// most one block: no other call moves a second block's liveness slot.
func cleaned(before []uint64, s *SegStore) bool {
	moved := 0
	for i, seq := range before {
		if s.liveSeg[i] != seq {
			moved++
		}
	}
	return moved > 1
}

// imageData renders a MemStore's blocks as one image in block order,
// wherever each slot's buffer lives: the one way tests read block data
// out of a store's internals.
func imageData(m *MemStore) []byte {
	out := make([]byte, 0, m.geom.Size())
	for _, b := range m.blocks {
		out = append(out, b...)
	}
	return out
}

// imageOf renders what a store serves — block data, versions, metadata —
// for comparing states.
func imageOf(s *SegStore) string {
	return fmt.Sprintf("%x|%v|%x", imageData(s.mem), s.mem.Vector(), s.mem.meta)
}

// TestSegCleanCrashPoints copies the directory after every call of a
// scripted history — cold blocks that pin segments, hot overwrites,
// version-lowering rewrites (an aborted write's restore) and metadata
// saves — that makes the cleaner empty segments many times. Each copy,
// and each copy with its final segment cut at every record boundary and
// inside every record (what a crash leaves of appends nothing fsynced),
// must reopen to exactly what the in-order reference replay of those
// files says, sealed-segment sizes included, and to an image the
// history really held since the final segment was created: the
// cleaner's copies change no image, and a victim is deleted only once
// they are sealed. A second open must change nothing.
func TestSegCleanCrashPoints(t *testing.T) {
	geom := block.Geometry{BlockSize: 8, NumBlocks: 6}
	recSize := recHeaderSize + geom.BlockSize
	opt := WithMaxSegmentBytes(int64(segHeaderSize + 4*recSize))
	s, err := CreateSeg(filepath.Join(t.TempDir(), "live"), geom, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type snapshot struct {
		files map[string][]byte
		first int // images[first:] are the states a cut may show
	}
	images := []string{imageOf(s)} // images[k] is the state after k calls
	var snaps []snapshot
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, geom.BlockSize)
	first, cleanings, lowered := 0, 0, 0
	for call := 0; call < 150; call++ {
		seq, before := s.activeSeq, append([]uint64(nil), s.liveSeg...)
		rng.Read(data)
		// Blocks 0-2 and the metadata are written early and then rarely;
		// blocks 3-5 are hot.
		idx := block.Index(3 + rng.Intn(3))
		if call < 3 || rng.Intn(12) == 0 {
			idx = block.Index(rng.Intn(3))
		}
		switch ver := block.Version(s.mem.versions[idx].Load()); {
		case call == 2 || call%23 == 22:
			err = s.SaveMeta(data[:rng.Intn(len(data))])
		case call%5 == 4 && ver > 1:
			lowered++
			err = s.Write(idx, data, ver-1)
		default:
			err = s.Write(idx, data, ver+1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if cleaned(before, s) {
			cleanings++
		}
		if s.activeSeq != seq {
			// The final segment was created during this call, before its
			// own record: a cut at its header shows the state before it.
			first = len(images) - 1
		}
		images = append(images, imageOf(s))
		snaps = append(snaps, snapshot{files: readDir(t, s.dir), first: first})
	}
	if cleanings < 5 || lowered == 0 {
		t.Fatalf("history cleaned %d times and lowered %d versions, want several and some", cleanings, lowered)
	}

	dir := filepath.Join(t.TempDir(), "crash")
	materialise := func(files map[string][]byte, final string, cut int64) {
		t.Helper()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, raw := range files {
			if name == final {
				raw = raw[:cut]
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, snap := range snaps {
		names := make([]string, 0, len(snap.files))
		for name := range snap.files {
			names = append(names, name)
		}
		sort.Strings(names)
		final := names[len(names)-1]
		materialise(snap.files, final, int64(len(snap.files[final])))
		var cuts []int64
		for _, b := range refReplay(t, dir).bounds[final] {
			cuts = append(cuts, b)
			if b+int64(recSize) <= int64(len(snap.files[final])) {
				cuts = append(cuts, b+recHeaderSize-1, b+int64(recSize)-1)
			}
		}
		for _, cut := range cuts {
			what := fmt.Sprintf("after call %d, %s cut at %d", k+1, final, cut)
			materialise(snap.files, final, cut)
			ref := refReplay(t, dir)
			var settled map[string][]byte
			for open := 1; open <= 2; open++ {
				re, err := OpenSeg(dir, opt)
				if err != nil {
					t.Fatalf("%s: open %d: %v", what, open, err)
				}
				ref.checkAgainst(t, re)
				for name, raw := range snap.files {
					if seq := binary.LittleEndian.Uint64(raw[16:]); name != final && re.size[seq] != int64(len(raw)) {
						t.Fatalf("%s: open %d sizes %s at %d bytes, it holds %d", what, open, name, re.size[seq], len(raw))
					}
				}
				img := imageOf(re)
				if !slices.Contains(images[snap.first:k+2], img) {
					t.Fatalf("%s: open %d rebuilt an image the history never held since call %d", what, open, snap.first)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				got := readDir(t, dir)
				if open == 2 && !reflect.DeepEqual(got, settled) {
					t.Fatalf("%s: the second open changed the files", what)
				}
				settled = got
			}
		}
	}
}
