package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"relidev/internal/block"
)

// appendedRecords counts the records the files of after hold beyond
// those the same-named files of before held: what was appended in
// between, in segments still on disk.
func appendedRecords(t *testing.T, before, after string) int {
	t.Helper()
	was, now := refReplay(t, before).bounds, refReplay(t, after).bounds
	n := 0
	for name, b := range now {
		n += len(b) - max(len(was[name]), 1)
	}
	return n
}

// copyDir copies the segment files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, raw := range readDir(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestSegWriteRunCrashPoints: a WriteRun three segments long, on a log
// whose cold blocks keep it over the cleaner's bound, rotates and cleans
// mid-run. The directory it leaves, with its final segment cut at every
// record boundary, cut one byte short of every record's end, and with
// one byte flipped inside every record, must reopen to exactly what the
// in-order reference replay of those files says, and to the image before
// the run plus a prefix of the run — records never reordered, versions
// never going back — the prefix growing with the cut. A second open must
// change nothing.
func TestSegWriteRunCrashPoints(t *testing.T) {
	geom := block.Geometry{BlockSize: 8, NumBlocks: 12}
	recSize := int64(recHeaderSize + geom.BlockSize)
	opt := WithMaxSegmentBytes(segHeaderSize + 4*recSize)
	s, err := CreateSeg(filepath.Join(t.TempDir(), "live"), geom, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	data := func() []byte {
		d := make([]byte, geom.BlockSize)
		rng.Read(d)
		return d
	}
	// Every block once, then the metadata, then overwrites of blocks 8-11
	// only: blocks 0-7 pin the early segments.
	for i := 0; i < 40; i++ {
		idx := block.Index(i)
		if i >= geom.NumBlocks {
			idx = block.Index(8 + rng.Intn(4))
		}
		if i == 20 {
			err = s.SaveMeta([]byte("w"))
		} else {
			err = s.Write(idx, data(), block.Version(s.mem.versions[idx].Load())+1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// The run: twelve installs over the cold blocks and the hot ones,
	// block 3 twice.
	var run []Install
	next := s.mem.Vector()
	for _, idx := range []block.Index{0, 1, 2, 3, 9, 4, 5, 3, 10, 6, 7, 11} {
		next[idx]++
		run = append(run, Install{Index: idx, Data: data(), Version: next[idx]})
	}
	// prefix[k] is the image after the run's first k installs.
	model := struct {
		data []byte
		vers block.Vector
	}{imageData(s.mem), s.mem.Vector()}
	render := func() string { return fmt.Sprintf("%x|%v|%x", model.data, model.vers, s.mem.meta) }
	prefix := []string{render()}
	for _, in := range run {
		copy(model.data[int(in.Index)*geom.BlockSize:], in.Data)
		model.vers[in.Index] = in.Version
		prefix = append(prefix, render())
	}

	before := copyDir(t, s.dir)
	seq := s.activeSeq
	if err := s.WriteRun(run); err != nil {
		t.Fatal(err)
	}
	if s.activeSeq < seq+2 {
		t.Fatalf("a run of three segments rotated %d times, want at least 2", s.activeSeq-seq)
	}
	if copies := appendedRecords(t, before, s.dir) - len(run); copies <= 0 {
		t.Fatalf("the run appended %d records beyond its own, want the cleaner's copies", copies)
	}
	if got := imageOf(s); got != prefix[len(run)] {
		t.Fatal("the store's image after the run is not the image the run describes")
	}

	files := readDir(t, s.dir)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	final := names[len(names)-1]
	whole := files[final]
	bounds := refReplay(t, s.dir).bounds[final]
	type crash struct {
		what string
		at   int64 // the offset the damage starts at, for ordering
		raw  []byte
	}
	var crashes []crash
	for i, b := range bounds {
		crashes = append(crashes, crash{fmt.Sprintf("cut at %d", b), b, whole[:b]})
		if i == len(bounds)-1 {
			break
		}
		end := bounds[i+1]
		crashes = append(crashes, crash{fmt.Sprintf("cut at %d", end-1), end - 1, whole[:end-1]})
		mid := b + (end-b)/2
		flipped := append([]byte(nil), whole...)
		flipped[mid] ^= 0x5A
		crashes = append(crashes, crash{fmt.Sprintf("byte %d flipped", mid), mid, flipped})
	}
	sort.SliceStable(crashes, func(i, j int) bool { return crashes[i].at < crashes[j].at })

	dir := filepath.Join(t.TempDir(), "crash")
	lastK := -1
	for _, c := range crashes {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, raw := range files {
			if name == final {
				raw = c.raw
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		what := fmt.Sprintf("%s %s", final, c.what)
		ref := refReplay(t, dir)
		var settled map[string][]byte
		for open := 1; open <= 2; open++ {
			re, err := OpenSeg(dir, opt)
			if err != nil {
				t.Fatalf("%s: open %d: %v", what, open, err)
			}
			ref.checkAgainst(t, re)
			k := -1
			for i, img := range prefix {
				if img == imageOf(re) {
					k = i
				}
			}
			if k < 0 {
				t.Fatalf("%s: open %d rebuilt an image that is no prefix of the run", what, open)
			}
			if k < lastK {
				t.Fatalf("%s: open %d holds %d installs of the run, a shorter cut held %d", what, open, k, lastK)
			}
			lastK = k
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
	if lastK != len(run) {
		t.Fatalf("the uncut directory reopened with %d installs of the run, want all %d", lastK, len(run))
	}
}

// TestSegWriteRunMatchesWrites feeds seeded random runs — of one record
// to three segments, with repeated blocks, lowered versions and
// metadata saves between them — to one store as WriteRuns, or as one
// Swap per install, and to a twin one Write at a time. After every step
// the two directories must hold the same bytes, so every rotation fell
// between the same records and every cleaning pass emptied the same
// victim, and the liveness accounting must agree; each Swap must hand
// back the bytes the twin held before its Write.
func TestSegWriteRunMatchesWrites(t *testing.T) {
	geom := block.Geometry{BlockSize: 24, NumBlocks: 12}
	recSize := recHeaderSize + geom.BlockSize
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			maxBytes := int64(200 + rng.Intn(600))
			opt := WithMaxSegmentBytes(maxBytes)
			runs, err := CreateSeg(filepath.Join(t.TempDir(), "runs"), geom, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer runs.Close()
			twin, err := CreateSeg(filepath.Join(t.TempDir(), "writes"), geom, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()

			vers := block.NewVector(geom.NumBlocks)
			perSeg := int(maxBytes-segHeaderSize) / recSize
			crossed, cleanings := 0, 0
			for step := 0; step < 150; step++ {
				beforeDir := copyDir(t, twin.dir)
				seq := twin.activeSeq
				var n int
				if rng.Intn(8) == 0 {
					meta := make([]byte, rng.Intn(40))
					rng.Read(meta)
					for _, st := range []*SegStore{runs, twin} {
						if err := st.SaveMeta(meta); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					run := make([]Install, 1+rng.Intn(3*perSeg+1))
					for i := range run {
						idx := rng.Intn(geom.NumBlocks)
						if rng.Intn(5) == 0 && vers[idx] > 0 {
							vers[idx] -= block.Version(1 + rng.Intn(int(vers[idx])))
						} else {
							vers[idx] += block.Version(1 + rng.Intn(3))
						}
						d := make([]byte, geom.BlockSize)
						rng.Read(d)
						run[i] = Install{Index: block.Index(idx), Data: d, Version: vers[idx]}
					}
					swapped := rng.Intn(4) == 0
					if !swapped {
						if err := runs.WriteRun(run); err != nil {
							t.Fatal(err)
						}
					}
					for _, in := range run {
						if swapped {
							was, _, _ := twin.Read(in.Index)
							prev, err := runs.Swap(in.Index, in.Data, in.Version)
							if err != nil || !bytes.Equal(prev, was) {
								t.Fatalf("step %d: Swap displaced %x (err %v), the twin held %x", step, prev, err, was)
							}
						}
						if err := twin.Write(in.Index, in.Data, in.Version); err != nil {
							t.Fatal(err)
						}
					}
					n = len(run)
					if twin.activeSeq != seq && n > 1 {
						crossed++
					}
				}
				if appendedRecords(t, beforeDir, twin.dir) > max(n, 1) {
					cleanings++
				}
				if got, want := readDir(t, runs.dir), readDir(t, twin.dir); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: the run-fed store's %d segment files differ from the Write-fed twin's %d", step, len(got), len(want))
				}
				if !reflect.DeepEqual(runs.live, twin.live) || !reflect.DeepEqual(runs.liveSeg, twin.liveSeg) ||
					runs.metaSeg != twin.metaSeg || !reflect.DeepEqual(runs.size, twin.size) || runs.activeLen != twin.activeLen {
					t.Fatalf("step %d: liveness accounting differs from the Write-fed twin's", step)
				}
				if imageOf(runs) != imageOf(twin) {
					t.Fatalf("step %d: images differ", step)
				}
			}
			if crossed == 0 || cleanings == 0 {
				t.Fatalf("%d runs crossed a rotation and %d steps cleaned, want some of each", crossed, cleanings)
			}
		})
	}
}

// TestSegWriteRunChecksFirst: a run with one bad install writes none of
// it, and a closed store refuses runs.
func TestSegWriteRunChecksFirst(t *testing.T) {
	s, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	good := Install{Index: 1, Data: fill(1, testGeom.BlockSize), Version: 1}
	for _, bad := range []Install{
		{Index: block.Index(testGeom.NumBlocks), Data: fill(2, testGeom.BlockSize), Version: 1},
		{Index: 2, Data: fill(2, testGeom.BlockSize-1), Version: 1},
	} {
		if err := s.WriteRun([]Install{good, bad}); err == nil {
			t.Fatalf("WriteRun accepted %+v", bad)
		}
		if v, _ := s.Version(1); v != 0 || s.activeLen != segHeaderSize {
			t.Fatalf("a refused run installed block 1 at version %d, log at %d bytes", v, s.activeLen)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRun([]Install{good}); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteRun after Close = %v, want ErrClosed", err)
	}
}

// TestWriteRunFallback: a store without a WriteRun of its own gets one
// Write per install, in order, up to the first failure.
func TestWriteRunFallback(t *testing.T) {
	mem, err := NewMem(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	run := []Install{
		{Index: 3, Data: fill(1, testGeom.BlockSize), Version: 2},
		{Index: 3, Data: fill(2, testGeom.BlockSize), Version: 5},
		{Index: 4, Data: fill(3, testGeom.BlockSize), Version: 1},
		{Index: block.Index(testGeom.NumBlocks), Data: fill(4, testGeom.BlockSize), Version: 1},
		{Index: 5, Data: fill(5, testGeom.BlockSize), Version: 1},
	}
	if err := WriteRun(mem, run); err == nil {
		t.Fatal("fallback WriteRun accepted an out-of-range install")
	}
	for _, want := range []struct {
		idx  block.Index
		ver  block.Version
		fill byte
	}{{3, 5, 2}, {4, 1, 3}, {5, 0, 0}} {
		data, ver, _ := mem.Read(want.idx)
		if ver != want.ver || data[0] != want.fill {
			t.Fatalf("block %d at version %d holding %d, want %d holding %d", want.idx, ver, data[0], want.ver, want.fill)
		}
	}
}
