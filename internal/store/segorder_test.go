package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"relidev/internal/block"
)

// ageLog writes a history that makes the log cleaner empty segments —
// every block once, then random overwrites, version-lowering rewrites (an
// aborted write's restore) and metadata saves, with a tenth of the
// blocks cold — into a fresh store under dir, closes it, and returns its
// segment names, oldest first.
func ageLog(t *testing.T, dir string, seed int64) []string {
	t.Helper()
	geom := block.Geometry{BlockSize: 32, NumBlocks: 40}
	s, err := CreateSeg(dir, geom, WithMaxSegmentBytes(int64(segHeaderSize+7*(recHeaderSize+geom.BlockSize))))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, geom.BlockSize)
	vers := make([]block.Version, geom.NumBlocks)
	cleanings := 0
	for i := 0; i < 12*geom.NumBlocks; i++ {
		idx := i
		if i >= geom.NumBlocks {
			idx = 4 + rng.Intn(geom.NumBlocks-4)
		}
		rng.Read(payload)
		before := append([]uint64(nil), s.liveSeg...)
		switch {
		case i >= geom.NumBlocks && rng.Intn(12) == 0:
			err = s.SaveMeta(payload[:rng.Intn(geom.BlockSize)])
		case rng.Intn(6) == 0 && vers[idx] > 0:
			vers[idx]--
			err = s.Write(block.Index(idx), payload, vers[idx])
		default:
			vers[idx] += 2
			err = s.Write(block.Index(idx), payload, vers[idx])
		}
		if err != nil {
			t.Fatal(err)
		}
		if cleaned(before, s) {
			cleanings++
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cleanings == 0 {
		t.Fatal("history never made the cleaner copy more than one block")
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 5 {
		t.Fatalf("history left %d segments, want at least five", len(names))
	}
	return names
}

// replayIn replays the segments of dir one after another, in the given
// order of names, on one buffer, then tallies: what a worker of OpenSeg
// does with the segments it draws, or all of OpenSeg at GOMAXPROCS 1
// when order is newest first. The last name is the active segment.
func replayIn(t *testing.T, dir string, names []string, order []int) string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, names[len(names)-1]))
	if err != nil {
		t.Fatal(err)
	}
	geom, seq, err := readSegHeader(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSegStore(dir, geom, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.activeSeq = seq
	buf := make([]byte, replayBufBytes)
	var done []replayed
	for _, i := range order {
		r := s.replaySealed(names[i], buf)
		if r.err != nil {
			t.Fatal(r.err)
		}
		done = append(done, r)
	}
	s.tally(done)
	return replayState(s)
}

// replayState renders everything a replay rebuilds: the image, versions,
// metadata (nil told from empty), liveness slots, live counts and sealed
// lengths.
func replayState(s *SegStore) string {
	return fmt.Sprintf("%s nil-meta=%v liveSeg=%v metaSeg=%d live=%v size=%v",
		imageOf(s), s.mem.meta == nil, s.liveSeg, s.metaSeg, s.live, s.size)
}

// TestSegReplayOrderIrrelevant replays a cleaned, aged log's segments in
// many orders — newest first, oldest first, interleaved and shuffled —
// and requires of each the image, versions, metadata, liveness slots,
// live counts and sealed lengths of the newest-first replay, which must
// in turn be what OpenSeg and the in-order reference rebuild. A worker
// pool replays segments in any such order, one record at a time each.
func TestSegReplayOrderIrrelevant(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "segs")
			names := ageLog(t, dir, seed)
			n := len(names)
			newestFirst, oldestFirst, outsideIn := make([]int, n), make([]int, n), make([]int, 0, n)
			for i := range names {
				newestFirst[i], oldestFirst[i] = n-1-i, i
			}
			for lo, hi := 0, n-1; lo <= hi; lo, hi = lo+1, hi-1 {
				if outsideIn = append(outsideIn, lo); hi != lo {
					outsideIn = append(outsideIn, hi)
				}
			}
			orders := [][]int{oldestFirst, outsideIn}
			rng := rand.New(rand.NewSource(seed))
			for range 6 {
				orders = append(orders, rng.Perm(n))
			}

			want := replayIn(t, dir, names, newestFirst)
			ref := refReplay(t, dir)
			s, err := OpenSeg(dir)
			if err != nil {
				t.Fatal(err)
			}
			ref.checkAgainst(t, s)
			if got := replayState(s); got != want {
				t.Fatalf("OpenSeg rebuilds\n%s\nnewest-first replay\n%s", got, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for _, order := range orders {
				if got := replayIn(t, dir, names, order); got != want {
					t.Fatalf("replay in order %v rebuilds\n%s\nnewest first\n%s", order, got, want)
				}
			}
		})
	}
}

// TestOpenSegNamesNewestCorruptSegment damages two sealed segments — the
// older at its first record, so that a worker finds it first, the newer
// at its last — and requires OpenSeg to name the newer one, as the
// serial newest-first replay did, at every GOMAXPROCS.
func TestOpenSegNamesNewestCorruptSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	names := ageLog(t, dir, 5)
	older, newer := names[1], names[len(names)-3]
	for name, at := range map[string]func(raw []byte) int{
		older: func([]byte) int { return segHeaderSize + 30 },
		newer: func(raw []byte) int { return len(raw) - 3 },
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		raw[at(raw)] ^= 0xFF
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for try := 0; try < 20; try++ {
			s, err := OpenSeg(dir)
			if err == nil {
				s.Close()
				t.Fatalf("GOMAXPROCS %d: OpenSeg accepted two damaged sealed segments", procs)
			}
			if !errors.Is(err, ErrCorruptSegment) || !strings.Contains(err.Error(), newer) {
				t.Fatalf("GOMAXPROCS %d: OpenSeg = %v, want ErrCorruptSegment naming %s", procs, err, newer)
			}
		}
	}
}
