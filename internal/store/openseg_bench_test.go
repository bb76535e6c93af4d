package store

import (
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"relidev/internal/block"
)

// BenchmarkOpenSeg times what a restarted site pays before it can take
// part again: replaying an aged log. Every block is written once and
// then overwritten seven times on average, at random, so segments die
// unevenly, as they do under a real workload; the cleaner holds the log
// near cleanFactor log bytes per live byte (seven without it). MB/s is
// log bytes replayed; appended/user-B is write amplification, the bytes
// the aging appended — the cleaner's copies included — per byte written.
func BenchmarkOpenSeg(b *testing.B) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 1024}
	dir := filepath.Join(b.TempDir(), "segs")
	s, err := CreateSeg(dir, geom)
	if err != nil {
		b.Fatal(err)
	}
	// sealed collects every segment's length as it is sealed; with the
	// active segment's, the sum is what the aging appended. (One dead
	// the moment it was sealed would be missed; random overwrites of
	// 1 024 blocks never leave one.)
	sealed := map[uint64]int64{}
	vers := overwriteAll(b, s, func() { maps.Copy(sealed, s.size) })
	writes := 8 * geom.NumBlocks
	appended := s.activeLen
	for _, n := range sealed {
		appended += n
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		b.Fatal(err)
	}
	var logBytes int64
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			b.Fatal(err)
		}
		logBytes += fi.Size()
	}
	b.SetBytes(logBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := OpenSeg(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := re.Vector(); got[0] != vers[0] || got[geom.NumBlocks-1] != vers[geom.NumBlocks-1] {
			b.Fatalf("reopened versions %d, %d; want %d, %d", got[0], got[geom.NumBlocks-1], vers[0], vers[geom.NumBlocks-1])
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	// After the loop: ResetTimer drops metrics reported before it.
	b.ReportMetric(float64(appended)/float64(writes*geom.BlockSize), "appended/user-B")
	b.ReportMetric(float64(logBytes)/float64(geom.Size()), "log/live-B")
}

// overwriteAll writes every block of s once and then random blocks
// until it has written eight times as many, calling after (if not nil)
// after each write, and returns each block's version.
func overwriteAll(b *testing.B, s *SegStore, after func()) []block.Version {
	geom := s.Geometry()
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, geom.BlockSize)
	vers := make([]block.Version, geom.NumBlocks)
	for i := 0; i < 8*geom.NumBlocks; i++ {
		idx := i
		if i >= geom.NumBlocks {
			idx = rng.Intn(geom.NumBlocks)
		}
		rng.Read(payload)
		vers[idx]++
		if err := s.Write(block.Index(idx), payload, vers[idx]); err != nil {
			b.Fatal(err)
		}
		if after != nil {
			after()
		}
	}
	return vers
}

// BenchmarkSegWriteRunRotating times what a recovering site's page
// install pays on an aged log: each op is one 1 MiB WriteRun over the
// next quarter of the device, so about every fourth op seals a 4 MiB
// segment, opens the next and frees the segments the previous pass over
// the device superseded. The store's Close, which waits for the last
// dead segments' deletion, is timed too.
func BenchmarkSegWriteRunRotating(b *testing.B) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 1024}
	s, err := CreateSeg(filepath.Join(b.TempDir(), "segs"), geom)
	if err != nil {
		b.Fatal(err)
	}
	vers := overwriteAll(b, s, nil)
	run := make([]Install, geom.NumBlocks/4)
	rng := rand.New(rand.NewSource(2))
	for i := range run {
		run[i].Data = make([]byte, geom.BlockSize)
		rng.Read(run[i].Data)
	}
	seq := s.activeSeq
	b.SetBytes(int64(len(run) * geom.BlockSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := i % 4 * len(run)
		for j := range run {
			idx := first + j
			vers[idx]++
			run[j].Index, run[j].Version = block.Index(idx), vers[idx]
		}
		if err := s.WriteRun(run); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.activeSeq-seq)/float64(b.N), "rotations/op")
}
