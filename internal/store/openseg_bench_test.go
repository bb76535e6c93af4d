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
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, geom.BlockSize)
	vers := make([]block.Version, geom.NumBlocks)
	// sealed collects every segment's length as it is sealed; with the
	// active segment's, the sum is what the aging appended. (One dead
	// the moment it was sealed would be missed; random overwrites of
	// 1 024 blocks never leave one.)
	sealed := map[uint64]int64{}
	writes := 8 * geom.NumBlocks
	for i := 0; i < writes; i++ {
		idx := i
		if i >= geom.NumBlocks {
			idx = rng.Intn(geom.NumBlocks)
		}
		rng.Read(payload)
		vers[idx]++
		if err := s.Write(block.Index(idx), payload, vers[idx]); err != nil {
			b.Fatal(err)
		}
		maps.Copy(sealed, s.size)
	}
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
