package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"relidev/internal/block"
)

// BenchmarkOpenSeg times what a restarted site pays before it can take
// part again: replaying an aged log. Every block is written once and
// then overwritten seven times on average, at random, so the log holds
// several bytes of superseded history per live byte and segments die
// unevenly, as they do under a real workload. MB/s is log bytes
// replayed.
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
}
