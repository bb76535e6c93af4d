package site

import (
	"path/filepath"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

// writeCounter counts the write calls — Write or WriteRun — that reach
// the store beneath it.
type writeCounter struct {
	store.Store
	writes int
}

func (c *writeCounter) Write(idx block.Index, data []byte, ver block.Version) error {
	c.writes++
	return c.Store.Write(idx, data, ver)
}

func (c *writeCounter) WriteRun(ins []store.Install) error {
	c.writes++
	return store.WriteRun(c.Store, ins)
}

// BenchmarkApplyRepairPage installs one recovery page per op — 256
// blocks of 4 KiB, the 1 MiB page budget — onto a SegStore with its
// default 4 MiB segments, cycling over a 4 MiB device at rising
// versions so rotations come at their real rate, one every four pages.
// It reports ns/page and writes/page: the store write calls a page
// costs.
func BenchmarkApplyRepairPage(b *testing.B) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 1024}
	seg, err := store.CreateSeg(filepath.Join(b.TempDir(), "segs"), geom)
	if err != nil {
		b.Fatal(err)
	}
	defer seg.Close()
	counter := &writeCounter{Store: seg}
	r, err := New(Config{ID: 0, Store: counter})
	if err != nil {
		b.Fatal(err)
	}
	page := make([]protocol.BlockCopy, 256)
	data := make([]byte, geom.BlockSize)
	b.SetBytes(int64(len(page) * geom.BlockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i % (geom.NumBlocks / len(page))) * len(page)
		for j := range page {
			page[j] = protocol.BlockCopy{Index: block.Index(base + j), Data: data, Version: block.Version(i + 1)}
		}
		if n, err := r.ApplyRepair(page); err != nil || n != len(page) {
			b.Fatalf("installed %d of %d (err %v)", n, len(page), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/page")
	b.ReportMetric(float64(counter.writes)/float64(b.N), "writes/page")
}
