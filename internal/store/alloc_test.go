//go:build !race

package store

import (
	"path/filepath"
	"testing"

	"relidev/internal/block"
)

// TestStoreAllocBudget pins what the striped image costs per call in
// steady state: Read 1 (the copy it returns), Vector 1 (the vector),
// and Swap, Write and Version nothing — taking a stripe's lock, or
// every stripe's, allocates nothing, and a SegStore frames its record
// into a reused buffer. The segment is large enough that no call
// rotates. The race detector allocates, hence the build tag.
func TestStoreAllocBudget(t *testing.T) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 256}
	mem, err := NewMem(geom)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), geom, WithMaxSegmentBytes(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for name, s := range map[string]interface {
		Store
		Swap(block.Index, []byte, block.Version) ([]byte, error)
	}{"mem": mem, "segment": seg} {
		buf, data := make([]byte, geom.BlockSize), make([]byte, geom.BlockSize)
		ver := block.Version(0)
		for op, want := range map[string]float64{"Read": 1, "Vector": 1, "Swap": 0, "Write": 0, "Version": 0} {
			got := testing.AllocsPerRun(100, func() {
				ver++
				var err error
				switch op {
				case "Read":
					_, _, err = s.Read(7)
				case "Vector":
					s.Vector()
				case "Swap":
					buf, err = s.Swap(7, buf, ver)
				case "Write":
					err = s.Write(9, data, ver)
				case "Version":
					_, err = s.Version(7)
				}
				if err != nil {
					t.Fatal(err)
				}
			})
			if got != want {
				t.Errorf("%s %s: %v allocations, want %v", name, op, got, want)
			}
		}
	}
}
