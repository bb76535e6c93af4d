package site

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
)

// versionPattern is the canonical payload of a block at a version: every
// byte is the version mod 256, so data installed under another
// version's number shows on inspection.
func versionPattern(ver block.Version) []byte {
	return bytes.Repeat([]byte{byte(ver)}, testGeom.BlockSize)
}

// TestApplyRepairRacesForegroundWrites is the -race hammer of the
// recovery install rule: foreground StageLocal writers move every block
// through versions below and above a donor's while recovery pages of
// the donor's blocks install through ApplyRepair and readers watch.
// Some installs must lose and some must win; no block's version may go
// backwards, no block may hold data of another version, and every
// block ends at least at the donor's version.
func TestApplyRepairRacesForegroundWrites(t *testing.T) {
	const donorVer = 50
	repairStores(t, func(t *testing.T, r *Replica) {
		donor := newReplica(t, 1)
		for i := 0; i < testGeom.NumBlocks; i++ {
			if err := donor.WriteLocal(block.Index(i), versionPattern(donorVer), donorVer); err != nil {
				t.Fatal(err)
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		// halt stops and joins the racers, on the way out of a failed
		// pass too, so none outlives the store.
		halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
		defer halt()
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ver := block.Version(40 + w)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := 0; i < testGeom.NumBlocks; i++ {
						if _, err := r.StageLocal(block.Index(i), versionPattern(ver), ver); err != nil {
							t.Error(err)
							return
						}
					}
					if ver += 4; ver > 60 {
						ver = block.Version(40 + w)
					}
				}
			}(w)
		}
		for rd := 0; rd < 2; rd++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seen := make([]block.Version, testGeom.NumBlocks)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := range seen {
						data, ver, err := r.ReadLocal(block.Index(i))
						if err != nil {
							t.Error(err)
							return
						}
						if ver < seen[i] {
							t.Errorf("block %d went back from version %d to %d", i, seen[i], ver)
							return
						}
						seen[i] = ver
						if ver != 0 && !bytes.Equal(data, versionPattern(ver)) {
							t.Errorf("torn install: block %d at version %d has foreign payload", i, ver)
							return
						}
					}
				}
			}()
		}

		// Five recovery passes, each paging the donor's stale blocks in
		// four-block pages against the replica's vector of the moment.
		for pass := 0; pass < 5; pass++ {
			req := protocol.RecoveryRequest{Vector: r.Vector(), MaxBlocks: 4}
			for {
				resp, err := donor.Handle(context.Background(), 0, req)
				if err != nil {
					t.Fatal(err)
				}
				page := resp.(protocol.RecoveryReply)
				if _, err := r.ApplyRepair(page.Blocks); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if !page.More {
					break
				}
				req.Cont = page.Next
			}
		}
		halt()

		for i := 0; i < testGeom.NumBlocks; i++ {
			data, ver, err := r.ReadLocal(block.Index(i))
			if err != nil {
				t.Fatal(err)
			}
			if ver < donorVer {
				t.Fatalf("block %d: version %d, want at least the donor's %d", i, ver, donorVer)
			}
			if !bytes.Equal(data, versionPattern(ver)) {
				t.Fatalf("block %d: torn install at version %d", i, ver)
			}
		}
	})
}
