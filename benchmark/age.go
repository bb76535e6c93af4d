package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"relidev/internal/block"
	"relidev/internal/store"
)

// agedLog is the segment log a StoreDir workload's sites start from:
// every block written once, then sp.ageWrites random overwrites. A fresh
// log holds one record per block; only after some 25 000 random
// overwrites do whole segments die as fast as new ones fill (about six
// log bytes per live byte), and log replay, the bulk of a restart, takes
// three times as long. Writing that history through the protocol costs
// 9 s per set-up. It is workload input, not work of the program, so it
// is written once per run, straight into a store.SegStore, and every
// set-up clones it into each site's directory.
type agedLog struct {
	dir string
	seq []uint64 // per block: how many times it was written
}

func newAgedLog(parent string, sp *spec, e env) (*agedLog, error) {
	a := &agedLog{dir: filepath.Join(parent, "aged"), seq: make([]uint64, geometry.NumBlocks)}
	st, err := store.CreateSeg(a.dir, geometry)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed*7919 + 17))
	buf := newPayload()
	n := geometry.NumBlocks
	total := n
	if sp.ageWrites > 0 {
		total += e.scaled(sp.ageWrites)
	}
	for i := 0; i < total; i++ {
		idx := i
		if i >= n {
			idx = rng.Intn(n)
		}
		a.seq[idx]++
		stamp(buf, idx%e.clients, idx, a.seq[idx])
		if err := st.Write(block.Index(idx), buf, block.Version(a.seq[idx])); err != nil {
			st.Close()
			return nil, err
		}
	}
	return a, st.Close()
}

// cloneInto gives a site its own copy of the log. Sealed segments are
// never written again, only deleted, so they are hard-linked; the last
// segment is appended to after reopening and is copied.
func (a *agedLog) cloneInto(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(a.dir)
	if err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for i, ent := range entries {
		from, to := filepath.Join(a.dir, ent.Name()), filepath.Join(dir, ent.Name())
		if i < len(entries)-1 && os.Link(from, to) == nil {
			continue
		}
		if err := copyFile(from, to); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
