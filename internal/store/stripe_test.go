package store

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relidev/internal/block"
)

// stripeGeom gives every stripe three blocks.
var stripeGeom = block.Geometry{BlockSize: 64, NumBlocks: 3 * block.OpStripes}

// stripedStores opens each store whose image is striped: a MemStore, a
// SegStore whose small segments make rotation and cleaning run under
// the writers, and a Batcher over such a SegStore.
func stripedStores() map[string]func(t *testing.T) Store {
	seg := func(t *testing.T) *SegStore {
		s, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), stripeGeom, WithMaxSegmentBytes(8<<10))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store {
			m, err := NewMem(stripeGeom)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"segment": func(t *testing.T) Store { return seg(t) },
		"batched-segment": func(t *testing.T) Store {
			return NewBatcher(seg(t), BatchPolicy{MaxBatch: 4})
		},
	}
}

// TestStripedReadsConsistent races writers that share stripes, and one
// whose stripes no one else writes, against readers and then a Close.
// Writer A writes blocks 0–31 with Write and writer B blocks 64–95 with
// Swap, so the two share stripes 0–31; writer C installs blocks 32–63
// and 96–127, stripes 32–63, as one WriteRun. Every payload encodes its
// version, so a Read must return data encoding exactly the version it
// returns, and at least the version a Version just before it saw. Close
// comes while all of them run; once it has returned, every operation
// must fail with ErrClosed. Run it with -race.
func TestStripedReadsConsistent(t *testing.T) {
	stamp := func(buf []byte, ver block.Version) []byte {
		binary.LittleEndian.PutUint64(buf, uint64(ver))
		return buf
	}
	span := func(lo, hi int) []block.Index {
		var out []block.Index
		for i := lo; i < hi; i++ {
			out = append(out, block.Index(i))
		}
		return out
	}
	for name, open := range stripedStores() {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			var closing, closed atomic.Bool
			// done reports whether an operation's outcome ends its
			// caller's loop. after says whether Close had returned before
			// the operation began: then it must fail with ErrClosed.
			done := func(what string, after bool, err error) bool {
				if after && !errors.Is(err, ErrClosed) {
					t.Errorf("%s after Close returned = %v, want ErrClosed", what, err)
				} else if err != nil && !(closing.Load() && errors.Is(err, ErrClosed)) {
					t.Errorf("%s: %v", what, err)
				}
				return err != nil || after
			}
			var wg sync.WaitGroup
			var progress atomic.Int64
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; ; i += 7 {
						idx := block.Index(i % stripeGeom.NumBlocks)
						after := closed.Load()
						v, err := s.Version(idx)
						if done("Version", after, err) {
							return
						}
						after = closed.Load()
						data, ver, err := s.Read(idx)
						if done("Read", after, err) {
							return
						}
						if got := block.Version(binary.LittleEndian.Uint64(data)); ver < v || got != ver {
							t.Errorf("block %d: Version %d, then Read %d holding data of %d", idx, v, ver, got)
							return
						}
					}
				}(r)
			}
			writer := func(install func(ver block.Version) error) {
				defer wg.Done()
				for ver := block.Version(1); ; ver++ {
					after := closed.Load()
					if done("install", after, install(ver)) {
						return
					}
					progress.Add(1)
				}
			}
			wg.Add(3)
			go writer(func(ver block.Version) error {
				buf := make([]byte, stripeGeom.BlockSize)
				for i := 0; i < 32; i++ {
					if err := s.Write(block.Index(i), stamp(buf, ver), ver); err != nil {
						return err
					}
				}
				return nil
			})
			bufB := make([]byte, stripeGeom.BlockSize)
			go writer(func(ver block.Version) error {
				for i := 64; i < 96; i++ {
					// The store keeps bufB and hands back the block's old
					// buffer, or keeps nothing.
					prev, err := Swap(s, block.Index(i), stamp(bufB, ver), ver)
					if prev != nil {
						bufB = prev
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			runC := append(span(32, 64), span(96, 128)...)
			go writer(func(ver block.Version) error {
				run := make([]Install, len(runC))
				for i, idx := range runC {
					run[i] = Install{Index: idx, Data: stamp(make([]byte, stripeGeom.BlockSize), ver), Version: ver}
				}
				if err := WriteRun(s, run); err != nil {
					return err
				}
				if ver%8 == 0 {
					return s.SaveMeta([]byte{byte(ver)})
				}
				return nil
			})
			for progress.Load() < 60 {
				time.Sleep(time.Millisecond)
			}
			closing.Store(true)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			closed.Store(true)
			wg.Wait()
			_, metaErr := s.LoadMeta()
			if !errors.Is(metaErr, ErrClosed) {
				t.Errorf("LoadMeta after Close = %v, want ErrClosed", metaErr)
			}
			if err := s.SaveMeta([]byte{1}); !errors.Is(err, ErrClosed) {
				t.Errorf("SaveMeta after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestSegReadsDuringLogHold holds a SegStore's log mutex, as an append,
// a seal fsync or a cleaning pass does, and requires that Read,
// Version, Vector and LoadMeta still complete: they take only the
// image's locks.
func TestSegReadsDuringLogHold(t *testing.T) {
	s, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), stripeGeom)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := fill(7, stripeGeom.BlockSize)
	if err := s.Write(5, payload, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveMeta([]byte{9}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	finished := make(chan error, 1)
	go func() {
		data, ver, err := s.Read(5)
		if err == nil && (ver != 3 || data[0] != 7) {
			err = errors.New("Read returned the wrong block")
		}
		if v, verr := s.Version(5); err == nil && (verr != nil || v != 3) {
			err = errors.New("Version returned the wrong version")
		}
		if vec := s.Vector(); err == nil && vec.Get(5) != 3 {
			err = errors.New("Vector returned the wrong version")
		}
		if meta, merr := s.LoadMeta(); err == nil && (merr != nil || len(meta) != 1 || meta[0] != 9) {
			err = errors.New("LoadMeta returned the wrong area")
		}
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read waited for the log mutex")
	}
}

// BenchmarkMemStoreParallel is the stripes' scaling rung: every
// goroutine reads and swaps blocks of a stripe of its own, so no two
// share a lock, and ns/op at -cpu 2 against -cpu 1 shows what the
// goroutines still share — the allocator and memory bandwidth of the
// 4 KiB copy each Read returns.
func BenchmarkMemStoreParallel(b *testing.B) {
	geom := block.Geometry{BlockSize: 4096, NumBlocks: 4096}
	m, err := NewMem(geom)
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		stripe := next.Add(1) - 1
		buf := make([]byte, geom.BlockSize)
		for i := uint64(0); pb.Next(); i++ {
			idx := block.Index((stripe + i*block.OpStripes) % uint64(geom.NumBlocks))
			_, _, err := m.Read(idx)
			if err == nil {
				buf, err = m.Swap(idx, buf, block.Version(i))
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}
