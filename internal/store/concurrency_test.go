package store

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"relidev/internal/block"
)

// TestConcurrentStoreAccess drives every Store implementation from many
// goroutines; with -race this proves the locking discipline.
func TestConcurrentStoreAccess(t *testing.T) {
	impls := map[string]Store{}
	if m, err := NewMem(testGeom); err == nil {
		impls["mem"] = m
	}
	if f, err := CreateFile(filepath.Join(t.TempDir(), "img"), testGeom); err == nil {
		impls["file"] = f
	}
	if s, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), testGeom, WithMaxSegmentBytes(16<<10)); err == nil {
		impls["segment"] = s
	}
	if s, err := CreateSeg(filepath.Join(t.TempDir(), "batched"), testGeom, WithMaxSegmentBytes(16<<10)); err == nil {
		impls["batched-segment"] = NewBatcher(s, BatchPolicy{MaxBatch: 8})
	}
	for name, s := range impls {
		s := s
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := fill(byte(w), testGeom.BlockSize)
					for i := 0; i < 200; i++ {
						idx := block.Index((w + i) % testGeom.NumBlocks)
						if err := s.Write(idx, buf, block.Version(i)); err != nil {
							t.Error(err)
							return
						}
						if _, _, err := s.Read(idx); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.Version(idx); err != nil {
							t.Error(err)
							return
						}
						_ = s.Vector()
						if i%50 == 0 {
							if err := s.SaveMeta([]byte{byte(w)}); err != nil {
								t.Error(err)
								return
							}
							if _, err := s.LoadMeta(); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestVersionWithoutLock races MemStore's and SegStore's lock-free
// Version against every writer: readers call Version, Read and Vector
// while one writer each runs Write, Swap (reusing the buffers it gets
// back), WriteRun and SaveMeta, then the store closes under them. Each
// block's writer raises its version by one per install and stamps the
// version into the data, so a Read that follows a Version must return
// data at least that new and agreeing with its own version; and once
// Close has returned, every call fails with ErrClosed. Run it with -race.
func TestVersionWithoutLock(t *testing.T) {
	geom := block.Geometry{BlockSize: 64, NumBlocks: 12}
	stores := map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store {
			m, err := NewMem(geom)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"segment": func(t *testing.T) Store {
			s, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), geom, WithMaxSegmentBytes(4<<10))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	stamp := func(buf []byte, ver block.Version) []byte {
		binary.LittleEndian.PutUint64(buf, uint64(ver))
		return buf
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			var closing atomic.Bool
			// failed reports whether err ends the caller's loop: ErrClosed
			// once Close has begun, a test failure otherwise.
			failed := func(err error) bool {
				if err != nil && !(closing.Load() && errors.Is(err, ErrClosed)) {
					t.Error(err)
				}
				return err != nil
			}
			const writers, rounds = 3, 100
			var readers, writing sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := r; ; i++ {
						idx := block.Index(i % geom.NumBlocks)
						v, err := s.Version(idx)
						if failed(err) {
							return
						}
						data, ver, err := s.Read(idx)
						if failed(err) {
							return
						}
						if got := block.Version(binary.LittleEndian.Uint64(data)); ver < v || got != ver {
							t.Errorf("block %d: Version %d, then Read %d holding data of %d", idx, v, ver, got)
							return
						}
						_ = s.Vector()
					}
				}(r)
			}
			// Writer w owns blocks w, w+writers, ...: Write, Swap and
			// WriteRun respectively.
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					buf := make([]byte, geom.BlockSize)
					for ver := block.Version(1); ver <= rounds; ver++ {
						var err error
						switch w {
						case 0:
							for idx := 0; idx < geom.NumBlocks && err == nil; idx += writers {
								err = s.Write(block.Index(idx), stamp(buf, ver), ver)
							}
						case 1:
							for idx := 1; idx < geom.NumBlocks && err == nil; idx += writers {
								buf, err = Swap(s, block.Index(idx), stamp(buf, ver), ver)
							}
						case 2:
							var run []Install
							for idx := 2; idx < geom.NumBlocks; idx += writers {
								run = append(run, Install{Index: block.Index(idx), Data: stamp(make([]byte, geom.BlockSize), ver), Version: ver})
							}
							err = WriteRun(s, run)
						}
						if err == nil && ver%10 == 0 {
							err = s.SaveMeta([]byte{byte(ver)})
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			writing.Wait()
			closing.Store(true)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			readers.Wait()
			buf := make([]byte, geom.BlockSize)
			_, verErr := s.Version(0)
			_, _, readErr := s.Read(0)
			prev, swapErr := Swap(s, 1, buf, rounds+1)
			_, metaErr := s.LoadMeta()
			for what, err := range map[string]error{
				"Version": verErr, "Read": readErr, "Swap": swapErr, "LoadMeta": metaErr,
				"Write":    s.Write(0, buf, rounds+1),
				"WriteRun": WriteRun(s, []Install{{Index: 2, Data: buf, Version: rounds + 1}}),
				"SaveMeta": s.SaveMeta([]byte{1}),
			} {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", what, err)
				}
			}
			if prev != nil {
				t.Error("a Swap after Close displaced a buffer")
			}
		})
	}
}
