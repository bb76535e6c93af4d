package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"relidev/internal/block"
)

var testGeom = block.Geometry{BlockSize: 64, NumBlocks: 16}

// openers builds each Store implementation against a fresh backing.
func openers(t *testing.T) map[string]func(t *testing.T, g block.Geometry) Store {
	t.Helper()
	return map[string]func(t *testing.T, g block.Geometry) Store{
		"mem": func(t *testing.T, g block.Geometry) Store {
			s, err := NewMem(g)
			if err != nil {
				t.Fatalf("NewMem: %v", err)
			}
			return s
		},
		"file": func(t *testing.T, g block.Geometry) Store {
			s, err := CreateFile(filepath.Join(t.TempDir(), "img"), g)
			if err != nil {
				t.Fatalf("CreateFile: %v", err)
			}
			return s
		},
		"segment": func(t *testing.T, g block.Geometry) Store {
			s, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), g)
			if err != nil {
				t.Fatalf("CreateSeg: %v", err)
			}
			return s
		},
		"batched-segment": func(t *testing.T, g block.Geometry) Store {
			s, err := CreateSeg(filepath.Join(t.TempDir(), "segs"), g)
			if err != nil {
				t.Fatalf("CreateSeg: %v", err)
			}
			return NewBatcher(s, BatchPolicy{MaxBatch: 8})
		},
	}
}

func fill(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestStoreReadWriteRoundtrip(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			defer s.Close()

			data := fill(0xAB, testGeom.BlockSize)
			if err := s.Write(3, data, 7); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, ver, err := s.Read(3)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read data differs from written data")
			}
			if ver != 7 {
				t.Fatalf("version = %v, want 7", ver)
			}
			v, err := s.Version(3)
			if err != nil || v != 7 {
				t.Fatalf("Version = %v, %v; want 7, nil", v, err)
			}
		})
	}
}

func TestStoreFreshBlocksAreZero(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			defer s.Close()
			data, ver, err := s.Read(0)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if ver != 0 {
				t.Fatalf("fresh version = %v, want 0", ver)
			}
			if !bytes.Equal(data, make([]byte, testGeom.BlockSize)) {
				t.Fatal("fresh block not zeroed")
			}
		})
	}
}

func TestStoreOutOfRange(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			defer s.Close()
			if _, _, err := s.Read(block.Index(testGeom.NumBlocks)); err == nil {
				t.Fatal("Read out of range succeeded")
			}
			var oor *OutOfRangeError
			_, _, err := s.Read(99)
			if !errors.As(err, &oor) {
				t.Fatalf("error %v is not OutOfRangeError", err)
			}
			if err := s.Write(99, fill(1, testGeom.BlockSize), 1); !errors.As(err, &oor) {
				t.Fatalf("Write error %v is not OutOfRangeError", err)
			}
			if _, err := s.Version(99); !errors.As(err, &oor) {
				t.Fatalf("Version error %v is not OutOfRangeError", err)
			}
		})
	}
}

func TestStoreWrongPayloadSize(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			defer s.Close()
			var se *SizeError
			if err := s.Write(0, []byte{1, 2, 3}, 1); !errors.As(err, &se) {
				t.Fatalf("short write error = %v, want SizeError", err)
			}
			if err := s.Write(0, fill(0, testGeom.BlockSize+1), 1); !errors.As(err, &se) {
				t.Fatalf("long write error = %v, want SizeError", err)
			}
		})
	}
}

func TestStoreVector(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			defer s.Close()
			for i := 0; i < testGeom.NumBlocks; i++ {
				if err := s.Write(block.Index(i), fill(byte(i), testGeom.BlockSize), block.Version(i*2)); err != nil {
					t.Fatalf("Write %d: %v", i, err)
				}
			}
			v := s.Vector()
			for i := range v {
				if v[i] != block.Version(i*2) {
					t.Fatalf("Vector[%d] = %v, want %v", i, v[i], i*2)
				}
			}
		})
	}
}

func TestStoreMetaRoundtrip(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			defer s.Close()
			m, err := s.LoadMeta()
			if err != nil {
				t.Fatalf("LoadMeta: %v", err)
			}
			if m != nil {
				t.Fatalf("fresh meta = %v, want nil", m)
			}
			if err := s.SaveMeta([]byte("hello")); err != nil {
				t.Fatalf("SaveMeta: %v", err)
			}
			m, err = s.LoadMeta()
			if err != nil || string(m) != "hello" {
				t.Fatalf("LoadMeta = %q, %v", m, err)
			}
			// Shrinking works too.
			if err := s.SaveMeta([]byte("x")); err != nil {
				t.Fatalf("SaveMeta shrink: %v", err)
			}
			m, _ = s.LoadMeta()
			if string(m) != "x" {
				t.Fatalf("LoadMeta after shrink = %q", m)
			}
		})
	}
}

func TestStoreClosed(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, _, err := s.Read(0); !errors.Is(err, ErrClosed) {
				t.Fatalf("Read after close = %v, want ErrClosed", err)
			}
			if err := s.Write(0, fill(0, testGeom.BlockSize), 1); !errors.Is(err, ErrClosed) {
				t.Fatalf("Write after close = %v, want ErrClosed", err)
			}
			if _, err := s.LoadMeta(); !errors.Is(err, ErrClosed) {
				t.Fatalf("LoadMeta after close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestStoreReadReturnsCopy(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			defer s.Close()
			if err := s.Write(0, fill(5, testGeom.BlockSize), 1); err != nil {
				t.Fatal(err)
			}
			got, _, _ := s.Read(0)
			got[0] = 99
			again, _, _ := s.Read(0)
			if again[0] != 5 {
				t.Fatal("Read exposed internal storage")
			}
		})
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	s, err := CreateFile(path, testGeom)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(4, fill(0xCD, testGeom.BlockSize), 11); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveMeta([]byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer re.Close()
	if re.Geometry() != testGeom {
		t.Fatalf("reopened geometry = %+v, want %+v", re.Geometry(), testGeom)
	}
	data, ver, err := re.Read(4)
	if err != nil || ver != 11 || !bytes.Equal(data, fill(0xCD, testGeom.BlockSize)) {
		t.Fatalf("reopened Read = ver %v err %v", ver, err)
	}
	meta, err := re.LoadMeta()
	if err != nil || !bytes.Equal(meta, []byte{9, 9}) {
		t.Fatalf("reopened meta = %v, %v", meta, err)
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("definitely not a store image"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrBadImage) {
		// A too-short file yields a read error instead; both are fine as
		// long as opening fails.
		if err == nil {
			t.Fatal("OpenFile accepted garbage")
		}
	}
}

func TestFileStoreMetaTooLarge(t *testing.T) {
	s, err := CreateFile(filepath.Join(t.TempDir(), "img"), testGeom)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SaveMeta(make([]byte, defaultMetaCap+1)); err == nil {
		t.Fatal("SaveMeta accepted oversized metadata")
	}
}

// Property: for any sequence of writes, the last write to each block wins
// and the vector tracks the last version written.
func TestStoreLastWriteWins(t *testing.T) {
	type op struct {
		Idx  uint8
		Fill byte
		Ver  uint16
	}
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			if name == "file" && testing.Short() {
				t.Skip("file store property test skipped in -short")
			}
			f := func(ops []op) bool {
				s := open(t, testGeom)
				defer s.Close()
				last := make(map[block.Index]op)
				for _, o := range ops {
					idx := block.Index(int(o.Idx) % testGeom.NumBlocks)
					o.Idx = uint8(idx)
					if err := s.Write(idx, fill(o.Fill, testGeom.BlockSize), block.Version(o.Ver)); err != nil {
						return false
					}
					last[idx] = o
				}
				for idx, o := range last {
					data, ver, err := s.Read(idx)
					if err != nil || ver != block.Version(o.Ver) || !bytes.Equal(data, fill(o.Fill, testGeom.BlockSize)) {
						return false
					}
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreSwap holds every store to Swap's contract, the stores that
// keep the caller's buffer (mem, segment, batched-segment) and the
// Read+Write fallback (file, and a Batcher over it) alike: prev holds
// exactly the displaced bytes and the block reads back buf at ver; a
// swap refused for a bad index, a short buffer or a closed store returns
// no prev and leaves buf the caller's, the block untouched.
func TestStoreSwap(t *testing.T) {
	mk := openers(t)
	mk["batched-file"] = func(t *testing.T, g block.Geometry) Store {
		return NewBatcher(mk["file"](t, g), BatchPolicy{MaxBatch: 8})
	}
	keeps := map[string]bool{"mem": true, "segment": true, "batched-segment": true}
	bs := testGeom.BlockSize
	for name, open := range mk {
		t.Run(name, func(t *testing.T) {
			s := open(t, testGeom)
			if err := s.Write(3, fill(0xAB, bs), 7); err != nil {
				t.Fatal(err)
			}
			buf := fill(0xCD, bs)
			prev, err := Swap(s, 3, buf, 8)
			if err != nil || !bytes.Equal(prev, fill(0xAB, bs)) {
				t.Fatalf("Swap displaced %x (err %v), want the block's old bytes", prev, err)
			}
			if data, ver, err := s.Read(3); err != nil || ver != 8 || !bytes.Equal(data, buf) {
				t.Fatalf("block after Swap = %x@%d (err %v), want buf@8", data, ver, err)
			}
			// Swapping again hands back buf itself from a store that kept
			// it, and a copy of its bytes from the fallback.
			again, err := Swap(s, 3, prev, 9)
			if err != nil || !bytes.Equal(again, fill(0xCD, bs)) {
				t.Fatalf("second Swap displaced %x (err %v)", again, err)
			}
			if kept := &again[0] == &buf[0]; kept != keeps[name] {
				t.Fatalf("second Swap returned the first one's buffer = %v, want %v", kept, keeps[name])
			}

			spare := fill(0xEE, bs)
			refused := func(what string, prev []byte, err error, want error) {
				t.Helper()
				if prev != nil || err == nil || (want != nil && !errors.Is(err, want)) {
					t.Fatalf("Swap %s = %v, %v; want nil and an error", what, prev, err)
				}
				spare[0]++ // still the caller's: writing it must not reach the store
				if err == ErrClosed {
					return
				}
				if data, ver, err := s.Read(3); err != nil || ver != 9 || !bytes.Equal(data, fill(0xAB, bs)) {
					t.Fatalf("block after a refused Swap %s = %x@%d (err %v)", what, data, ver, err)
				}
			}
			var oor *OutOfRangeError
			prev, err = Swap(s, block.Index(testGeom.NumBlocks), spare, 10)
			if !errors.As(err, &oor) {
				t.Fatalf("out-of-range Swap: %v", err)
			}
			refused("out of range", prev, err, nil)
			var se *SizeError
			prev, err = Swap(s, 3, spare[:bs-1], 10)
			if !errors.As(err, &se) {
				t.Fatalf("short-buffer Swap: %v", err)
			}
			refused("of a short buffer", prev, err, nil)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			prev, err = Swap(s, 3, spare, 10)
			refused("after Close", prev, err, ErrClosed)
		})
	}
}
