package block

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	tests := []struct {
		name    string
		geom    Geometry
		wantErr bool
	}{
		{name: "ok", geom: Geometry{BlockSize: 512, NumBlocks: 8}, wantErr: false},
		{name: "one block", geom: Geometry{BlockSize: 1, NumBlocks: 1}, wantErr: false},
		{name: "zero block size", geom: Geometry{BlockSize: 0, NumBlocks: 8}, wantErr: true},
		{name: "negative block size", geom: Geometry{BlockSize: -1, NumBlocks: 8}, wantErr: true},
		{name: "zero blocks", geom: Geometry{BlockSize: 512, NumBlocks: 0}, wantErr: true},
		{name: "negative blocks", geom: Geometry{BlockSize: 512, NumBlocks: -3}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.geom.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestGeometrySize(t *testing.T) {
	g := Geometry{BlockSize: 4096, NumBlocks: 1 << 20}
	if got, want := g.Size(), int64(4096)<<20; got != want {
		t.Fatalf("Size() = %d, want %d", got, want)
	}
}

func TestGeometryContains(t *testing.T) {
	g := Geometry{BlockSize: 512, NumBlocks: 10}
	if !g.Contains(0) || !g.Contains(9) {
		t.Fatal("Contains rejected in-range index")
	}
	if g.Contains(10) || g.Contains(1000) {
		t.Fatal("Contains accepted out-of-range index")
	}
}

func TestVectorGetSet(t *testing.T) {
	v := NewVector(4)
	v.Set(2, 7)
	if got := v.Get(2); got != 7 {
		t.Fatalf("Get(2) = %v, want 7", got)
	}
	if got := v.Get(100); got != 0 {
		t.Fatalf("Get out of range = %v, want 0", got)
	}
	v.Set(100, 9) // must not panic
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !v.Equal(Vector{1, 2, 3}) {
		t.Fatal("original mutated")
	}
}

// TestVectorDominatesOrEqual: a vector dominates-or-equals another
// (§3.2: a continuously available site's vector dominates every other
// site's) exactly when it is stale against it at no block — the test
// recovery runs through StaleAgainst.
func TestVectorDominatesOrEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want bool
	}{
		{name: "equal", a: Vector{1, 2}, b: Vector{1, 2}, want: true},
		{name: "dominates", a: Vector{2, 2}, b: Vector{1, 2}, want: true},
		{name: "dominated", a: Vector{1, 2}, b: Vector{2, 2}, want: false},
		{name: "incomparable", a: Vector{2, 1}, b: Vector{1, 2}, want: false},
		{name: "empty", a: Vector{}, b: Vector{}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := len(tt.a.StaleAgainst(tt.b)) == 0; got != tt.want {
				t.Fatalf("%v stale against %v at no block = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestVectorStaleAgainst(t *testing.T) {
	v := Vector{1, 5, 3, 0}
	newer := Vector{2, 5, 4, 0}
	got := v.StaleAgainst(newer)
	want := []Index{0, 2}
	if len(got) != len(want) {
		t.Fatalf("StaleAgainst = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StaleAgainst = %v, want %v", got, want)
		}
	}
	if n := len(newer.StaleAgainst(v)); n != 0 {
		t.Fatalf("newer vector reported %d stale blocks against older", n)
	}
}

func TestVectorSum(t *testing.T) {
	if got := (Vector{1, 2, 3}).Sum(); got != 6 {
		t.Fatalf("Sum = %d, want 6", got)
	}
	if got := (Vector{}).Sum(); got != 0 {
		t.Fatalf("empty Sum = %d, want 0", got)
	}
}

// Property: a vector is never stale against itself, and a vector bumped
// at every block is stale nowhere against the original, which is stale
// everywhere against it.
func TestVectorDominationProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		v := make(Vector, len(raw))
		for i, r := range raw {
			v[i] = Version(r)
		}
		if len(v.StaleAgainst(v)) != 0 {
			return false
		}
		bumped := v.Clone()
		for i := range bumped {
			bumped[i]++
		}
		return len(bumped.StaleAgainst(v)) == 0 &&
			len(v.StaleAgainst(bumped)) == len(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: StaleAgainst returns exactly the positions where v < newer.
func TestVectorStaleAgainstExact(t *testing.T) {
	f := func(a, b []uint8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		va := make(Vector, n)
		vb := make(Vector, n)
		for i := 0; i < n; i++ {
			va[i], vb[i] = Version(a[i]), Version(b[i])
		}
		stale := va.StaleAgainst(vb)
		mark := make(map[Index]bool, len(stale))
		for _, idx := range stale {
			mark[idx] = true
		}
		for i := 0; i < n; i++ {
			if (va[i] < vb[i]) != mark[Index(i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if got := Index(3).String(); got != "blk3" {
		t.Fatalf("Index.String = %q", got)
	}
	if got := Version(12).String(); got != "v12" {
		t.Fatalf("Version.String = %q", got)
	}
}
