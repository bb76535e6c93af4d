package workload

import (
	"math"
	"testing"

	"relidev/internal/block"
)

func TestPatternValidation(t *testing.T) {
	if _, err := NewUniform(0, 1); err == nil {
		t.Fatal("uniform accepted n=0")
	}
	if _, err := NewUniform(-1, 1); err == nil {
		t.Fatal("uniform accepted n=-1")
	}
}

func TestUniformPatternInRange(t *testing.T) {
	p, err := NewUniform(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[block.Index]bool)
	for i := 0; i < 2000; i++ {
		idx := p.Next()
		if int(idx) >= 16 {
			t.Fatalf("index %v out of range", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 16 {
		t.Fatalf("uniform over 16 blocks touched only %d", len(seen))
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(nil, 2.5, 1); err == nil {
		t.Fatal("accepted nil pattern")
	}
	p, _ := NewUniform(4, 1)
	if _, err := NewGenerator(p, -1, 1); err == nil {
		t.Fatal("accepted negative ratio")
	}
}

func TestGeneratorRatioConverges(t *testing.T) {
	for _, ratio := range []float64{0, 1, DefaultReadRatio, 4} {
		p, _ := NewUniform(8, 3)
		g, err := NewGenerator(p, ratio, 4)
		if err != nil {
			t.Fatal(err)
		}
		const ops = 60000
		for i := 0; i < ops; i++ {
			op := g.Next()
			if op.Kind != Read && op.Kind != Write {
				t.Fatalf("bad op kind %v", op.Kind)
			}
		}
		reads, writes := g.Counts()
		if reads+writes != ops {
			t.Fatalf("counts %d+%d != %d", reads, writes, ops)
		}
		wantReadFrac := ratio / (ratio + 1)
		gotReadFrac := float64(reads) / float64(ops)
		if math.Abs(gotReadFrac-wantReadFrac) > 0.01 {
			t.Fatalf("ratio %v: read fraction %v, want %v", ratio, gotReadFrac, wantReadFrac)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("OpKind.String mismatch")
	}
	if OpKind(7).String() != "op(7)" {
		t.Fatal("invalid OpKind.String mismatch")
	}
}

func TestGeneratorZeroRatioIsAllWrites(t *testing.T) {
	p, _ := NewUniform(4, 5)
	g, _ := NewGenerator(p, 0, 6)
	for i := 0; i < 100; i++ {
		if op := g.Next(); op.Kind != Write {
			t.Fatal("ratio 0 produced a read")
		}
	}
}
