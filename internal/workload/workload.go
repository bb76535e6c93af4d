// Package workload generates synthetic block access streams.
//
// The paper's traffic analysis (§5) parameterises on the read to write
// ratio and cites the 4.2 BSD trace study [9] for a typical ratio around
// 2.5:1. No trace from 1985 is available here, so this package plays its
// role: streams of read/write operations with a configurable ratio over
// a uniform block access pattern, the one the §5 cost formulas assume.
package workload

import (
	"fmt"
	"math/rand"

	"relidev/internal/block"
)

// DefaultReadRatio is the read:write ratio observed on 4.2 BSD [9].
const DefaultReadRatio = 2.5

// OpKind distinguishes reads from writes.
type OpKind int

// Operation kinds.
const (
	Read OpKind = iota + 1
	Write
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one block access.
type Op struct {
	Kind  OpKind
	Index block.Index
}

// UniformPattern accesses every block with equal probability.
type UniformPattern struct {
	n   int
	rng *rand.Rand
}

// NewUniform returns a uniform pattern over n blocks.
func NewUniform(n int, seed int64) (*UniformPattern, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: uniform pattern needs n > 0, got %d", n)
	}
	return &UniformPattern{n: n, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next returns the next block index to access.
func (p *UniformPattern) Next() block.Index { return block.Index(p.rng.Intn(p.n)) }

// Generator produces a read/write operation stream over a pattern. The
// pattern's stream picks the blocks and the generator's own stream picks
// the kinds, so each is reproducible from its seed alone.
type Generator struct {
	pattern   *UniformPattern
	readRatio float64
	rng       *rand.Rand
}

// NewGenerator builds a generator with the given read:write ratio
// (reads per write; DefaultReadRatio mirrors [9]).
func NewGenerator(pattern *UniformPattern, readRatio float64, seed int64) (*Generator, error) {
	if pattern == nil {
		return nil, fmt.Errorf("workload: generator needs a pattern")
	}
	if readRatio < 0 {
		return nil, fmt.Errorf("workload: read ratio %v must be non-negative", readRatio)
	}
	return &Generator{
		pattern:   pattern,
		readRatio: readRatio,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// Next returns the next operation. The long-run ratio of reads to writes
// converges to the configured ratio.
func (g *Generator) Next() Op {
	kind := Write
	// P(read) = ratio / (ratio + 1).
	if g.rng.Float64() < g.readRatio/(g.readRatio+1) {
		kind = Read
	}
	return Op{Kind: kind, Index: g.pattern.Next()}
}
