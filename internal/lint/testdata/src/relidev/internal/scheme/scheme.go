// Stand-in for relidev/internal/scheme with the same import path.
package scheme

import (
	"context"

	"relidev/internal/block"
)

type OpLocks struct{ held int }

// SchemeObs stands in for the instrumentation handle.
type SchemeObs struct{}

// Op stands in for the controller op bracket.
type Op struct {
	l            *OpLocks
	Participants int
}

func (l *OpLocks) BeginOp(ob *SchemeObs, kind string, idx block.Index) Op {
	l.held++
	return Op{l: l}
}

func (l *OpLocks) BeginRecovery(ob *SchemeObs) Op {
	l.held++
	return Op{l: l}
}

func (o *Op) Start(ctx context.Context) context.Context { return ctx }
func (o *Op) End(err *error)                            { o.l.held-- }

func IsTransportError(err error) bool { return false }
