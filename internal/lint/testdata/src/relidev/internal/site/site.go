// Stand-in for relidev/internal/site with the same import path.
package site

import (
	"relidev/internal/block"
	"relidev/internal/protocol"
)

type Replica struct {
	id    protocol.SiteID
	state int
}

func New(id protocol.SiteID) *Replica { return &Replica{id: id} }

func (r *Replica) ID() protocol.SiteID { return r.id }

func (r *Replica) ReadLocal(idx block.Index) ([]byte, block.Version, error) {
	return nil, 0, nil
}

func (r *Replica) WriteLocal(idx block.Index, data []byte, ver block.Version) error {
	return nil
}

func (r *Replica) SetState(s int) { r.state = s }

func (r *Replica) SetWasAvailable(w protocol.SiteSet) error { return nil }
