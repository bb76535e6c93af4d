// Fixtures for lockcheck: positive cases carry // want comments;
// compliant code (marked "ok:") must produce no findings.
package voting

import (
	"relidev/internal/block"
	"relidev/internal/scheme"
	"relidev/internal/site"
)

type Controller struct {
	locks scheme.OpLocks
	obs   *scheme.SchemeObs
	self  *site.Replica
}

// ok: canonical pattern — acquire, defer the end on that value, mutate.
func (c *Controller) WriteGood(idx block.Index, data []byte) (err error) {
	op := c.locks.BeginOp(c.obs, "write", idx)
	defer op.End(&err)
	return c.self.WriteLocal(idx, data, 1)
}

// ok: recovery exclusion with the deferred end.
func (c *Controller) RecoverGood() (err error) {
	op := c.locks.BeginRecovery(c.obs)
	defer op.End(&err)
	c.self.SetState(2)
	return nil
}

// ok: helper with no lock of its own, but its only callers hold it.
func (c *Controller) repairLocked(idx block.Index) error {
	return c.self.WriteLocal(idx, nil, 3)
}

func (c *Controller) RecoverViaHelper(idx block.Index) (err error) {
	op := c.locks.BeginRecovery(c.obs)
	defer op.End(&err)
	return c.repairLocked(idx)
}

func missingDefer(c *Controller, idx block.Index) (err error) {
	op := c.locks.BeginOp(c.obs, "write", idx) // want "must be the statement 'op := ...' immediately followed by 'defer op.End"
	err = c.self.WriteLocal(idx, nil, 1)
	op.End(&err) // want "outside a defer"
	return err
}

func wrongValueDefer(c *Controller, idx block.Index, other scheme.Op) (err error) {
	op := c.locks.BeginOp(c.obs, "read", idx) // want "must be the statement 'op := ...' immediately followed by 'defer op.End"
	defer other.End(&err)
	op.Participants = 1
	return nil
}

func discardedAcquisition(c *Controller) {
	c.locks.BeginRecovery(c.obs) // want "BeginRecovery must be the statement"
}

func nestedAcquisition(c *Controller, idx block.Index) (err error) {
	op := c.locks.BeginOp(c.obs, "write", idx)
	defer op.End(&err)
	rec := c.locks.BeginRecovery(c.obs) // want "still held"
	defer rec.End(&err)
	return nil
}

func unguardedMutation(c *Controller, idx block.Index) error {
	return c.self.WriteLocal(idx, nil, 4) // want "WriteLocal outside an OpLocks critical section"
}

func unguardedSetState(c *Controller) {
	c.self.SetState(1) // want "SetState outside an OpLocks critical section"
}

// ok: documented exception — constructor runs before the controller
// is shared, so there is no concurrent reader yet.
func unsharedInit(c *Controller) error {
	//relidev:allow locking: runs single-threaded before the controller escapes
	return c.self.SetWasAvailable(nil)
}
