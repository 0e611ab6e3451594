// Package coord is the broken barrierdiscipline fixture for local
// externalization: an install upcall or a publication of the agreed tuple
// racing ahead of the barrier hands the application — or any observer — a
// state whose checkpoint a crash can still lose.
package coord

type view struct{ seq uint64 }

type engine struct{ published view }

func (e *engine) commitCheckpointLocked(v view) error { return nil }
func (e *engine) barrier() error                      { return nil }
func (e *engine) notifyInstalled(v view)              {}
func (e *engine) notifyRolledBack(v view)             {}

func (e *engine) installAhead(v view) error {
	if err := e.commitCheckpointLocked(v); err != nil {
		return err
	}
	e.notifyInstalled(v) // want `install upcall notifyInstalled while records staged by commitCheckpointLocked`
	if err := e.barrier(); err != nil {
		return err
	}
	e.published = v
	return nil
}

func (e *engine) rollbackAhead(v view) error {
	if err := e.commitCheckpointLocked(v); err != nil {
		return err
	}
	e.notifyRolledBack(v) // want `install upcall notifyRolledBack while records staged by commitCheckpointLocked`
	return e.barrier()
}

func (e *engine) publishAhead(v view) error {
	if err := e.commitCheckpointLocked(v); err != nil {
		return err
	}
	e.published = v // want `publication of the agreed tuple while records staged by commitCheckpointLocked`
	return e.barrier()
}
