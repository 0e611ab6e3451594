// Package coord is the broken barrierdiscipline fixture for the
// install-then-publish order: publishing the agreed tuple before the
// application holds the state lets an observer act on a replica that has
// not caught up (the Fig 5 transcript's stale board).
package coord

type view struct{ seq uint64 }

type engine struct{ published view }

func (e *engine) barrier() error          { return nil }
func (e *engine) notifyInstalled(v view)  {}
func (e *engine) notifyRolledBack(v view) {}

func (e *engine) publishFirst(v view) error {
	if err := e.barrier(); err != nil {
		return err
	}
	e.published = v // want `publication of the agreed tuple precedes install upcall notifyInstalled`
	e.notifyInstalled(v)
	return nil
}

func (e *engine) publishBeforeRollback(v view) error {
	if err := e.barrier(); err != nil {
		return err
	}
	e.published = v // want `publication of the agreed tuple precedes install upcall notifyRolledBack`
	e.notifyRolledBack(v)
	return nil
}

func (e *engine) installFirst(v view) error {
	if err := e.barrier(); err != nil {
		return err
	}
	e.notifyInstalled(v)
	e.published = v
	return nil
}
