// Package coord is a barrierdiscipline fixture: a wire send racing ahead of
// the group-commit barrier fires, the stage -> barrier -> send order passes,
// a deliberate unbarriered probe carries a waiver, and a commit executor in
// contract order (stage -> barrier -> send -> install -> publish) passes.
package coord

type view struct{ seq uint64 }

type engine struct{ published view }

func (e *engine) logEvidenceStaged(kind string, b []byte) error { return nil }
func (e *engine) deleteRun(run string) error                    { return nil }
func (e *engine) barrier() error                                { return nil }
func (e *engine) send(to string, b []byte) error                { return nil }
func (e *engine) notifyInstalled(v view)                        {}
func (e *engine) notifyRolledBack(v view)                       {}

func (e *engine) raceAhead(to string, b []byte) error {
	if err := e.logEvidenceStaged("propose", b); err != nil {
		return err
	}
	return e.send(to, b) // want `wire send send while records staged by logEvidenceStaged`
}

func (e *engine) disciplined(to string, b []byte) error {
	if err := e.logEvidenceStaged("propose", b); err != nil {
		return err
	}
	if err := e.barrier(); err != nil {
		return err
	}
	return e.send(to, b)
}

func (e *engine) sendOnly(to string, b []byte) error {
	return e.send(to, b)
}

func (e *engine) waived(to string, b []byte) error {
	if err := e.logEvidenceStaged("probe", b); err != nil {
		return err
	}
	//lint:ignore barrierdiscipline fixture: probe message carries no durable claim
	return e.send(to, b)
}

// apply is the executor shape: everything after the barrier, install before
// publication, trailing records staged after both.
func (e *engine) apply(to string, b []byte, rollback, install view) error {
	if err := e.logEvidenceStaged("commit", b); err != nil {
		return err
	}
	if err := e.barrier(); err != nil {
		return err
	}
	if err := e.send(to, b); err != nil {
		return err
	}
	e.notifyRolledBack(rollback)
	e.notifyInstalled(install)
	e.published = install
	return e.deleteRun("run")
}

// initialise publishes with no install in the function: bootstrap and
// recovery seed the application themselves.
func (e *engine) initialise(v view) {
	e.published = v
}
