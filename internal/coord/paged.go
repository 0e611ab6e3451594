package coord

import (
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
)

// pageSize returns the engine's configured page granularity.
func (en *Engine) pageSize() int {
	if en.cfg.PageSize > 0 {
		return en.cfg.PageSize
	}
	return pagestate.DefaultPageSize
}

// PageSize exposes the page granularity to tests.
func (en *Engine) PageSize() int { return en.pageSize() }

// pageState builds a paged view of flat state bytes under the engine's page
// size: O(S) copying and hashing. It is for flat bytes with no base state to
// rebase onto (Bootstrap, Restore's snapshot, AdoptMembership); everywhere
// else a flat state enters the paged world through Paged.Rebase.
func (en *Engine) pageState(b []byte) *pagestate.Paged {
	return pagestate.FromBytes(b, en.pageSize())
}

// ApplyUpdate exposes the validator's update fold for the transfer plane,
// so catch-up verification walks delta chains at O(delta · log S) per step
// exactly like live coordination.
func (en *Engine) ApplyUpdate(current *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	return en.cfg.Validator.ApplyUpdate(current, update)
}

// notifyInstalled and notifyRolledBack are the single call sites of the two
// install upcalls: the barrierdiscipline analyzer checks their ordering by
// these names.

// notifyInstalled makes the install upcall.
func (en *Engine) notifyInstalled(state *pagestate.Paged, t tuple.State) {
	en.cfg.Validator.Installed(state, t)
}

// notifyRolledBack makes the rollback upcall.
func (en *Engine) notifyRolledBack(state *pagestate.Paged, t tuple.State) {
	en.cfg.Validator.RolledBack(state, t)
}
