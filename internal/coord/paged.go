package coord

import (
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// PagedValidator is an optional extension of Validator. A validator that
// implements it receives the engine's replica as a copy-on-write paged state
// (pagestate.Paged) instead of flat bytes, so applying and validating a
// small update on a large object costs O(delta · log S) — no materialized
// full-state copies. Validators that only implement Validator keep working
// unchanged: the engine shims between the two forms by materializing flat
// copies (O(S) copying per call) and rebasing each flat result onto its base's
// pages, which compares O(S) bytes but hashes only the pages that changed.
//
// Contract: a *pagestate.Paged received through this interface is shared and
// immutable — implementations must mutate only a Clone (pagestate's
// copy-on-write makes that cheap) and must return a value the engine may in
// turn share.
type PagedValidator interface {
	// ValidateStatePaged judges a full-state overwrite (proposed is the flat
	// proposed state — it travelled on the wire).
	ValidateStatePaged(proposer string, current *pagestate.Paged, proposed []byte) wire.Decision
	// ValidateUpdatePaged judges an update (delta) against the paged base.
	ValidateUpdatePaged(proposer string, current *pagestate.Paged, update []byte) wire.Decision
	// ApplyUpdatePaged computes the state resulting from applying update,
	// without mutating current.
	ApplyUpdatePaged(current *pagestate.Paged, update []byte) (*pagestate.Paged, error)
	// InstalledPaged notifies that a newly validated state was installed.
	InstalledPaged(state *pagestate.Paged, t tuple.State)
	// RolledBackPaged notifies the proposer of a rollback to the agreed state.
	RolledBackPaged(state *pagestate.Paged, t tuple.State)
}

// pageSize returns the engine's configured page granularity.
func (en *Engine) pageSize() int {
	if en.cfg.PageSize > 0 {
		return en.cfg.PageSize
	}
	return pagestate.DefaultPageSize
}

// PageSize exposes the page granularity to the transfer plane and tests.
func (en *Engine) PageSize() int { return en.pageSize() }

// pageState builds a paged view of flat state bytes under the engine's page
// size: O(S) copying and hashing. It is for flat bytes with no base state to
// rebase onto (Bootstrap, Restore's snapshot, AdoptMembership); everywhere
// else a flat state enters the paged world through Paged.Rebase.
func (en *Engine) pageState(b []byte) *pagestate.Paged {
	return pagestate.FromBytes(b, en.pageSize())
}

// applyUpdateOn folds an update into a paged base: through the validator's
// paged path when available (O(delta)), else through the flat ApplyUpdate
// compatibility shim (O(S) materialize and compare, O(delta) hashing: the
// result is rebased onto base's pages; semantics identical).
func (en *Engine) applyUpdateOn(base *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	if en.pv != nil {
		return en.pv.ApplyUpdatePaged(base, update)
	}
	flat, err := en.cfg.Validator.ApplyUpdate(base.Bytes(), update)
	if err != nil {
		return nil, err
	}
	return base.Rebase(flat), nil
}

// ApplyUpdatePagedFn exposes the paged update fold for the transfer plane,
// so catch-up verification walks delta chains at O(delta · log S) per step
// exactly like live coordination.
func (en *Engine) ApplyUpdatePagedFn(current *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	return en.applyUpdateOn(current, update)
}

// validateStateOn dispatches overwrite validation.
func (en *Engine) validateStateOn(proposer string, base *pagestate.Paged, proposed []byte) wire.Decision {
	if en.pv != nil {
		return en.pv.ValidateStatePaged(proposer, base, proposed)
	}
	return en.cfg.Validator.ValidateState(proposer, base.Bytes(), proposed)
}

// validateUpdateOn dispatches update validation.
func (en *Engine) validateUpdateOn(proposer string, base *pagestate.Paged, update []byte) wire.Decision {
	if en.pv != nil {
		return en.pv.ValidateUpdatePaged(proposer, base, update)
	}
	return en.cfg.Validator.ValidateUpdate(proposer, base.Bytes(), update)
}

// notifyInstalled dispatches the install upcall.
func (en *Engine) notifyInstalled(state *pagestate.Paged, t tuple.State) {
	if en.pv != nil {
		en.pv.InstalledPaged(state, t)
		return
	}
	en.cfg.Validator.Installed(state.Bytes(), t)
}

// notifyRolledBack dispatches the rollback upcall.
func (en *Engine) notifyRolledBack(state *pagestate.Paged, t tuple.State) {
	if en.pv != nil {
		en.pv.RolledBackPaged(state, t)
		return
	}
	en.cfg.Validator.RolledBack(state.Bytes(), t)
}
