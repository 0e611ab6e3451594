package b2b

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"b2b/internal/coord"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// Object is the paper's B2BObject interface, implemented by the application
// (by a new object, by extension of an existing one, or by a wrapper —
// paper §5). State travels as opaque bytes; the application chooses its own
// serialization.
type Object interface {
	// GetState returns the object's current serialized state.
	GetState() ([]byte, error)
	// ApplyState installs a newly validated (or rolled-back) state. The
	// slice belongs to the application from then on: it may keep it as its
	// state and modify it.
	ApplyState(state []byte) error
	// ValidateState judges a state proposed by another party against this
	// party's local policy. nil accepts; an error's message becomes the
	// signed diagnostic accompanying the veto. proposer identifies the
	// party making the change (asymmetric rules, §5.2). state is the
	// received message itself, which is also kept as evidence: treat it as
	// read-only and do not keep it past the call — copy what you need.
	ValidateState(proposer string, state []byte) error
	// ValidateConnect judges the admission of a new party.
	ValidateConnect(subject string) error
	// ValidateDisconnect judges a disconnection (voluntary disconnections
	// are receipts only — a veto is ignored, per §4.5.4).
	ValidateDisconnect(subject string, voluntary bool) error
}

// UpdatableObject extends Object with delta coordination (§4.3.1): the
// update, rather than the whole state, travels on the wire.
type UpdatableObject interface {
	Object
	// GetUpdate returns the pending local update to coordinate (called at
	// the outermost Leave after Update was indicated).
	GetUpdate() ([]byte, error)
	// ApplyUpdate computes, WITHOUT mutating the object, the state that
	// results from applying update to current. current is a copy the
	// application owns for the duration of the call: it may patch current
	// in place and return it. If it returns any other slice, it must leave
	// current unmodified, because the middleware reuses that buffer to
	// materialise a later state. The returned slice passes to the middleware,
	// which may hand that same buffer back through ApplyState, so the
	// application must not keep or modify it after returning — nor return
	// a slice that shares memory with update. update is the received
	// message itself, kept as evidence: it is read-only and must not be
	// kept past the call.
	ApplyUpdate(current, update []byte) ([]byte, error)
	// ValidateUpdate judges an update proposed by another party. It must
	// treat current as read-only and must not keep it: the middleware
	// reuses that buffer for the ApplyUpdate call that follows. update is
	// the received message itself, kept as evidence: it is read-only and
	// must not be kept past the call either.
	ValidateUpdate(proposer string, current, update []byte) error
}

// EventType classifies coordCallback events (paper §5).
type EventType int

// Event types delivered through the Callback.
const (
	// EventInstalled: a newly validated state was installed at this replica.
	EventInstalled EventType = iota + 1
	// EventRolledBack: this party's proposal was invalidated; the replica
	// reverted to the agreed state.
	EventRolledBack
	// EventCoordComplete: an asynchronous/deferred coordination finished
	// (Err nil on success, ErrVetoed/ErrBlocked otherwise).
	EventCoordComplete
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventInstalled:
		return "installed"
	case EventRolledBack:
		return "rolled-back"
	case EventCoordComplete:
		return "coord-complete"
	default:
		return "unknown"
	}
}

// Event is a coordCallback notification.
type Event struct {
	Type   EventType
	Object string
	RunID  string
	Valid  bool
	Err    error
}

// Callback receives protocol progress events (the paper's coordCallback).
// Callbacks run on middleware goroutines and must not block.
// EventInstalled arrives before the installed state is published: AgreedSeq
// and AgreedState report it once the callback has returned (Settle waits
// for that).
type Callback func(Event)

// objectAdapter adapts an application Object to the internal coordination
// engine's validator interface. It also tracks replica divergence: an
// ApplyState failure means the local replica no longer holds the agreed
// state, which must never be silently accepted.
type objectAdapter struct {
	object string
	obj    Object
	cb     Callback

	// applyMu serialises all installs into the application object, so a
	// Resync racing a concurrent coordinated install cannot overwrite a
	// newer state with a stale one (or clear a divergence it shouldn't).
	// installed is the sequence of the last coordinated install: the engine
	// publishes its tuple only after the upcall returns, so Resync waits for
	// that publication before reading the agreed state.
	applyMu   sync.Mutex
	installed uint64

	mu        sync.Mutex
	divergent error

	// spare is a flat copy nobody else references, parked by ApplyUpdate
	// for flat to bring up to date; a taker swaps it out and owns it.
	spare atomic.Pointer[spareFlat]
}

// spareFlat is a dead flat buffer and the state whose content it holds.
type spareFlat struct {
	buf []byte
	of  *pagestate.Paged
}

// apply installs state into the application object, recording success or
// failure. A later successful install clears the divergence — the replica
// has converged again.
func (a *objectAdapter) apply(state []byte) error {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	return a.applyLocked(state)
}

// applyLatest installs whatever `agreed` reports once the install lock is
// held, so the state read cannot go stale between read and install. agreed
// receives the sequence of the last coordinated install.
func (a *objectAdapter) applyLatest(agreed func(installed uint64) []byte) error {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	return a.applyLocked(agreed(a.installed))
}

func (a *objectAdapter) applyLocked(state []byte) error {
	var wrapped error
	if err := a.obj.ApplyState(state); err != nil {
		wrapped = fmt.Errorf("%w: %v", ErrDivergent, err)
	}
	a.mu.Lock()
	a.divergent = wrapped
	a.mu.Unlock()
	return wrapped
}

// divergence reports the pending replica divergence, if any.
func (a *objectAdapter) divergence() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.divergent
}

var _ coord.Validator = (*objectAdapter)(nil)

// The upcalls below are the one place where the engine's paged replica meets
// the application's flat bytes: a state is materialized only for an
// application call that takes it, and a flat ApplyUpdate result re-enters
// the paged world through Rebase (copying and rehashing changed pages only).
// Every flat the adapter hands out comes from flat. Within a run,
// ValidateUpdate adopts the flat it materialised back into current,
// ApplyUpdate takes it and adopts the application's result into the state
// it returns, and Installed hands that same buffer to the application.
// Across runs, the current ApplyUpdate was given is dead once the
// application returns another slice: it is parked as the spare with the
// state it holds, and the next materialisation of a state of that size
// patches it (pagestate.Paged.BytesFrom), copying only the pages the two
// states do not share. An application that breaks the ApplyUpdate contract
// and writes into a current it does not return gives itself a wrong base
// later; the engine's check that an applied update yields the proposed root
// turns that into a veto, never into an agreed divergent state.

// flat materialises state for an application call that takes it, from the
// spare when there is one. When state's pending adoption is taken instead,
// the spare goes back for the next call; one of another size is dropped.
func (a *objectAdapter) flat(state *pagestate.Paged) []byte {
	s := a.spare.Swap(nil)
	if s == nil {
		return state.Bytes()
	}
	flat := state.BytesFrom(s.buf, s.of)
	if len(s.buf) == state.Size() && !sharesMemory(flat, s.buf) {
		a.spare.CompareAndSwap(nil, s)
	}
	return flat
}

// sharesMemory reports whether the backing arrays of x and y, up to their
// capacities, overlap.
func sharesMemory(x, y []byte) bool {
	x, y = x[:cap(x)], y[:cap(y)]
	return len(x) > 0 && len(y) > 0 &&
		uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}

func (a *objectAdapter) ValidateState(proposer string, _ *pagestate.Paged, proposed []byte) wire.Decision {
	if err := a.obj.ValidateState(proposer, proposed); err != nil {
		return wire.Rejected(err.Error())
	}
	return wire.Accepted
}

func (a *objectAdapter) ValidateUpdate(proposer string, current *pagestate.Paged, update []byte) wire.Decision {
	uo, ok := a.obj.(UpdatableObject)
	if !ok {
		return wire.Rejected("object does not support update coordination")
	}
	flat := a.flat(current)
	err := uo.ValidateUpdate(proposer, flat, update)
	current.Adopt(flat) // read-only to the application, so still current's content
	if err != nil {
		return wire.Rejected(err.Error())
	}
	return wire.Accepted
}

func (a *objectAdapter) ApplyUpdate(current *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	uo, ok := a.obj.(UpdatableObject)
	if !ok {
		return nil, ErrNotUpdatable
	}
	in := a.flat(current)
	out, err := uo.ApplyUpdate(in, update)
	if err != nil {
		return nil, err
	}
	next := current.Rebase(out)
	next.Adopt(out) // handed over by the application: Installed passes it back
	if !sharesMemory(in, out) {
		a.spare.Store(&spareFlat{buf: in, of: current}) // left unmodified by contract
	}
	return next, nil
}

func (a *objectAdapter) Installed(state *pagestate.Paged, t tuple.State) {
	a.applyMu.Lock()
	a.installed = t.Seq
	err := a.applyLocked(a.flat(state))
	a.applyMu.Unlock()
	if a.cb != nil {
		a.cb(Event{Type: EventInstalled, Object: a.object, Valid: err == nil, Err: err})
	}
}

func (a *objectAdapter) RolledBack(state *pagestate.Paged, _ tuple.State) {
	err := a.apply(a.flat(state))
	if a.cb != nil {
		a.cb(Event{Type: EventRolledBack, Object: a.object, Err: err})
	}
}

// membershipAdapter adapts an Object to the group manager's validator.
type membershipAdapter struct {
	obj Object
}

func (a *membershipAdapter) ValidateConnect(subject string) wire.Decision {
	if err := a.obj.ValidateConnect(subject); err != nil {
		return wire.Rejected(err.Error())
	}
	return wire.Accepted
}

func (a *membershipAdapter) ValidateDisconnect(subject string, voluntary bool) wire.Decision {
	if err := a.obj.ValidateDisconnect(subject, voluntary); err != nil {
		return wire.Rejected(err.Error())
	}
	return wire.Accepted
}
