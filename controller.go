package b2b

import (
	"context"
	"fmt"
	"sync"

	"time"

	"b2b/internal/coord"
	"b2b/internal/group"
	"b2b/internal/tuple"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

// accessKind tracks the strongest access indicated in the current scope.
type accessKind int

const (
	accessNone accessKind = iota
	accessExamine
	accessOverwrite
	accessUpdate
)

// Controller is the paper's B2BObjectController: the local interface to
// configuration, initiation and control of information sharing for one
// bound object. Enter/Leave demarcate state access scopes; Examine,
// Overwrite and Update indicate the access type (and are the hooks where
// concurrency-control or transactional mechanisms would attach, §5);
// coordination runs at the outermost Leave.
//
// In DeferredSynchronous and Asynchronous modes the controller can pipeline
// coordination: SetPipelineWindow(w) lets up to w Leaves run concurrently,
// each proposal chained to its predecessor's proposed state, with outcomes
// delivered strictly in Leave order (CoordCommit collects the oldest
// uncollected outcome; callbacks fire in initiation order). The default
// window of 1 reproduces the paper's serialized behaviour exactly.
//
// A Controller is safe for use by one application goroutine at a time
// (matching the paper's single client per object replica); concurrent
// scopes on one controller are a programming error.
type Controller struct {
	object    string
	obj       Object
	adapter   *objectAdapter
	engine    *coord.Engine
	manager   *group.Manager
	xfer      *xfer.Manager
	mode      Mode
	cb        Callback
	opTimeout time.Duration
	admit     func(context.Context) error // quota admission control (nil: none)

	mu       sync.Mutex
	depth    int
	access   accessKind
	window   int
	pendingQ []chan pendingResult // uncollected outcomes, Leave order
	lastInit chan struct{}        // previous Leave's run-initiated signal
	lastDone chan struct{}        // previous Leave's callback-delivered signal
}

type pendingResult struct {
	out coord.Outcome
	err error
}

// Bootstrap establishes this party as a founding member of the sharing
// group with the object's current state. Every founding member must call
// Bootstrap with the same join-ordered member list.
func (c *Controller) Bootstrap(members []string) error {
	state, err := c.obj.GetState()
	if err != nil {
		return fmt.Errorf("b2b: reading object state: %w", err)
	}
	return c.engine.Bootstrap(state, members)
}

// Restore recovers membership and agreed state from the participant's
// persistent store after a crash, then re-installs the agreed state into
// the application object. A successful install clears any recorded replica
// divergence.
func (c *Controller) Restore() error {
	if err := c.engine.Restore(); err != nil {
		return err
	}
	_, state := c.engine.Agreed()
	return c.adapter.apply(state)
}

// Connect requests admission to the sharing group via any known member
// (the paper's connect operation; the member redirects to the sponsor if
// necessary). On success the agreed state is installed into the object.
func (c *Controller) Connect(ctx context.Context, contact string) error {
	if err := c.manager.Join(ctx, contact); err != nil {
		return err
	}
	_, state := c.engine.Agreed()
	return c.adapter.apply(state)
}

// Disconnect leaves the sharing group voluntarily (§4.5.4).
func (c *Controller) Disconnect(ctx context.Context) error {
	return c.manager.Leave(ctx)
}

// Evict proposes eviction of one or more members (§4.5.4).
func (c *Controller) Evict(ctx context.Context, evictees ...string) error {
	return c.manager.Evict(ctx, evictees...)
}

// Members returns the join-ordered membership of the sharing group.
func (c *Controller) Members() []string {
	_, members := c.engine.Group()
	return members
}

// AgreedState returns the currently agreed (validated) object state.
func (c *Controller) AgreedState() []byte {
	_, state := c.engine.Agreed()
	return state
}

// AgreedSeq returns the sequence number of the agreed state tuple.
func (c *Controller) AgreedSeq() uint64 {
	t := c.engine.AgreedTuple()
	return t.Seq
}

// ActiveRuns lists coordination runs answered but not yet committed —
// evidence of blocked protocol runs (§4.4).
func (c *Controller) ActiveRuns() []string { return c.engine.ActiveRuns() }

// SetPipelineWindow sets how many coordination runs this party may hold in
// flight against the object at once. With w > 1 a DeferredSynchronous or
// Asynchronous Leave no longer waits for the previous run: up to w runs
// overlap, each chained to its predecessor's proposed state, and a veto of
// run k rolls back the whole suffix k+1..w at every party (the paper's
// rollback rule, generalized to the pipeline). w < 1 is treated as 1, the
// paper-faithful serialized default.
func (c *Controller) SetPipelineWindow(w int) {
	if w < 1 {
		w = 1
	}
	c.mu.Lock()
	c.window = w
	c.mu.Unlock()
	c.engine.SetWindow(w)
}

// PipelineWindow reports the controller's pipeline window.
func (c *Controller) PipelineWindow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windowLocked()
}

func (c *Controller) windowLocked() int {
	if c.window < 1 {
		return 1
	}
	return c.window
}

// Enter opens a state access scope. Scopes nest; coordination triggers at
// the Leave matching the outermost Enter.
func (c *Controller) Enter() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.depth++
}

// Examine indicates the current scope only reads object state.
func (c *Controller) Examine() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.access < accessExamine {
		c.access = accessExamine
	}
}

// Overwrite indicates the current scope replaces object state; the full
// state will be coordinated at the outermost Leave.
func (c *Controller) Overwrite() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.access < accessOverwrite {
		c.access = accessOverwrite
	}
}

// Update indicates the current scope updates object state incrementally;
// the update (from UpdatableObject.GetUpdate) will be coordinated at the
// outermost Leave (§4.3.1).
func (c *Controller) Update() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.access = accessUpdate
}

// Leave closes the current scope. At the outermost Leave with Overwrite or
// Update access, the state change is coordinated with all sharing parties.
// In Synchronous mode Leave blocks and returns the outcome; in the other
// modes it returns immediately (collect via CoordCommit or the callback).
func (c *Controller) Leave() error {
	return c.LeaveContext(context.Background())
}

// LeaveContext is Leave with caller-controlled cancellation of the
// synchronous wait.
func (c *Controller) LeaveContext(ctx context.Context) error {
	c.mu.Lock()
	if c.depth == 0 {
		c.mu.Unlock()
		return ErrNoScope
	}
	c.depth--
	if c.depth > 0 {
		c.mu.Unlock()
		return nil // inner scope: roll up into the outer one
	}
	access := c.access
	c.access = accessNone
	mode := c.mode
	if access == accessNone || access == accessExamine {
		c.mu.Unlock()
		return nil // read-only scope: nothing to coordinate
	}
	if mode == DeferredSynchronous && len(c.pendingQ) >= c.windowLocked() {
		c.mu.Unlock()
		return ErrBusyPending
	}
	c.mu.Unlock()

	if err := c.adapter.divergence(); err != nil {
		// A replica that failed to install the agreed state must not propose
		// on top of it; Restore (or a later successful install) clears this.
		return err
	}
	if err := c.admitScope(ctx); err != nil {
		return err
	}

	// The state (or update) is captured synchronously — each Leave proposes
	// exactly the state its scope produced, even when later scopes mutate
	// the object before the run completes.
	capture := func() (func(context.Context) (*coord.RunHandle, error), error) {
		if access == accessUpdate {
			uo, ok := c.obj.(UpdatableObject)
			if !ok {
				return nil, ErrNotUpdatable
			}
			update, err := uo.GetUpdate()
			if err != nil {
				return nil, fmt.Errorf("b2b: reading update: %w", err)
			}
			return func(ctx context.Context) (*coord.RunHandle, error) {
				return c.engine.ProposeUpdateAsync(ctx, update)
			}, nil
		}
		state, err := c.obj.GetState()
		if err != nil {
			return nil, fmt.Errorf("b2b: reading object state: %w", err)
		}
		return func(ctx context.Context) (*coord.RunHandle, error) {
			return c.engine.ProposeAsync(ctx, state)
		}, nil
	}
	initiate, err := capture()
	if err != nil {
		return err
	}

	if mode == Synchronous {
		tctx, cancel := context.WithTimeout(ctx, c.opTimeout)
		defer cancel()
		h, err := initiate(tctx)
		if err != nil {
			return err
		}
		_, err = h.Await(tctx)
		return err
	}

	ch := make(chan pendingResult, 1)
	c.mu.Lock()
	c.pendingQ = append(c.pendingQ, ch)
	if len(c.pendingQ) > c.windowLocked() {
		// Asynchronous mode keeps at most window uncollected outcomes; the
		// oldest is dropped (its completion was already signalled through
		// the callback).
		c.pendingQ = c.pendingQ[1:]
	}
	prevInit := c.lastInit
	myInit := make(chan struct{})
	c.lastInit = myInit
	prevDone := c.lastDone
	myDone := make(chan struct{})
	c.lastDone = myDone
	c.mu.Unlock()

	// Initiation and the outcome wait run off the caller's path — Leave
	// returns immediately. Chaining on the previous Leave's initiation
	// keeps pipelined runs reaching the engine in Leave order; chaining on
	// its completion delivers callbacks in that same order, matching the
	// engine's pipeline-ordered verdicts.
	go func() {
		defer close(myDone)
		var res pendingResult
		if prevInit != nil {
			<-prevInit
		}
		// The operation timeout starts once this Leave actually reaches the
		// engine: time spent queued behind a stalled predecessor must not
		// consume this run's own budget.
		tctx, cancel := context.WithTimeout(context.Background(), c.opTimeout)
		h, initErr := initiate(tctx)
		close(myInit)
		if initErr != nil {
			res.err = initErr
		} else {
			out, err := h.Await(tctx)
			res = pendingResult{out: out, err: err}
		}
		cancel()
		ch <- res
		if prevDone != nil {
			<-prevDone
		}
		if c.cb != nil {
			c.cb(Event{
				Type:   EventCoordComplete,
				Object: c.object,
				RunID:  res.out.RunID,
				Valid:  res.err == nil && res.out.Valid,
				Err:    res.err,
			})
		}
	}()
	return nil
}

// admitScope applies the participant's quota admission control before a
// locally initiated coordination run: a group over its resident-page or
// pending-bytes caps is refused with ErrQuotaExceeded, a group whose peer
// links are backlogged is throttled until they drain (backpressure on the
// flooding tenant only). Bounded by the operation timeout so a stuck peer
// link surfaces as an error rather than a hang.
func (c *Controller) admitScope(ctx context.Context) error {
	if c.admit == nil {
		return nil
	}
	actx, cancel := context.WithTimeout(ctx, c.opTimeout)
	defer cancel()
	return c.admit(actx)
}

// CoordCommit blocks until the oldest uncollected deferred coordination
// completes (paper §5). With a pipeline window above 1, outcomes are
// collected in Leave order: one CoordCommit per deferred Leave.
func (c *Controller) CoordCommit(ctx context.Context) error {
	c.mu.Lock()
	if len(c.pendingQ) == 0 {
		c.mu.Unlock()
		return ErrNoPending
	}
	ch := c.pendingQ[0]
	c.pendingQ = c.pendingQ[1:]
	c.mu.Unlock()
	select {
	case res := <-ch:
		return res.err
	case <-ctx.Done():
		// Put the channel back in front so a later CoordCommit still
		// collects outcomes in Leave order.
		c.mu.Lock()
		c.pendingQ = append([]chan pendingResult{ch}, c.pendingQ...)
		c.mu.Unlock()
		return ctx.Err()
	}
}

// ReplicaErr reports whether the local replica diverged from the agreed
// state: the most recent coordinated install whose ApplyState failed, wrapped
// in ErrDivergent. Nil means the replica reflects the agreed state. Leave and
// SyncCoord refuse to propose while divergent; Resync (live) or Restore
// (after a crash) clears the condition by re-installing the agreed state.
func (c *Controller) ReplicaErr() error {
	return c.adapter.divergence()
}

// Resync re-installs the currently agreed state into the application object,
// clearing a replica divergence once the object can install again (e.g.
// after a transient storage failure). Unlike Restore it leaves the engine's
// in-memory and persistent state untouched. It may wait briefly, until the
// engine publishes the state it last installed, so it must not be called
// from the Callback: that publication follows the callback's return.
// Resync is purely local: when the engine's own agreed copy is stale — this
// party missed commits while partitioned or down — use CatchUp, which
// fetches the missing state from a live peer first.
func (c *Controller) Resync() error {
	return c.adapter.applyLatest(func(installed uint64) []byte {
		// The engine publishes an installed state's tuple only after the
		// install upcall returns: wait for that (bounded by the operation
		// timeout), so Resync never re-installs an older agreed state over
		// the one the object was just handed.
		ctx, cancel := context.WithTimeout(context.Background(), c.opTimeout)
		defer cancel()
		for {
			ch := c.engine.Watch()
			if c.engine.AgreedTuple().Seq >= installed || ctx.Err() != nil {
				_, state := c.engine.Agreed()
				return state
			}
			select {
			case <-ch:
			case <-ctx.Done():
			}
		}
	})
}

// CatchUp is the network resync path (anti-entropy): it asks live peers for
// agreed state this party is missing — a delta suffix of the runs it slept
// through when a peer's checkpoint chain still covers them, a chunked
// snapshot otherwise — verifies it hash-by-hash, installs it into the
// engine (persisting a checkpoint) and into the application object, and
// clears any replica divergence. When every reachable peer confirms this
// party is already current it degrades to a local Resync, so callers can
// use it wherever Resync is too weak.
func (c *Controller) CatchUp(ctx context.Context) error {
	advanced, err := c.xfer.CatchUp(ctx)
	if err != nil {
		return err
	}
	if !advanced {
		return c.Resync()
	}
	// InstallCatchUp already pushed the state into the application object;
	// surface an install failure the same way Resync would.
	return c.adapter.divergence()
}

// SyncCoord coordinates the object's current state immediately, outside any
// Enter/Leave scope (the paper's syncCoord operation).
func (c *Controller) SyncCoord(ctx context.Context) error {
	if err := c.adapter.divergence(); err != nil {
		return err
	}
	if err := c.admitScope(ctx); err != nil {
		return err
	}
	state, err := c.obj.GetState()
	if err != nil {
		return fmt.Errorf("b2b: reading object state: %w", err)
	}
	_, err = c.engine.Propose(ctx, state)
	return err
}

// Decision re-exports wire.Decision for applications inspecting outcomes.
type Decision = wire.Decision

// StateTuple re-exports the state identifier tuple type.
type StateTuple = tuple.State

// Settle blocks until every coordination run this party has validated is
// committed and installed — i.e. the local replica reflects all decided
// changes. Call it before reading or modifying the object when another
// party may have just coordinated a change.
func (c *Controller) Settle(ctx context.Context) error {
	return c.engine.WaitQuiescent(ctx)
}
