// Package coord implements the B2BObjects state coordination protocol
// (paper §4.3): non-repudiable two-phase commit over object replicas held by
// mutually distrusting parties.
//
//  1. p   ==> R_p : propose   (signed; commits p to the transition and to h(A_p))
//  2. R_p ==> p   : respond   (signed receipt + decision, per recipient)
//  3. p   ==> R_p : commit    (authenticator preimage A_p + all signed evidence)
//
// A proposed state is valid iff every recipient accepts and every
// cross-message consistency check passes; any veto or inconsistency yields
// the consistent outcome "invalid" and the proposer rolls back to the agreed
// state. All steps generate signed, time-stamped evidence appended to the
// party's non-repudiation log. The engine enforces the four invariants of
// §4.2 and implements the update variant of §4.3.1 and the majority-vote
// termination extension sketched in §7.
//
// Beyond the paper, the engine supports pipelined coordination: a proposer
// may hold up to Window runs in flight at once, each proposal chained to its
// predecessor's proposed state via an explicit predecessor tuple. Recipients
// validate and resolve runs in chain order, and a veto of run k rolls back
// the entire suffix k+1, k+2, ... at every party — the paper's rollback rule
// generalized. The default window of 1 reproduces the paper's serialized
// protocol exactly. See docs/ARCHITECTURE.md for the safety argument.
package coord

import (
	"cmp"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// Errors returned by the engine.
var (
	ErrRunInFlight   = errors.New("coord: a proposal is already in flight")
	ErrBlocked       = errors.New("coord: protocol run blocked awaiting responses")
	ErrVetoed        = errors.New("coord: proposed state transition vetoed")
	ErrFrozen        = errors.New("coord: coordination frozen during membership change")
	ErrNotMember     = errors.New("coord: sender is not a group member")
	ErrUnknownRun    = errors.New("coord: unknown run")
	ErrInconsistent  = errors.New("coord: inconsistent protocol message")
	ErrSoleMember    = errors.New("coord: no other members to coordinate with")
	ErrAlreadySetup  = errors.New("coord: engine already bootstrapped")
	ErrNotBootstrapd = errors.New("coord: engine not bootstrapped")
)

// Termination selects how a complete response set is turned into a verdict.
type Termination uint8

// Termination policies.
const (
	// Unanimous is the paper's rule: valid iff every recipient accepts.
	Unanimous Termination = iota
	// Majority is the §7 extension: valid iff a strict majority of all
	// parties (proposer counts as accepting) accepts. Consistency failures
	// still invalidate unconditionally.
	Majority
)

// Validator is the application-side validation upcall interface (the
// B2BObject validateState/validateUpdate operations of §5). The engine's
// replica is a copy-on-write paged state, so applying and validating a small
// update on a large object costs O(delta · log S); adapters for flat
// application objects (the root package's Object) materialize bytes only
// where the application asks for them.
//
// Contract: a *pagestate.Paged received through this interface is shared and
// immutable — implementations must mutate only a Clone (pagestate's
// copy-on-write makes that cheap) and must return a value the engine may in
// turn share. The proposed state and the update bytes alias the received
// message and the evidence kept of it: they are read-only, and must not be
// kept past the call.
type Validator interface {
	// ValidateState judges a full-state overwrite proposed by proposer
	// (proposed is the flat proposed state — it travelled on the wire).
	// Asymmetric sharing rules (e.g. the paper's order processing, §5.2)
	// depend on who proposed the change.
	ValidateState(proposer string, current *pagestate.Paged, proposed []byte) wire.Decision
	// ValidateUpdate judges an update (delta) proposed by proposer. A
	// recipient calls it first, once the update matches its hash, and then
	// ApplyUpdate on the same current — so a validator adapting a flat
	// application can materialise current once and adopt the flat back
	// into it (pagestate.Paged.Adopt) for the apply. An update that is
	// inapplicable, or whose applied root mismatches the proposed tuple,
	// is rejected structurally whatever ValidateUpdate decided.
	ValidateUpdate(proposer string, current *pagestate.Paged, update []byte) wire.Decision
	// ApplyUpdate computes the state resulting from applying update,
	// without mutating current's content.
	ApplyUpdate(current *pagestate.Paged, update []byte) (*pagestate.Paged, error)
	// Installed notifies that a newly validated state has been installed.
	// It runs on the engine's commit executor before t is published, so
	// it must not wait for the engine to settle (WaitQuiescent, a
	// synchronous Propose).
	Installed(state *pagestate.Paged, t tuple.State)
	// RolledBack notifies the proposer that its proposal was invalidated and
	// the replica reverted to the agreed state.
	RolledBack(state *pagestate.Paged, t tuple.State)
}

// Conn is the outbound message channel (satisfied by transport.Reliable and
// by the in-memory fault injectors). A Conn that is also a
// transport.FrameSender is handed each envelope as segments.
type Conn interface {
	ID() string
	Send(ctx context.Context, to string, payload []byte) error
}

// Config assembles an engine's dependencies.
type Config struct {
	Ident       *crypto.Identity
	Object      string
	Verifier    *crypto.Verifier
	TSA         wire.Stamper
	Conn        Conn
	Log         nrlog.Log
	Store       store.Store
	Clock       clock.Clock
	Validator   Validator
	Termination Termination
	// RetryInterval is the protocol-level re-broadcast period for proposals
	// and commits of in-flight runs (defence against receiver crash between
	// transport ack and processing). Zero disables re-broadcast.
	RetryInterval time.Duration
	// ResponseDeadline, under Majority termination, is the §7 deadline: a
	// proposer that has waited this long (measured in RetryInterval
	// re-broadcast rounds, so it needs RetryInterval > 0) concludes the run
	// with the responses at hand, provided they form a strict majority of
	// the group with the proposer — an unreachable minority can no longer
	// block the group. Recipients accept majority commits symmetrically.
	// Zero keeps the paper's behaviour of waiting for every response.
	// Ignored under unanimous termination, which cannot conclude without
	// the full response set.
	ResponseDeadline time.Duration
	// Window is the proposal pipeline depth: how many runs this party may
	// hold in flight against the object at once, each chained to its
	// predecessor's proposed state (see docs/ARCHITECTURE.md). Zero or one
	// selects the paper's serialized protocol. SetWindow adjusts it live.
	Window int
	// SnapshotEvery bounds the delta checkpoint chain: update-mode runs
	// persist only the update bytes (a delta checkpoint), and after this
	// many deltas a full snapshot is written so recovery never replays an
	// unbounded chain. Zero selects the default (32).
	SnapshotEvery int
	// PageSize is the paged state identity's page granularity (zero: the
	// pagestate default, 4 KiB). It is a protocol parameter bound into every
	// HashState the group agrees on — all members must configure the same
	// value (see internal/pagestate).
	PageSize int
}

// defaultSnapshotEvery bounds a delta checkpoint chain when the config
// leaves SnapshotEvery zero.
const defaultSnapshotEvery = 32

// completedCap bounds the completed-outcome cache (see Engine.completed).
const completedCap = 4096

// earlyCap bounds the commits held for proposals not yet answered (see
// Engine.early), so a forger cannot grow the set.
const earlyCap = 16

// Outcome is the result of a coordination run as established by the
// authenticated decision of the group.
type Outcome struct {
	RunID     string
	Valid     bool
	Decisions map[string]wire.Decision
	// Diagnostic summarises why an invalid outcome was reached.
	Diagnostic string
}

// Stats counts protocol messages (TestMessageComplexityIs3NMinus1 holds
// them to §7's 3(n-1) per run),
// plus the verified-signature memo's effectiveness (ed25519 verifies skipped
// because the identical signed bytes had already been verified — or signed —
// by this party).
type Stats struct {
	ProposesSent  uint64
	RespondsSent  uint64
	CommitsSent   uint64
	RunsProposed  uint64
	RunsValid     uint64
	RunsInvalid   uint64
	RunsCommitted uint64 // runs committed as recipient
	SigMemoHits   uint64 // signature verifications skipped via the memo
	SigVerifies   uint64 // signature verifications actually performed
}

// proposerRun tracks one in-flight proposal at the proposer. Runs form a
// pipeline: pred points at the run whose proposed state this one chains
// from (nil when the run builds directly on the agreed state), and runs
// finalize strictly in pipeline order so a veto of run k rolls back the
// whole suffix k+1, k+2, ... (the paper's rollback rule generalized).
type proposerRun struct {
	runID     string
	propose   wire.Propose
	signed    wire.Signed
	raw       []byte   // signed.Marshal(), computed once and reused
	digest    [32]byte // signed.BodyDigest(), taken once when signing
	auth      []byte
	newState  *pagestate.Paged // proposed state; immutable, pages shared COW
	responses map[string]wire.Signed
	parsed    map[string]wire.Respond
	recips    []string
	started   time.Time     // when the propose was broadcast (§7 deadline anchor)
	done      chan struct{} // closed when all responses are in (or the run is force-resolved)
	forced    bool          // predecessor rolled back: this run can never commit

	pred      *proposerRun  // predecessor run in the pipeline (nil: chains from agreed)
	predTuple tuple.State   // state tuple the run chains from
	finalized chan struct{} // closed once outcome/outErr are set
	final     sync.Once
	outcome   Outcome
	outErr    error
}

// respondedRun tracks a run this party answered as a recipient, pending
// commit. Keeping the signed response allows idempotent re-send when the
// proposer re-broadcasts (crash recovery / lost ack). pred is the state
// tuple the proposal chained from: the agreed state, or — for a pipelined
// successor — the proposed tuple of an earlier answered run.
type respondedRun struct {
	runID    string
	proposer string
	propose  wire.Signed // exact signed propose we responded to
	digest   [32]byte    // propose.BodyDigest(), taken once on receipt
	respond  wire.Signed
	decision wire.Decision
	newState *pagestate.Paged // state a valid commit will install (shared COW)
	proposed tuple.State
	pred     tuple.State
	// durable marks that the run record and response evidence reached the
	// store/log (the durability barrier succeeded). The signed response is
	// only ever sent while durable; until then a duplicate propose
	// re-attempts persistence instead of re-sending (a response must never
	// leave this party without its evidence on disk, and the one response
	// already signed must stay the only decision this party ever emits for
	// the run).
	durable bool
}

// agreedView is an agreed tuple with the paged state it names.
type agreedView struct {
	t     tuple.State
	state *pagestate.Paged
}

// effects is one staged commit application (stageLocked): what the
// executor (apply) does outside en.mu. The contract, after §4.2's reading
// that a party's agreed tuple names the state its object holds, is stage →
// barrier → install → publish.
type effects struct {
	ticket  uint64
	err     error      // staging failed: externalize nothing
	publish agreedView // the staged agreed tuple

	to     []string // commit recipients
	commit []byte

	rollback, install agreedView // upcalls to make (nil state: none)

	run     string // finished run: record deleted, verdict logged
	seq     uint64
	verdict string

	rolled      []recipientRollback
	contest     *tuple.State // lost predecessor race to converge (proposer)
	contested   []byte       // refused vote-valid commit for the contest plane
	wakeProps   []pendingMsg
	wakeCommits []pendingMsg
}

// pendingMsg is an inbound protocol message buffered until the state it
// chains to is known (reliable delivery is unordered).
type pendingMsg struct {
	from    string
	payload []byte
	runID   string
}

// Engine coordinates one object replica for one party.
type Engine struct {
	cfg Config

	// memo is the bounded verified-signature cache.
	memo *sigMemo

	mu           sync.Mutex
	bootstrapped bool
	members      []string // join-ordered, including self
	group        tuple.Group
	// agreed is the staged chain tip that validation, pipelining and
	// checkpoints build on; published is what observers read. Only the
	// commit executor (apply) moves published to a staged tuple, after its
	// barrier and install.
	agreed       tuple.State
	agreedState  *pagestate.Paged // immutable once stored; clones share pages
	published    agreedView
	current      tuple.State
	currentState *pagestate.Paged
	seen         *tuple.Seen
	frozen       bool

	window    int            // live pipeline window override (0: use cfg)
	pipeline  []*proposerRun // in-flight proposer runs, pipeline order
	deltaRuns int            // delta checkpoints since the last full snapshot

	runs      map[string]*proposerRun // in-flight, this party proposing
	responded map[string]*respondedRun
	// completed caches finished runs' outcomes for idempotent handling of
	// duplicate commits and Outcome lookups. It is bounded (FIFO eviction
	// at completedCap) so a long-running party's memory does not grow with
	// every run it ever coordinated; a duplicate commit arriving after
	// eviction is still harmless — the responded entry is long gone, so it
	// resolves as "commit for a run this party never answered" (evidence
	// kept, no state change).
	completed  map[string]Outcome
	completedQ []string // completed run ids, insertion order

	// Reorder machinery for pipelined traffic: proposals and commits whose
	// predecessor state has not been seen yet wait here, keyed by the
	// predecessor tuple, until it is answered/agreed (or a grace period
	// expires for proposals, which are then evaluated — and rejected — on
	// their merits).
	waitProps    map[tuple.State][]pendingMsg
	waitCommits  map[tuple.State][]pendingMsg
	propBuffered map[string]bool       // runID currently buffered in waitProps
	propWaited   map[string]bool       // runID already waited once: evaluate regardless
	early        map[string]pendingMsg // by runID: commits that overtook their proposal

	// changed is closed and replaced on every externally observable
	// coordination transition (publication, responded-run resolution): the
	// event-driven wait primitive behind Watch, WaitQuiescent and the lab's
	// WaitAgreed — randomized harness runs must not rely on padded sleeps
	// or polling loops.
	changed chan struct{}

	// The executor's turn: staged is the next ticket stageLocked hands out,
	// applied the ticket apply runs next; turn (on mu) wakes the waiters.
	staged, applied uint64
	turn            *sync.Cond

	// Contest plane (contest.go): convergent evidence sets for contested
	// predecessor tuples, the recent-install records that let a late
	// competing commit reopen a decided window, and the proposer lease
	// that keeps the tie-break a slow path.
	contests    map[tuple.State]*contest
	contestQ    []tuple.State // contest creation order (FIFO eviction)
	recent      []installRecord
	contendedAt time.Time // zero: no contention observed recently

	stats Stats
}

// New creates an engine. Call Bootstrap (fresh group) or Restore (recover
// from the store) before coordinating.
func New(cfg Config) (*Engine, error) {
	if cfg.Ident == nil || cfg.Conn == nil || cfg.Log == nil || cfg.Store == nil ||
		cfg.Clock == nil || cfg.Validator == nil || cfg.Verifier == nil {
		return nil, errors.New("coord: incomplete config")
	}
	if cfg.Object == "" {
		return nil, errors.New("coord: object name required")
	}
	en := &Engine{
		cfg:          cfg,
		memo:         newSigMemo(),
		seen:         tuple.NewSeen(),
		runs:         make(map[string]*proposerRun),
		responded:    make(map[string]*respondedRun),
		completed:    make(map[string]Outcome),
		waitProps:    make(map[tuple.State][]pendingMsg),
		waitCommits:  make(map[tuple.State][]pendingMsg),
		propBuffered: make(map[string]bool),
		propWaited:   make(map[string]bool),
		early:        make(map[string]pendingMsg),
		contests:     make(map[tuple.State]*contest),
		changed:      make(chan struct{}),
	}
	en.turn = sync.NewCond(&en.mu)
	return en, nil
}

// SetWindow sets the pipeline window: the number of runs this party may
// hold in flight at once as a proposer. w < 1 selects the paper's
// serialized protocol (window 1). Recipients need no configuration — they
// validate whatever chain depth arrives.
func (en *Engine) SetWindow(w int) {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.window = w
}

// Window reports the effective pipeline window.
func (en *Engine) Window() int {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.windowLocked()
}

func (en *Engine) windowLocked() int {
	w := en.window
	if w == 0 {
		w = en.cfg.Window
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Bootstrap initialises a founding member with the initial object state and
// the join-ordered founding membership. Every founding party must bootstrap
// with identical arguments; the deterministic initial tuples then agree.
func (en *Engine) Bootstrap(initialState []byte, members []string) error {
	en.mu.Lock()
	defer en.mu.Unlock()
	if en.bootstrapped {
		return ErrAlreadySetup
	}
	if !slices.Contains(members, en.cfg.Ident.ID()) {
		return fmt.Errorf("coord: self %q not in member list", en.cfg.Ident.ID())
	}
	en.members = append([]string(nil), members...)
	en.group = tuple.InitialGroup(members)
	en.agreedState = en.pageState(initialState)
	en.agreed = tuple.InitialRoot(en.agreedState.Root())
	en.published = agreedView{en.agreed, en.agreedState}
	en.current = en.agreed
	en.currentState = en.agreedState
	en.bootstrapped = true
	en.notifyChangedLocked()
	return en.checkpointLocked()
}

// Restore recovers engine state from the store's checkpoint chain (crash
// recovery, §4.2: nodes eventually recover and resume). The chain is the
// most recent full snapshot plus any later delta checkpoints; the agreed
// state is reconstructed by folding the deltas through the application's
// ApplyUpdate and every intermediate state is verified against its tuple's
// state hash, so a corrupted or misordered chain is rejected, never
// installed.
func (en *Engine) Restore() error {
	en.mu.Lock()
	defer en.mu.Unlock()
	if en.bootstrapped {
		return ErrAlreadySetup
	}
	chain, err := en.cfg.Store.Chain(en.cfg.Object)
	if err != nil {
		return fmt.Errorf("coord: restoring: %w", err)
	}
	if len(chain) == 0 {
		return fmt.Errorf("coord: restoring: %w: %s", store.ErrNoCheckpoint, en.cfg.Object)
	}
	if chain[0].Delta {
		return fmt.Errorf("coord: restoring %s: chain does not start at a full snapshot", en.cfg.Object)
	}
	state := en.pageState(chain[0].State)
	if !chain[0].Tuple.MatchesRoot(state.Root()) {
		return fmt.Errorf("coord: restoring %s: snapshot does not match its tuple", en.cfg.Object)
	}
	for _, cp := range chain[1:] {
		if !cp.Delta {
			return fmt.Errorf("coord: restoring %s: full snapshot mid-chain", en.cfg.Object)
		}
		state, err = en.cfg.Validator.ApplyUpdate(state, cp.Update)
		if err != nil {
			return fmt.Errorf("coord: restoring %s: replaying delta seq %d: %w", en.cfg.Object, cp.Tuple.Seq, err)
		}
		if !cp.Tuple.MatchesRoot(state.Root()) {
			return fmt.Errorf("coord: restoring %s: delta seq %d does not yield its tuple's state", en.cfg.Object, cp.Tuple.Seq)
		}
	}
	last := chain[len(chain)-1]
	en.members = append([]string(nil), last.Members...)
	en.group = last.Group
	en.agreed = last.Tuple
	en.agreedState = state
	en.published = agreedView{en.agreed, en.agreedState}
	en.current = en.agreed
	en.currentState = en.agreedState
	en.deltaRuns = len(chain) - 1
	for _, cp := range chain {
		en.seen.ObserveRecovered(cp.Tuple)
	}
	en.bootstrapped = true
	en.notifyChangedLocked()
	return nil
}

// AdoptMembership installs membership and agreed state received through a
// successful connection protocol (the Welcome message): used by the group
// manager when this party is the admitted subject.
func (en *Engine) AdoptMembership(g tuple.Group, members []string, agreed tuple.State, state []byte) error {
	en.mu.Lock()
	defer en.mu.Unlock()
	if en.bootstrapped {
		return ErrAlreadySetup
	}
	paged := en.pageState(state)
	if !agreed.MatchesRoot(paged.Root()) {
		return fmt.Errorf("coord: welcome state does not match agreed tuple")
	}
	en.members = append([]string(nil), members...)
	en.group = g
	en.agreed = agreed
	en.agreedState = paged
	en.published = agreedView{agreed, paged}
	en.current = agreed
	en.currentState = en.agreedState
	en.seen.ObserveRecovered(agreed)
	en.bootstrapped = true
	en.notifyChangedLocked()
	return en.checkpointLocked()
}

// ApplyMembership installs a new agreed membership (connection or
// disconnection outcome) on an existing member, and unfreezes coordination.
func (en *Engine) ApplyMembership(g tuple.Group, members []string) error {
	en.mu.Lock()
	defer en.mu.Unlock()
	if !en.bootstrapped {
		return ErrNotBootstrapd
	}
	en.members = append([]string(nil), members...)
	en.group = g
	en.frozen = false
	en.notifyChangedLocked()
	return en.checkpointLocked()
}

// Freeze blocks new state coordination while a membership change is decided
// (the sponsor's concurrency-control duty, §4.5.1).
func (en *Engine) Freeze() {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.frozen = true
}

// Unfreeze re-enables coordination (membership change rejected/abandoned).
func (en *Engine) Unfreeze() {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.frozen = false
}

// Agreed returns the agreed state tuple and a flat copy of the agreed state
// (O(S) materialization — replica-sharing paths use AgreedPaged).
func (en *Engine) Agreed() (tuple.State, []byte) {
	t, p := en.AgreedPaged()
	if p == nil {
		return t, nil
	}
	return t, p.Bytes()
}

// AgreedPaged returns the agreed tuple and the paged agreed state itself:
// the published pair, durable and installed in the application. The
// returned Paged is shared and immutable: readers may hash, page-walk or
// Bytes() it freely, but must mutate only a Clone.
func (en *Engine) AgreedPaged() (tuple.State, *pagestate.Paged) {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.published.t, en.published.state
}

// AgreedTuple returns just the agreed tuple — the accessor for callers that
// need no state bytes (no O(S) materialization).
func (en *Engine) AgreedTuple() tuple.State {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.published.t
}

// Watch returns a channel that is closed at the engine's next observable
// coordination transition (agreed tuple publication, resolution of an
// answered-but-uncommitted run, or an applied membership change). Callers
// wanting to wait for a condition grab the channel FIRST, then read the
// state they care about, then select on the channel: a transition between
// the read and the select has already closed the returned channel, so no
// wakeup is ever missed. Each returned channel fires once; re-arm by
// calling Watch again.
func (en *Engine) Watch() <-chan struct{} {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.changed
}

// notifyChangedLocked wakes every watcher; en.mu must be held. Closing and
// replacing the channel makes notification O(1) and watchers race-free
// (see Watch).
func (en *Engine) notifyChangedLocked() {
	close(en.changed)
	en.changed = make(chan struct{})
}

// Current returns the current state tuple and a flat copy of the current
// state (differs from Agreed only at a proposer mid-run).
func (en *Engine) Current() (tuple.State, []byte) {
	en.mu.Lock()
	state := en.currentState
	t := en.current
	en.mu.Unlock()
	if state == nil {
		return t, nil
	}
	return t, state.Bytes()
}

// Group returns the group tuple and join-ordered membership.
func (en *Engine) Group() (tuple.Group, []string) {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.group, append([]string(nil), en.members...)
}

// Stats returns a snapshot of the engine's message counters.
func (en *Engine) Stats() Stats {
	en.mu.Lock()
	st := en.stats
	en.mu.Unlock()
	st.SigMemoHits, st.SigVerifies = en.memo.stats()
	return st
}

// ResidentPages reports how many pagestate pages this engine holds resident
// for its object: the agreed state plus — at a proposer mid-run — the current
// pipeline tip when it is a distinct Paged. Copy-on-write sharing means the
// two mostly overlap, so this is a deliberate upper bound on distinct pages;
// it is the accounting unit the core runtime's per-group memory quotas
// (QuotaPolicy.MaxResidentPages) are expressed in.
func (en *Engine) ResidentPages() int {
	en.mu.Lock()
	defer en.mu.Unlock()
	n := 0
	if en.agreedState != nil {
		n += en.agreedState.Pages()
	}
	if en.currentState != nil && en.currentState != en.agreedState {
		n += en.currentState.Pages()
	}
	return n
}

// ActiveRuns reports runs this party answered as recipient that have not yet
// committed — the evidence that a protocol run is active/blocked (§4.4).
func (en *Engine) ActiveRuns() []string {
	en.mu.Lock()
	defer en.mu.Unlock()
	out := make([]string, 0, len(en.responded))
	for id := range en.responded {
		out = append(out, id)
	}
	return out
}

// ID returns this party's identity name.
func (en *Engine) ID() string { return en.cfg.Ident.ID() }

// Object returns the coordinated object's name.
func (en *Engine) Object() string { return en.cfg.Object }

func (en *Engine) recipientsLocked() []string {
	out := make([]string, 0, len(en.members)-1)
	for _, m := range en.members {
		if m != en.cfg.Ident.ID() {
			out = append(out, m)
		}
	}
	return out
}

// snapshotLocked builds a full checkpoint of the agreed state; en.mu held.
// flat, when non-nil, is the agreed state's bytes as an overwrite propose
// carried them — retained as evidence and never written — and becomes the
// checkpoint's state as it is. Otherwise the O(S) materialization happens
// here: once per SnapshotEvery update-mode runs, per tie-break or catch-up,
// and for a membership checkpoint, never per run.
func (en *Engine) snapshotLocked(flat []byte) store.Checkpoint {
	if flat == nil {
		flat = en.agreedState.Bytes()
	}
	return store.Checkpoint{
		Object:  en.cfg.Object,
		Tuple:   en.agreed,
		State:   flat,
		Group:   en.group,
		Members: append([]string(nil), en.members...),
		Time:    en.cfg.Clock.Now(),
	}
}

// checkpointLocked persists a full snapshot of the agreed state, durable on
// return; en.mu must be held.
func (en *Engine) checkpointLocked() error {
	en.deltaRuns = 0
	return en.cfg.Store.SaveCheckpoint(en.snapshotLocked(nil))
}

func (en *Engine) snapshotEvery() int {
	if en.cfg.SnapshotEvery > 0 {
		return en.cfg.SnapshotEvery
	}
	return defaultSnapshotEvery
}

// commitCheckpointLocked stages stageLocked's checkpoint of a newly agreed
// tuple for the executor's barrier. prop is the run's proposal, decoded
// from the signed propose this party keeps as evidence (nil for a
// tie-break or catch-up). Update-mode runs persist a delta — the update
// bytes plus the predecessor tuple — so the write cost tracks the change,
// not the object; every SnapshotEvery deltas (and for every overwrite,
// tie-break or catch-up) a full snapshot bounds the recovery chain. An
// overwrite's snapshot keeps the state the proposal carried instead of
// materialising a copy. en.mu must be held: holding it across the staging
// keeps the on-disk chain in agreed order.
func (en *Engine) commitCheckpointLocked(prop *wire.Propose) error {
	if prop != nil && prop.Mode == wire.ModeUpdate && en.deltaRuns < en.snapshotEvery() {
		en.deltaRuns++
		return en.cfg.Store.SaveCheckpointDeferred(store.Checkpoint{
			Object:  en.cfg.Object,
			Tuple:   en.agreed,
			Group:   en.group,
			Members: append([]string(nil), en.members...),
			Time:    en.cfg.Clock.Now(),
			Delta:   true,
			Update:  append([]byte(nil), prop.Update...),
			Pred:    prop.Pred,
		})
	}
	en.deltaRuns = 0
	var flat []byte
	if prop != nil && prop.Mode == wire.ModeOverwrite {
		flat = prop.NewState
	}
	return en.cfg.Store.SaveCheckpointDeferred(en.snapshotLocked(flat))
}

// barrier makes every record staged so far durable in one group-commit
// fsync.
func (en *Engine) barrier() error {
	if err := cmp.Or(en.cfg.Log.Barrier(), en.cfg.Store.Barrier()); err != nil {
		return fmt.Errorf("coord: durability barrier: %w", err)
	}
	return nil
}

// stageLocked is the one place a protocol run moves the agreed tuple:
// proposer finalisation, recipient commit, tie-break install and catch-up
// all call it under en.mu (Bootstrap, Restore, AdoptMembership and Reset
// initialise agreed directly). With next non-nil it advances agreed to next
// and stages next's checkpoint (see commitCheckpointLocked for prop); a
// staging failure reverts the advance, so a checkpoint that never reached
// the store never moves agreed. Every call takes the executor's next ticket
// and records the tuple to publish; the caller fills in the remaining
// effects and hands the record to apply.
func (en *Engine) stageLocked(next *agreedView, prop *wire.Propose) *effects {
	fx := &effects{ticket: en.staged}
	en.staged++
	if next != nil {
		prev := agreedView{en.agreed, en.agreedState}
		en.agreed = next.t
		en.agreedState = next.state
		if fx.err = en.commitCheckpointLocked(prop); fx.err != nil {
			en.agreed = prev.t
			en.agreedState = prev.state
		}
	}
	fx.publish = agreedView{en.agreed, en.agreedState}
	return fx
}

// apply is the commit executor. Outside en.mu it performs a staged record's
// effects in contract order — barrier, commit sends, rollback/install
// upcalls, publication — then the trailing run-record delete and verdict,
// the cascade cleanup, contest follow-up and re-dispatch of buffered
// successors. Records apply in ticket (staging) order, so run k+1 is never
// installed or published before run k; the turn passes at publication,
// before anything that can re-enter the engine. A failed staging or barrier
// externalizes nothing: no send, no upcall, no publication.
func (en *Engine) apply(ctx context.Context, fx *effects) error {
	en.mu.Lock()
	for en.applied != fx.ticket {
		en.turn.Wait()
	}
	en.mu.Unlock()

	err := fx.err
	if err == nil {
		err = en.barrier()
	}
	durable := err == nil
	if durable {
		for _, r := range fx.to {
			if err = en.send(ctx, r, wire.KindCommit, fx.commit); err != nil {
				err = fmt.Errorf("coord: sending commit to %s: %w", r, err)
				break
			}
		}
		if fx.rollback.state != nil {
			en.notifyRolledBack(fx.rollback.state, fx.rollback.t)
		}
		if fx.install.state != nil {
			en.notifyInstalled(fx.install.state, fx.install.t)
		}
	}
	en.mu.Lock()
	if durable {
		en.published = fx.publish
		en.notifyChangedLocked()
	}
	en.applied++
	en.turn.Broadcast()
	en.mu.Unlock()

	// The trailing records ride the next batch (or Close): a crash before
	// they sync re-enters a completed run on recovery, which resolves as a
	// stale sequence and is dropped.
	if durable && fx.run != "" {
		err = cmp.Or(err, en.cfg.Store.DeleteRunDeferred(fx.run),
			en.logEvidenceStaged(fx.run, fx.seq, "verdict", nrlog.DirLocal, []byte(fx.verdict)))
	}
	en.finishRollbacks(fx.rolled)
	if fx.contest != nil {
		en.afterContest(*fx.contest)
	}
	if fx.contested != nil {
		en.noteContestedCommit(fx.contested)
	}
	en.dispatchProps(fx.wakeProps)
	en.dispatchCommits(fx.wakeCommits)
	return err
}

// logEvidence appends to the non-repudiation log, panicking never: logging
// failures surface as errors on the protocol operation in progress.
func (en *Engine) logEvidence(runID, kind string, dir nrlog.Direction, payload []byte) error {
	return en.logEvidenceSeq(runID, 0, kind, dir, payload)
}

// logEvidenceSeq is logEvidence tagged with the run's proposal sequence
// number, chaining the evidence of a pipelined burst per sequence. The
// entry is durable on return.
func (en *Engine) logEvidenceSeq(runID string, seq uint64, kind string, dir nrlog.Direction, payload []byte) error {
	if _, err := en.cfg.Log.AppendSeq(runID, seq, en.cfg.Object, kind, en.cfg.Ident.ID(), dir, payload); err != nil {
		return fmt.Errorf("coord: recording evidence: %w", err)
	}
	return nil
}

// logEvidenceStaged is logEvidenceSeq staged for the caller's durability
// barrier: the entry is appended but only durable after the next barrier().
// Callers MUST issue that barrier before externalizing anything (sending a
// message) that depends on the evidence being on disk. hints carry the
// digests of large payload fields this party already took (see nrlog.Hint).
func (en *Engine) logEvidenceStaged(runID string, seq uint64, kind string, dir nrlog.Direction, payload []byte, hints ...nrlog.Hint) error {
	if _, err := en.cfg.Log.AppendDeferred(runID, seq, en.cfg.Object, kind, en.cfg.Ident.ID(), dir, payload, hints...); err != nil {
		return fmt.Errorf("coord: recording evidence: %w", err)
	}
	return nil
}

// tailLocked returns the newest in-flight proposer run, or nil.
func (en *Engine) tailLocked() *proposerRun {
	if len(en.pipeline) == 0 {
		return nil
	}
	return en.pipeline[len(en.pipeline)-1]
}

// enterRunLocked registers a proposer run at the pipeline tail, chained to
// pred (nil: it builds on the agreed state), its §7 deadline starting now.
func (en *Engine) enterRunLocked(prop wire.Propose, signed wire.Signed, raw []byte, digest [32]byte, auth []byte,
	state *pagestate.Paged, recips []string, pred *proposerRun) *proposerRun {
	run := &proposerRun{
		runID:     prop.RunID,
		propose:   prop,
		signed:    signed,
		raw:       raw,
		digest:    digest,
		auth:      auth,
		newState:  state,
		responses: make(map[string]wire.Signed, len(recips)),
		parsed:    make(map[string]wire.Respond, len(recips)),
		recips:    recips,
		started:   en.cfg.Clock.Now(),
		done:      make(chan struct{}),
		pred:      pred,
		predTuple: prop.Pred,
		finalized: make(chan struct{}),
	}
	en.runs[run.runID] = run
	en.pipeline = append(en.pipeline, run)
	return run
}

// removePipelineLocked drops a run from the pipeline (finalization).
func (en *Engine) removePipelineLocked(run *proposerRun) {
	for i, r := range en.pipeline {
		if r == run {
			en.pipeline = append(en.pipeline[:i], en.pipeline[i+1:]...)
			return
		}
	}
}

// forceSuffixLocked marks every pipeline successor of run as forced —
// their predecessor can never commit — and releases their waiters.
func (en *Engine) forceSuffixLocked(run *proposerRun) {
	for i, r := range en.pipeline {
		if r != run {
			continue
		}
		for _, succ := range en.pipeline[i+1:] {
			succ.forced = true
			en.closeDoneLocked(succ)
		}
		return
	}
}

// syncCurrentLocked restores the proposer-view invariant: current is the
// tail of the speculative pipeline, or the agreed state when no run is in
// flight. Paged states are immutable once stored, so these are pointer
// shares, not copies.
func (en *Engine) syncCurrentLocked() {
	if tail := en.tailLocked(); tail != nil {
		en.current = tail.propose.Proposed
		en.currentState = tail.newState
		return
	}
	en.current = en.agreed
	en.currentState = en.agreedState
}

// completeLocked records a finished run's outcome, evicting the oldest
// entries past completedCap.
func (en *Engine) completeLocked(runID string, out Outcome) {
	if _, dup := en.completed[runID]; !dup {
		en.completedQ = append(en.completedQ, runID)
	}
	en.completed[runID] = out
	for len(en.completedQ) > completedCap {
		delete(en.completed, en.completedQ[0])
		en.completedQ = en.completedQ[1:]
	}
	// Every run resolution is an observable transition (responded-run
	// removals release WaitQuiescent); the agreed tuple's own transition is
	// the executor's publication.
	en.notifyChangedLocked()
}

// closeDoneLocked closes a run's done channel exactly once.
func (en *Engine) closeDoneLocked(run *proposerRun) {
	select {
	case <-run.done:
	default:
		close(run.done)
	}
}

// respondedByTupleLocked finds the answered-but-uncommitted run whose
// proposed tuple is t (the speculative chain lookup).
func (en *Engine) respondedByTupleLocked(t tuple.State) *respondedRun {
	for _, rr := range en.responded {
		if rr.proposed == t {
			return rr
		}
	}
	return nil
}

// takeWaitingLocked removes and returns the messages buffered on tuple t.
func takeWaitingLocked(m map[tuple.State][]pendingMsg, t tuple.State) []pendingMsg {
	msgs := m[t]
	delete(m, t)
	return msgs
}

// newRunID labels a protocol run uniquely and attributably.
func (en *Engine) newRunID() (string, error) {
	n, err := crypto.Nonce()
	if err != nil {
		return "", err
	}
	return en.cfg.Ident.ID() + "-" + hex.EncodeToString(n[:8]), nil
}

// send wraps payload in an envelope and transmits it. The envelope is
// written around payload and handed down as segments, so a connection that
// takes segments (transport.FrameSender) never copies a large payload.
func (en *Engine) send(ctx context.Context, to string, kind wire.Kind, payload []byte) error {
	n, err := crypto.Nonce()
	if err != nil {
		return err
	}
	env := wire.Envelope{
		MsgID:   hex.EncodeToString(n[:12]),
		From:    en.cfg.Ident.ID(),
		To:      to,
		Object:  en.cfg.Object,
		Kind:    kind,
		Payload: payload,
	}
	return transport.SendFrame(ctx, en.cfg.Conn, to, env.Segments())
}

// CatchUpChain returns the reconstruction chain this party can serve to a
// lagging peer: the most recent full snapshot checkpoint followed by every
// later delta checkpoint, oldest first (the state-transfer plane's source
// material — see internal/xfer).
func (en *Engine) CatchUpChain() ([]store.Checkpoint, error) {
	return en.cfg.Store.Chain(en.cfg.Object)
}

// Errors of the catch-up path.
var (
	// ErrStaleCatchUp: the offered state is not newer than the agreed state.
	ErrStaleCatchUp = errors.New("coord: catch-up state is not newer than agreed")
)

// InstallCatchUp installs a verified newer agreed state fetched over the
// state-transfer plane (anti-entropy after a partition): the engine's agreed
// and current state advance to t with a full snapshot checkpoint, and once
// that checkpoint is durable the application is notified through
// Validator.Installed — clearing any recorded replica divergence exactly as
// a coordinated install does — and t is published. A checkpoint that fails
// publishes nothing and installs nothing. The caller (internal/xfer) has
// already verified state against t's hash and walked the delta chain; this
// method re-checks the hash binding and refuses to move backwards or to
// interleave with an in-flight proposal pipeline.
func (en *Engine) InstallCatchUp(t tuple.State, state []byte) error {
	en.mu.Lock()
	if !en.bootstrapped {
		en.mu.Unlock()
		return ErrNotBootstrapd
	}
	if have := en.agreed.Seq; t.Seq <= have {
		en.mu.Unlock()
		return fmt.Errorf("%w: have seq %d, offered seq %d", ErrStaleCatchUp, have, t.Seq)
	}
	if len(en.pipeline) > 0 {
		en.mu.Unlock()
		return ErrRunInFlight
	}
	// Only an offer that could be installed is paged: a refused one costs
	// nothing under the lock every handler waits on.
	paged := en.agreedState.Rebase(state)
	if !t.MatchesRoot(paged.Root()) {
		en.mu.Unlock()
		return fmt.Errorf("coord: catch-up state does not match its tuple")
	}
	en.seen.ObserveRecovered(t)
	fx := en.stageLocked(&agreedView{t, paged}, nil)
	en.syncCurrentLocked()
	fx.install = fx.publish
	en.mu.Unlock()
	return en.apply(context.Background(), fx)
}

// Reset returns a departed member's engine to the unbootstrapped state so
// the party can later reconnect (via the connection protocol) or found a new
// group. Evidence in the non-repudiation log and replay-protection state are
// retained; only membership and replica state are cleared.
func (en *Engine) Reset() {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.bootstrapped = false
	en.members = nil
	en.group = tuple.Group{}
	en.agreed = tuple.State{}
	en.agreedState = nil
	en.published = agreedView{}
	en.current = tuple.State{}
	en.currentState = nil
	en.frozen = false
	en.runs = make(map[string]*proposerRun)
	en.responded = make(map[string]*respondedRun)
	en.pipeline = nil
	en.waitProps = make(map[tuple.State][]pendingMsg)
	en.waitCommits = make(map[tuple.State][]pendingMsg)
	en.propBuffered = make(map[string]bool)
	en.propWaited = make(map[string]bool)
	en.early = make(map[string]pendingMsg)
	en.contests = make(map[tuple.State]*contest)
	en.contestQ = nil
	en.recent = nil
	en.contendedAt = time.Time{}
	en.notifyChangedLocked()
}
