// Package core provides the participant runtime: one organisation's
// B2BObjects process. A Participant owns the party's identity, verifier,
// non-repudiation log, checkpoint store and transport connection, binds any
// number of coordinated objects, and routes inbound protocol traffic to the
// right engine (state coordination, package coord) or membership manager
// (package group). The public root package b2b wraps this runtime in the
// paper's API (Fig 4).
//
// Dispatch is multi-tenant: a shared worker pool sized to GOMAXPROCS
// schedules only *active* bindings (see runtime.go), so a process hosting
// tens of thousands of mostly-idle objects pays O(active) — an idle object
// costs zero goroutines and, when bound lazily (BindLazy), no protocol
// engines either until traffic or an accessor materialises them. Per-group
// quotas and admission control (QuotaPolicy, Admit) bound what any single
// tenant can consume.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/crypto"
	"b2b/internal/group"
	"b2b/internal/nrlog"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

// Conn is the transport surface a participant needs (satisfied by
// transport.Reliable over in-memory and TCP endpoints).
type Conn interface {
	ID() string
	Send(ctx context.Context, to string, payload []byte) error
	SetHandler(h transport.Handler)
	Close() error
}

// Errors returned by the participant.
var (
	ErrObjectBound   = errors.New("core: object already bound")
	ErrObjectUnknown = errors.New("core: object not bound")
)

// Config assembles a participant's dependencies.
type Config struct {
	Ident    *crypto.Identity
	Verifier *crypto.Verifier
	TSA      wire.Stamper
	Conn     Conn
	Log      nrlog.Log
	Store    store.Store
	Clock    clock.Clock
	// Termination applies to all objects bound by this participant.
	Termination coord.Termination
	// TTP names the trusted third party for certified aborts (optional).
	TTP string
	// RetryInterval is the protocol-level retry period (default 50ms).
	RetryInterval time.Duration
	// ResponseTimeout bounds membership decision waits (default 10s).
	ResponseTimeout time.Duration
	// ResponseDeadline, under Majority termination, is the §7 deadline
	// after which a proposer concludes a run with a strict majority of
	// responses instead of waiting for stragglers (zero: wait for all).
	// See coord.Config.ResponseDeadline.
	ResponseDeadline time.Duration
	// SnapshotEvery bounds each engine's delta checkpoint chain (zero:
	// the coord default).
	SnapshotEvery int
	// Transfer tunes the state-transfer plane (chunk size, flow-control
	// window, Welcome inline cap). Zero selects the defaults.
	Transfer xfer.Policy
	// PageSize is the paged state identity's page granularity for every
	// object this participant binds (zero: the pagestate default, 4 KiB).
	// It is a protocol parameter — all members of a sharing group must
	// configure the same value.
	PageSize int
	// Quotas caps what any single group may consume on this endpoint and
	// enables admission control (zero: no quotas, see QuotaPolicy).
	Quotas QuotaPolicy
	// Prekeys is the relay plane's prekey directory (optional): sponsors
	// snapshot it into Welcomes, joiners learn carried publications.
	Prekeys group.PrekeyDirectory
	// Drain, when set, empties this member's relay mailbox (relay client's
	// Drain); the transfer plane invokes it at the start of a catch-up so
	// parked traffic lands before state transfer decides what is missing.
	Drain func(ctx context.Context) (int, error)
}

// inboundEnv is one routed protocol message awaiting its object's turn.
type inboundEnv struct {
	from string
	env  wire.Envelope
}

// binding is one coordinated object's machinery plus its scheduler state.
// The protocol trio (engine/manager/xfer) is nil for a lazily bound object
// until traffic or an accessor materialises it — an idle tenant is a stub of
// a few hundred bytes. Scheduler fields (run state, queues, accounting) are
// guarded by the participant's sched.mu; the trio is written once under the
// participant's mu before any enqueue and read-only afterwards.
type binding struct {
	object string
	v      coord.Validator
	mv     group.Validator

	engine  *coord.Engine
	manager *group.Manager
	xfer    *xfer.Manager

	// handleFn is what the scheduler invokes per message — b.handle once
	// materialized. Indirect so scheduler tests can drive the sched with
	// stub handlers.
	handleFn func(inboundEnv)

	// Scheduler state — see runtime.go. q is the direct FIFO (lazily
	// allocated, released when the binding goes idle), qh its head index.
	state       int
	q           []inboundEnv
	qh          int
	qBytes      int64
	parkedFrom  map[string]*parkedQueue
	parkOrder   []string
	parkedMsgs  int
	parkedBytes int64
	sessions    int
	handled     uint64
	shed        uint64
}

// handle routes one message to the binding's engine, transfer manager or
// membership manager. Handlers complete locally or hand multi-round work to
// their own goroutines (sponsoring a join, serving a transfer session), so a
// shared worker is never parked on another tenant's network round-trip — the
// property that makes pooled dispatch safe.
func (b *binding) handle(msg inboundEnv) {
	switch msg.env.Kind {
	case wire.KindPropose, wire.KindRespond, wire.KindCommit, wire.KindAbortCert,
		wire.KindGossipDigest, wire.KindGossipDelta:
		b.engine.HandleEnvelope(msg.from, msg.env)
	case wire.KindStateRequest, wire.KindStateOffer, wire.KindStateChunk,
		wire.KindStateAck, wire.KindStateDone:
		b.xfer.HandleEnvelope(msg.from, msg.env)
	default:
		b.manager.HandleEnvelope(msg.from, msg.env)
	}
}

// Participant is one organisation's middleware runtime.
type Participant struct {
	cfg Config
	// sendConn is what the protocol engines send through: cfg.Conn wrapped
	// with the per-peer spill bound (see spillConn). Inbound still arrives
	// on cfg.Conn's handler.
	sendConn Conn

	mu      sync.Mutex
	objects map[string]*binding
	closed  bool
	relayFn func(from string, env wire.Envelope)
	deposit DepositFn

	sched *sched
}

// New creates a participant and installs its dispatcher on the connection.
func New(cfg Config) (*Participant, error) {
	if cfg.Ident == nil || cfg.Conn == nil || cfg.Log == nil || cfg.Store == nil ||
		cfg.Clock == nil || cfg.Verifier == nil {
		return nil, errors.New("core: incomplete config")
	}
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = 50 * time.Millisecond
	}
	if cfg.ResponseTimeout == 0 {
		cfg.ResponseTimeout = 10 * time.Second
	}
	p := &Participant{
		cfg:     cfg,
		objects: make(map[string]*binding),
	}
	p.sendConn = &spillConn{Conn: cfg.Conn, p: p}
	p.sched = newSched(cfg.Log, cfg.Ident.ID(), cfg.Quotas)
	cfg.Conn.SetHandler(p.dispatch)
	return p, nil
}

// ID returns the participant's identity name.
func (p *Participant) ID() string { return p.cfg.Ident.ID() }

// Identity returns the participant's identity.
func (p *Participant) Identity() *crypto.Identity { return p.cfg.Ident }

// Verifier returns the participant's certificate verifier.
func (p *Participant) Verifier() *crypto.Verifier { return p.cfg.Verifier }

// Log returns the participant's non-repudiation log.
func (p *Participant) Log() nrlog.Log { return p.cfg.Log }

// Store returns the participant's checkpoint store.
func (p *Participant) Store() store.Store { return p.cfg.Store }

// Bind attaches a coordinated object: the application's state validator and
// membership validator produce an engine/manager pair. The object starts
// unbootstrapped; call Engine().Bootstrap, Engine().Restore, or
// Manager().Join to establish membership and state.
func (p *Participant) Bind(object string, v coord.Validator, mv group.Validator) (*coord.Engine, *group.Manager, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, err := p.registerLocked(object, v, mv)
	if err != nil {
		return nil, nil, err
	}
	if err := p.materializeLocked(b, false); err != nil {
		delete(p.objects, object)
		return nil, nil, err
	}
	return b.engine, b.manager, nil
}

// BindLazy attaches a coordinated object without constructing its protocol
// machinery: the binding is an idle stub until inbound traffic or an
// accessor (Engine, Manager, Xfer) materialises it — at which point any
// persisted checkpoint is restored, so a previously bootstrapped object
// resumes exactly where Bind+Restore would put it. This is the multi-tenant
// fast path: a process can host tens of thousands of bound-but-idle objects
// at a few hundred bytes each.
func (p *Participant) BindLazy(object string, v coord.Validator, mv group.Validator) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.registerLocked(object, v, mv)
	return err
}

// registerLocked records a binding stub; p.mu must be held.
func (p *Participant) registerLocked(object string, v coord.Validator, mv group.Validator) (*binding, error) {
	if p.closed {
		return nil, errors.New("core: participant closed")
	}
	if _, dup := p.objects[object]; dup {
		return nil, fmt.Errorf("%w: %s", ErrObjectBound, object)
	}
	if mv == nil {
		mv = group.AcceptAll{}
	}
	b := &binding{object: object, v: v, mv: mv}
	p.objects[object] = b
	return b, nil
}

// materializeLocked constructs a binding's engine/manager/xfer trio. With
// restore set — the lazy paths — a persisted checkpoint is restored into the
// fresh engine; ErrNoCheckpoint (never bootstrapped) leaves it
// unbootstrapped, any other restore failure is recorded as evidence and
// surfaces on an explicit Restore. p.mu must be held.
func (p *Participant) materializeLocked(b *binding, restore bool) error {
	if b.engine != nil {
		return nil
	}
	en, err := coord.New(coord.Config{
		Ident:            p.cfg.Ident,
		Object:           b.object,
		Verifier:         p.cfg.Verifier,
		TSA:              p.cfg.TSA,
		Conn:             p.sendConn,
		Log:              p.cfg.Log,
		Store:            p.cfg.Store,
		Clock:            p.cfg.Clock,
		Validator:        b.v,
		Termination:      p.cfg.Termination,
		RetryInterval:    p.cfg.RetryInterval,
		ResponseDeadline: p.cfg.ResponseDeadline,
		TTP:              p.cfg.TTP,
		SnapshotEvery:    p.cfg.SnapshotEvery,
		PageSize:         p.cfg.PageSize,
	})
	if err != nil {
		return err
	}
	xm, err := xfer.New(xfer.Config{
		Ident:    p.cfg.Ident,
		Object:   b.object,
		Verifier: p.cfg.Verifier,
		TSA:      p.cfg.TSA,
		Conn:     p.sendConn,
		Log:      p.cfg.Log,
		Clock:    p.cfg.Clock,
		Engine:   en,
		Policy:   p.cfg.Transfer,
		Gate:     &sessionGate{s: p.sched, b: b},
		Drain:    p.cfg.Drain,
	})
	if err != nil {
		return err
	}
	mgr, err := group.New(group.Config{
		Ident:           p.cfg.Ident,
		Object:          b.object,
		Verifier:        p.cfg.Verifier,
		TSA:             p.cfg.TSA,
		Conn:            p.sendConn,
		Log:             p.cfg.Log,
		Clock:           p.cfg.Clock,
		Engine:          en,
		Validator:       b.mv,
		ResponseTimeout: p.cfg.ResponseTimeout,
		Xfer:            xm,
		InlineStateCap:  p.cfg.Transfer.InlineStateCap,
		Prekeys:         p.cfg.Prekeys,
	})
	if err != nil {
		return err
	}
	if restore {
		if rerr := en.Restore(); rerr != nil && !errors.Is(rerr, store.ErrNoCheckpoint) {
			_, _ = p.cfg.Log.Append("", b.object, "lazy-restore-failed", p.cfg.Ident.ID(), nrlog.DirLocal, []byte(rerr.Error()))
		}
	}
	b.xfer = xm
	b.manager = mgr
	b.engine = en
	b.handleFn = b.handle
	return nil
}

// materialized returns the binding for object with its protocol machinery
// constructed, materialising (with checkpoint restore) on first use.
func (p *Participant) materialized(object string) (*binding, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.objects[object]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrObjectUnknown, object)
	}
	if err := p.materializeLocked(b, true); err != nil {
		return nil, err
	}
	return b, nil
}

// Engine returns the coordination engine for a bound object, materialising a
// lazy binding on first use.
func (p *Participant) Engine(object string) (*coord.Engine, error) {
	b, err := p.materialized(object)
	if err != nil {
		return nil, err
	}
	return b.engine, nil
}

// Manager returns the membership manager for a bound object.
func (p *Participant) Manager(object string) (*group.Manager, error) {
	b, err := p.materialized(object)
	if err != nil {
		return nil, err
	}
	return b.manager, nil
}

// Xfer returns the state-transfer manager for a bound object.
func (p *Participant) Xfer(object string) (*xfer.Manager, error) {
	b, err := p.materialized(object)
	if err != nil {
		return nil, err
	}
	return b.xfer, nil
}

// CoordStats sums the coordination engines' counters across all
// materialized bindings. Unlike Engine it never materializes a lazy binding
// — an idle stub has no counters and stays a stub, so metric scrapes are
// free on a mostly-idle multi-tenant endpoint.
func (p *Participant) CoordStats() coord.Stats {
	p.mu.Lock()
	engines := make([]*coord.Engine, 0, len(p.objects))
	for _, b := range p.objects {
		if b.engine != nil {
			engines = append(engines, b.engine)
		}
	}
	p.mu.Unlock()
	var sum coord.Stats
	for _, en := range engines {
		s := en.Stats()
		sum.ProposesSent += s.ProposesSent
		sum.RespondsSent += s.RespondsSent
		sum.CommitsSent += s.CommitsSent
		sum.RunsProposed += s.RunsProposed
		sum.RunsValid += s.RunsValid
		sum.RunsInvalid += s.RunsInvalid
		sum.RunsCommitted += s.RunsCommitted
		sum.SigMemoHits += s.SigMemoHits
		sum.SigVerifies += s.SigVerifies
	}
	return sum
}

// XferStats sums the transfer plane's counters across all materialized
// bindings, without materializing lazy ones.
func (p *Participant) XferStats() xfer.Stats {
	p.mu.Lock()
	managers := make([]*xfer.Manager, 0, len(p.objects))
	for _, b := range p.objects {
		if b.xfer != nil {
			managers = append(managers, b.xfer)
		}
	}
	p.mu.Unlock()
	var sum xfer.Stats
	for _, xm := range managers {
		s := xm.Stats()
		sum.SessionsServed += s.SessionsServed
		sum.DeltaSessions += s.DeltaSessions
		sum.SnapshotSessions += s.SnapshotSessions
		sum.UpToDateReplies += s.UpToDateReplies
		sum.ChunksSent += s.ChunksSent
		sum.BytesSent += s.BytesSent
		sum.SessionsFetched += s.SessionsFetched
		sum.BytesFetched += s.BytesFetched
	}
	return sum
}

// Objects lists bound object names.
func (p *Participant) Objects() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.objects))
	for o := range p.objects {
		out = append(out, o)
	}
	return out
}

// dispatch routes an inbound payload to its object's binding. The scheduler
// queue decouples the transport's delivery goroutine from protocol handling
// without ever blocking it: an idle object is scheduled onto the shared
// worker pool, a saturated one parks the sender's overflow per sender, and a
// group over its pending-bytes quota sheds (see sched.enqueue). Traffic for
// a lazily bound object materialises it here.
func (p *Participant) dispatch(from string, payload []byte) {
	env, err := wire.UnmarshalEnvelope(payload)
	if err != nil {
		_, _ = p.cfg.Log.Append("", "", "malformed-envelope", p.cfg.Ident.ID(), nrlog.DirReceived, payload)
		return
	}
	if relayKind(env.Kind) {
		// Connection-scoped relay traffic (Object is empty): handled by the
		// co-hosted relay client/server, never by binding dispatch.
		p.handleRelay(from, env, payload)
		return
	}
	p.mu.Lock()
	b, ok := p.objects[env.Object]
	closed := p.closed
	if ok && !closed && b.engine == nil {
		if merr := p.materializeLocked(b, true); merr != nil {
			p.mu.Unlock()
			_, _ = p.cfg.Log.Append("", env.Object, "materialize-failed", p.cfg.Ident.ID(), nrlog.DirReceived, payload)
			return
		}
	}
	p.mu.Unlock()
	if closed {
		return
	}
	if !ok {
		_, _ = p.cfg.Log.Append("", env.Object, "unbound-object", p.cfg.Ident.ID(), nrlog.DirReceived, payload)
		return
	}
	p.sched.enqueue(b, from, env)
}

// Inject feeds one marshalled envelope into inbound dispatch exactly as if
// it had arrived on the connection. The relay client's drain path uses it:
// unsealed mailbox entries re-enter through the same routing, quota and
// verification pipeline as live traffic.
func (p *Participant) Inject(from string, payload []byte) { p.dispatch(from, payload) }

// Close shuts the participant down (the connection is closed, the worker
// pool drains and stops; engines keep their persisted state for recovery).
func (p *Participant) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	objs := make([]*binding, 0, len(p.objects))
	for _, b := range p.objects {
		objs = append(objs, b)
	}
	p.mu.Unlock()
	for _, b := range objs {
		if b.xfer != nil {
			b.xfer.Close()
		}
	}
	p.sched.stop(objs)
	err := p.cfg.Conn.Close()
	p.sched.wait()
	return err
}
