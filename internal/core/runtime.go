package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"b2b/internal/nrlog"
	"b2b/internal/wire"
)

// ErrQuotaExceeded reports that a group is over one of its QuotaPolicy caps:
// admission control refused a locally initiated run, or inbound traffic for
// the group was shed. It is a typed, inspectable condition — never a silent
// drop: shed traffic is counted in GroupUsage/RuntimeStats and recorded as a
// "quota-shed" evidence entry, and the protocol's retry layer restores
// liveness once the group is back under its caps.
var ErrQuotaExceeded = errors.New("core: group quota exceeded")

// QuotaPolicy caps the resources any single group (one bound object's
// sharing group — one tenant) may consume on a multi-tenant endpoint. Every
// cap applies per group; zero means uncapped. The zero policy disables all
// quota enforcement and admission control.
type QuotaPolicy struct {
	// MaxResidentPages caps the pagestate pages a group holds resident
	// (agreed state plus pipeline tip — coord.Engine.ResidentPages). Over
	// the cap, locally initiated runs are refused with ErrQuotaExceeded
	// until the group shrinks.
	MaxResidentPages int
	// MaxPendingBytes caps a group's inbound backlog (queued plus parked
	// envelope bytes). Traffic beyond the cap is shed with a "quota-shed"
	// evidence entry; the sender's protocol-level retry re-delivers once
	// the backlog drains, so shedding is liveness-safe for protocol
	// traffic.
	MaxPendingBytes int64
	// MaxSessions caps a group's concurrently served state-transfer
	// sessions (shared with internal/xfer through the session gate, on top
	// of the per-manager xfer.Policy.MaxSessions).
	MaxSessions int
	// MaxTotalSessions caps served transfer sessions across ALL groups on
	// the endpoint.
	MaxTotalSessions int
	// MaxPeerBacklog throttles a group's proposer when any member's
	// outbound transport backlog (transport.Reliable.PendingTo) exceeds
	// this many frames: Admit blocks until the link drains or the caller's
	// context expires.
	MaxPeerBacklog int
	// MaxPendingToPeer bounds the outbound transport backlog to any single
	// peer. A send that would grow a peer's un-acked retransmission queue
	// past this many frames is instead parked at the relay (when one is
	// configured — Config.Relay — the peer drains it on reconnect) or
	// shed with a "pending-shed" evidence entry; protocol retries and
	// state-transfer catch-up restore liveness. This cap is endpoint-wide,
	// not per group: the outbox it bounds is shared.
	MaxPendingToPeer int
	// Workers overrides the scheduler's worker-pool size (default
	// GOMAXPROCS).
	Workers int
}

// RuntimeStats is a snapshot of the multi-tenant runtime: the shared worker
// pool and every group's aggregate queue/quota state.
type RuntimeStats struct {
	Workers      int    // scheduler worker-pool size
	Bound        int    // bound objects (tenants), idle or not
	Materialized int    // bound objects whose engines have been constructed
	Active       int    // bindings currently queued or running on a worker
	PendingMsgs  int    // messages in direct per-binding queues
	PendingBytes int64  // envelope bytes in direct queues
	ParkedMsgs   int    // messages parked per-sender behind saturated groups
	ParkedBytes  int64  // envelope bytes parked
	Sessions     int    // state-transfer sessions currently served (gate-held)
	Handled      uint64 // messages handled since start
	Parked       uint64 // messages that took the parked (per-sender wait) path
	Shed         uint64 // messages shed over MaxPendingBytes
}

// GroupUsage is one group's resource accounting, in the units the quotas are
// expressed in.
type GroupUsage struct {
	Object        string
	Materialized  bool // false: idle stub — no engine, near-zero memory
	ResidentPages int  // pagestate pages held (0 until materialized)
	PendingMsgs   int
	PendingBytes  int64
	ParkedMsgs    int
	ParkedBytes   int64
	Sessions      int // served transfer sessions charged to this group
	Handled       uint64
	Shed          uint64
}

// Scheduler tuning. softPendingMsgs bounds a binding's direct queue — beyond
// it, arrivals wait per sender in parked queues so one saturated object
// cannot head-of-line-block the transport's delivery goroutine (see
// sched.enqueue). batchQuantum is how many messages one worker handles for a
// binding before re-queueing it behind other active bindings (round-robin
// fairness across tenants).
const (
	softPendingMsgs = 1024
	batchQuantum    = 32
)

// Binding run states: per-object serial execution is preserved by the state
// flag — a binding is appended to the run queue at most once, and only the
// worker that moved it to stateRunning handles its messages, so protocol
// handler ordering per object is exactly what the dedicated-goroutine
// dispatch provided.
const (
	stateIdle = iota
	stateQueued
	stateRunning
)

// parkedQueue is one sender's overflow FIFO behind a saturated binding.
type parkedQueue struct {
	msgs  []inboundEnv
	head  int
	bytes int64
}

// envCost is the accounting size of one queued envelope: payload plus header
// strings plus a fixed structural overhead.
func envCost(env wire.Envelope) int64 {
	return int64(len(env.Payload)+len(env.MsgID)+len(env.From)+len(env.To)+len(env.Object)) + 64
}

// sched is the multi-tenant scheduler: a worker pool sized to GOMAXPROCS
// draining only *active* bindings. An idle binding costs no goroutine and no
// queue buffer (its queue is released on the running→idle transition), so a
// process hosting 10k mostly-idle objects pays O(active), not O(total).
type sched struct {
	log    nrlog.Log
	self   string
	quotas QuotaPolicy

	mu      sync.Mutex
	cond    *sync.Cond
	runq    []*binding // bindings in stateQueued, FIFO
	rqh     int        // runq head index
	stopped bool
	wg      sync.WaitGroup

	workers      int
	active       int
	pendingMsgs  int
	pendingBytes int64
	parkedMsgs   int
	parkedBytes  int64
	sessions     int
	handled      uint64
	parked       uint64
	shed         uint64
}

// newSched builds the scheduler and starts its worker pool.
func newSched(log nrlog.Log, self string, q QuotaPolicy) *sched {
	s := &sched{log: log, self: self, quotas: q}
	s.cond = sync.NewCond(&s.mu)
	s.workers = q.Workers
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// enqueue routes one inbound envelope to its binding. It never blocks the
// caller (the transport's single delivery goroutine):
//
//   - under the binding's soft queue bound, the message goes on the direct
//     queue and the binding is scheduled if idle;
//   - over the bound, the message waits in a per-sender parked queue — the
//     blocked wait is per (sender, object), so a flooded object delays only
//     its own traffic while sibling objects on the same connection proceed;
//   - over the group's MaxPendingBytes quota, the message is shed with a
//     typed "quota-shed" evidence entry and counted, never silently dropped.
func (s *sched) enqueue(b *binding, from string, env wire.Envelope) {
	cost := envCost(env)
	s.mu.Lock()
	if s.stopped {
		// The participant is closing and the connection is (about to be)
		// gone.
		s.mu.Unlock()
		return
	}
	if max := s.quotas.MaxPendingBytes; max > 0 && b.qBytes+b.parkedBytes+cost > max {
		b.shed++
		s.shed++
		s.mu.Unlock()
		_, _ = s.log.Append("", env.Object, "quota-shed", from, nrlog.DirReceived, nil)
		return
	}
	pq := b.parkedFrom[from]
	if pq != nil || len(b.q)-b.qh >= softPendingMsgs {
		// Park per sender. Once a sender has parked messages, all its later
		// traffic for this object parks behind them, preserving per-sender
		// arrival order (cross-sender order was never guaranteed).
		if pq == nil {
			if b.parkedFrom == nil {
				b.parkedFrom = make(map[string]*parkedQueue)
			}
			pq = &parkedQueue{}
			b.parkedFrom[from] = pq
			b.parkOrder = append(b.parkOrder, from)
		}
		pq.msgs = append(pq.msgs, inboundEnv{from: from, env: env})
		pq.bytes += cost
		b.parkedMsgs++
		b.parkedBytes += cost
		s.parkedMsgs++
		s.parkedBytes += cost
		s.parked++
		s.mu.Unlock()
		return
	}
	b.q = append(b.q, inboundEnv{from: from, env: env})
	b.qBytes += cost
	s.pendingMsgs++
	s.pendingBytes += cost
	if b.state == stateIdle {
		s.pushLocked(b)
	}
	s.mu.Unlock()
}

// pushLocked appends an idle binding to the run queue and wakes one worker.
func (s *sched) pushLocked(b *binding) {
	b.state = stateQueued
	s.active++
	s.runq = append(s.runq, b)
	s.cond.Signal()
}

// popLocked removes the next queued binding (nil when the queue is empty).
func (s *sched) popLocked() *binding {
	if s.rqh == len(s.runq) {
		return nil
	}
	b := s.runq[s.rqh]
	s.runq[s.rqh] = nil
	s.rqh++
	if s.rqh == len(s.runq) {
		s.runq = s.runq[:0]
		s.rqh = 0
	}
	return b
}

// worker drains active bindings: pop one, handle up to batchQuantum of its
// messages outside the lock, then either re-queue it (more pending —
// round-robin with the other active bindings) or return it to idle,
// releasing its queue buffer. After stop it keeps draining until the run
// queue is empty: the transport acked and journaled every queued message as
// seen before enqueueing, so a message dropped here would never be
// retransmitted — delivered zero times despite the once-only contract.
func (s *sched) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var b *binding
		for {
			if b = s.popLocked(); b != nil {
				break
			}
			if s.stopped {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		b.state = stateRunning
		end := b.qh + batchQuantum
		if end > len(b.q) {
			end = len(b.q)
		}
		batch := b.q[b.qh:end]
		s.mu.Unlock()

		for i := range batch {
			b.handleFn(batch[i])
		}

		s.mu.Lock()
		var freed int64
		for i := range batch {
			freed += envCost(batch[i].env)
			batch[i] = inboundEnv{} // release payload references
		}
		b.qh = end
		b.qBytes -= freed
		b.handled += uint64(len(batch))
		s.pendingMsgs -= len(batch)
		s.pendingBytes -= freed
		s.handled += uint64(len(batch))
		if room := softPendingMsgs - (len(b.q) - b.qh); room > 0 {
			s.unparkLocked(b, room)
		}
		if b.qh < len(b.q) {
			b.state = stateQueued
			s.runq = append(s.runq, b)
			s.cond.Signal()
		} else {
			b.q = nil // idle binding: release the buffer, cost ~zero memory
			b.qh = 0
			b.state = stateIdle
			s.active--
		}
		s.mu.Unlock()
	}
}

// unparkLocked moves up to room parked messages onto b's direct queue,
// round-robin across parked senders (one message per sender per cycle) so no
// single sender monopolises the freed capacity. Per-sender FIFO order is
// preserved; a sender whose parked queue drains goes back to the direct
// path.
func (s *sched) unparkLocked(b *binding, room int) {
	for room > 0 && len(b.parkOrder) > 0 {
		i := 0
		for i < len(b.parkOrder) && room > 0 {
			sender := b.parkOrder[i]
			pq := b.parkedFrom[sender]
			msg := pq.msgs[pq.head]
			pq.msgs[pq.head] = inboundEnv{}
			pq.head++
			cost := envCost(msg.env)
			pq.bytes -= cost
			b.q = append(b.q, msg)
			b.qBytes += cost
			b.parkedMsgs--
			b.parkedBytes -= cost
			s.parkedMsgs--
			s.parkedBytes -= cost
			s.pendingMsgs++
			s.pendingBytes += cost
			room--
			if pq.head == len(pq.msgs) {
				delete(b.parkedFrom, sender)
				b.parkOrder = append(b.parkOrder[:i], b.parkOrder[i+1:]...)
			} else {
				i++
			}
		}
	}
	if len(b.parkOrder) == 0 {
		b.parkedFrom = nil
		b.parkOrder = nil
	}
}

// stop flushes every parked queue into its binding's direct queue (the soft
// bound no longer applies: these messages were acked as seen and will never
// be retransmitted) and wakes the workers for the final drain. Callers then
// wait() for the drain to finish.
func (s *sched) stop(bindings []*binding) {
	s.mu.Lock()
	s.stopped = true
	for _, b := range bindings {
		if b.parkedMsgs > 0 {
			s.unparkLocked(b, b.parkedMsgs)
		}
		if b.state == stateIdle && b.qh < len(b.q) {
			s.pushLocked(b)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// wait blocks until every worker has drained and exited.
func (s *sched) wait() { s.wg.Wait() }

// acquireSession reserves a served transfer-session slot for b's group under
// the per-group and endpoint-wide session quotas. It backs xfer's
// SessionGate, sharing the runtime's accounting with the transfer plane.
func (s *sched) acquireSession(b *binding) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if max := s.quotas.MaxSessions; max > 0 && b.sessions >= max {
		return false
	}
	if max := s.quotas.MaxTotalSessions; max > 0 && s.sessions >= max {
		return false
	}
	b.sessions++
	s.sessions++
	return true
}

func (s *sched) releaseSession(b *binding) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b.sessions--
	s.sessions--
}

// sessionGate adapts one binding's slot accounting to xfer.SessionGate.
type sessionGate struct {
	s *sched
	b *binding
}

func (g *sessionGate) TryAcquire() bool { return g.s.acquireSession(g.b) }
func (g *sessionGate) Release()         { g.s.releaseSession(g.b) }

// pendingPeers is the transport surface admission control throttles against
// (transport.Reliable implements it; other conns simply aren't throttled).
type pendingPeers interface {
	PendingTo(to string) int
}

// RuntimeStats snapshots the scheduler.
func (p *Participant) RuntimeStats() RuntimeStats {
	p.mu.Lock()
	bound := len(p.objects)
	materialized := 0
	for _, b := range p.objects {
		if b.engine != nil {
			materialized++
		}
	}
	p.mu.Unlock()
	s := p.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	return RuntimeStats{
		Workers:      s.workers,
		Bound:        bound,
		Materialized: materialized,
		Active:       s.active,
		PendingMsgs:  s.pendingMsgs,
		PendingBytes: s.pendingBytes,
		ParkedMsgs:   s.parkedMsgs,
		ParkedBytes:  s.parkedBytes,
		Sessions:     s.sessions,
		Handled:      s.handled,
		Parked:       s.parked,
		Shed:         s.shed,
	}
}

// GroupUsage reports one group's resource accounting.
func (p *Participant) GroupUsage(object string) (GroupUsage, error) {
	p.mu.Lock()
	b, ok := p.objects[object]
	p.mu.Unlock()
	if !ok {
		return GroupUsage{}, fmt.Errorf("%w: %s", ErrObjectUnknown, object)
	}
	u := GroupUsage{Object: object}
	if b.engine != nil {
		u.Materialized = true
		u.ResidentPages = b.engine.ResidentPages()
	}
	s := p.sched
	s.mu.Lock()
	u.PendingMsgs = len(b.q) - b.qh
	u.PendingBytes = b.qBytes
	u.ParkedMsgs = b.parkedMsgs
	u.ParkedBytes = b.parkedBytes
	u.Sessions = b.sessions
	u.Handled = b.handled
	u.Shed = b.shed
	s.mu.Unlock()
	return u, nil
}

// Admit applies admission control for a locally initiated coordination run
// on object. Over MaxResidentPages or MaxPendingBytes it refuses with
// ErrQuotaExceeded immediately; over MaxPeerBacklog it throttles — blocks
// until every member's outbound transport backlog drains below the cap or
// ctx expires — so a fast proposer is paced by its slowest peer link instead
// of flooding the shared endpoint. A zero QuotaPolicy admits everything.
func (p *Participant) Admit(ctx context.Context, object string) error {
	q := p.cfg.Quotas
	if q.MaxResidentPages == 0 && q.MaxPendingBytes == 0 && q.MaxPeerBacklog == 0 {
		return nil
	}
	p.mu.Lock()
	b, ok := p.objects[object]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrObjectUnknown, object)
	}
	if b.engine == nil {
		return nil // idle stub: zero usage by definition
	}
	if max := q.MaxResidentPages; max > 0 {
		if pages := b.engine.ResidentPages(); pages > max {
			return fmt.Errorf("%w: %s holds %d resident pages (cap %d)",
				ErrQuotaExceeded, object, pages, max)
		}
	}
	if max := q.MaxPendingBytes; max > 0 {
		s := p.sched
		s.mu.Lock()
		pending := b.qBytes + b.parkedBytes
		s.mu.Unlock()
		if pending > max {
			return fmt.Errorf("%w: %s has %d pending inbound bytes (cap %d)",
				ErrQuotaExceeded, object, pending, max)
		}
	}
	if max := q.MaxPeerBacklog; max > 0 {
		if err := p.throttlePeers(ctx, b, max); err != nil {
			return err
		}
	}
	return nil
}

// throttlePeers blocks while any group member's outbound backlog exceeds the
// cap (the Reliable.PendingTo reuse from the quota design): backpressure for
// the proposing tenant without touching other groups' traffic.
func (p *Participant) throttlePeers(ctx context.Context, b *binding, max int) error {
	pp, ok := p.cfg.Conn.(pendingPeers)
	if !ok {
		return nil
	}
	interval := p.cfg.RetryInterval / 8
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	for {
		worst, peer := 0, ""
		_, members := b.engine.Group()
		for _, m := range members {
			if m == p.cfg.Ident.ID() {
				continue
			}
			if n := pp.PendingTo(m); n > worst {
				worst, peer = n, m
			}
		}
		if worst <= max {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %s: backlog to %s is %d frames (cap %d): %v",
				ErrQuotaExceeded, b.object, peer, worst, max, ctx.Err())
		case <-p.cfg.Clock.After(interval):
		}
	}
}
