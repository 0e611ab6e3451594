package transport

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"b2b/internal/canon"
	"b2b/internal/clock"
	"b2b/internal/store"
	"b2b/internal/wire"
)

// frame kinds inside the reliable layer.
const (
	relData  byte = 1
	relAck   byte = 2
	relBatch byte = 3 // multi-frame envelope of rel frames (wire.MarshalMulti)
	relAckN  byte = 4 // cumulative ack: body is a canon list of msgIDs
)

// Batching defaults (the time/size window bounding how long and how large a
// per-peer batch may grow before it is flushed).
const (
	DefaultBatchWindow = time.Millisecond
	DefaultBatchBytes  = 64 << 10
)

// ReliableOption configures a Reliable endpoint.
type ReliableOption func(*Reliable)

// WithRetryInterval sets the retransmission floor (default 50ms): the
// lower bound of every peer's retransmission timeout, which is the timeout
// itself until the peer's acks have measured its round trip, and the
// shortest interval between two outbox sweeps. The retransmit loop does
// not tick at this period: it sleeps while nothing is outstanding and
// otherwise wakes when the earliest unacknowledged frame falls due.
// Retransmissions to a silent peer back off exponentially from its timeout
// (see WithRetryBackoff).
func WithRetryInterval(d time.Duration) ReliableOption {
	return func(r *Reliable) { r.retry = d }
}

// WithRetryBackoff caps the per-peer retransmission timeout and its
// exponential backoff (default 1s, never below the retry floor). Each
// consecutive unanswered retransmission round doubles a peer's interval,
// starting from its timeout, up to this cap, with jitter, so a
// long-offline peer costs a trickle instead of a full-rate retransmit
// storm; any frame from the peer — ack or data — drops it back to its
// measured timeout, so a reconnecting peer is served promptly.
func WithRetryBackoff(cap time.Duration) ReliableOption {
	return func(r *Reliable) { r.retryCap = cap }
}

// WithJournal persists the outbox and dedup set on j, an unstarted plane
// (OpenFileJournal) dedicated to this Reliable, so that a node that crashes
// and recovers resumes retransmission and still suppresses duplicates — the
// paper assumes nodes eventually recover and resume participation (§4.2).
// NewReliable starts the plane, restoring both from it.
func WithJournal(j *store.Plane) ReliableOption {
	return func(r *Reliable) { r.journal = j }
}

// WithBatching enables the throughput path: outgoing frames for one peer are
// coalesced into a single multi-frame datagram, flushed when the window
// elapses or the batch reaches maxBytes, and acknowledgements are coalesced
// into one cumulative ack frame covering many msgIDs. Zero values select
// DefaultBatchWindow / DefaultBatchBytes. Delivery semantics are unchanged:
// eventual once-only delivery, unordered.
func WithBatching(window time.Duration, maxBytes int) ReliableOption {
	return func(r *Reliable) {
		if window <= 0 {
			window = DefaultBatchWindow
		}
		if maxBytes <= 0 {
			maxBytes = DefaultBatchBytes
		}
		r.batching = true
		r.batchWindow = window
		r.batchBytes = maxBytes
	}
}

// Reliable wraps an Endpoint with acknowledgement, retransmission and
// deduplication: every accepted Send is eventually delivered exactly once to
// a live receiver, provided loss/partition is temporary (the paper's
// "eventual, once-only delivery"). Ordering is NOT guaranteed — the protocol
// does not require it.
type Reliable struct {
	ep       Endpoint
	retry    time.Duration
	retryCap time.Duration
	journal  *store.Plane

	batching    bool
	batchWindow time.Duration
	batchBytes  int

	mu      sync.Mutex
	outbox  map[string]*outRec // by msgID
	seen    map[string]struct{}
	handler Handler
	closed  bool
	// peers holds each peer's round-trip estimate and retransmission
	// backoff.
	peers map[string]*peerLink
	// The retransmit loop's alarm: timer kicks the loop at wakeAt, the
	// earliest instant a sent frame falls due, but not sooner than a floor
	// after the last sweep. wakeAt is zero, and no timer is pending, while
	// nothing is outstanding.
	timer     clock.Timer
	alarm     func() // kick, bound once for every timer
	wakeAt    time.Time
	lastSweep time.Time
	sweeps    uint64 // outbox sweeps performed
	// acked, once a SendStream waiter has made it, is closed when
	// acknowledgements retire outbox entries, waking every waiter to
	// re-check its peer's count.
	acked chan struct{}

	bmu      sync.Mutex
	batchers map[string]*peerBatch

	wake chan struct{} // capacity 1: the alarm's kick to the retransmit loop
	stop chan struct{}
	wg   sync.WaitGroup
	// Message ids are "<incarnation>-<counter>": the incarnation, random per
	// NewReliable, keeps a restarted Reliable's ids apart from those its
	// peers' persisted dedup sets already hold.
	incarnation string
	ctr         atomic.Uint64
}

// outRec is one unacknowledged outgoing message: its payload (as the
// segments it was handed in), and the rel frame it was first encoded into,
// which every retransmission re-sends.
type outRec struct {
	to      string
	payload [][]byte
	frame   frame
	sentAt  time.Time // when the last wire transmission was made
	// sent is false until the first transmission has returned: while the
	// journal append or the first copy is in flight the record is in the
	// outbox (so a racing compaction keeps it and an early ack retires it),
	// but it is not due for retransmission.
	sent bool
	// resend is the frame every retransmission sends, encoded at the
	// first: the payload under the msgID marked as a retransmitted copy
	// (resendMark). Receivers echo the id they were sent, so an ack says
	// whether it answers the first copy or a retransmitted one, and
	// firstSentAt keeps the first copy's sentAt.
	resend      frame
	firstSentAt time.Time
}

// peerLink is one peer's retransmission timing (RFC 6298): the smoothed
// round trip and its variation from clean samples, the retransmission
// timeout they give, and the backoff while the peer stays silent.
type peerLink struct {
	srtt, rttvar time.Duration
	sampled      bool // a clean sample has been taken
	// rto is the age at which an unacknowledged frame falls due: the floor
	// until the first clean sample, then srtt + max(floor, 4·rttvar),
	// capped (sampleLocked). Until that first sample it keeps whatever
	// backoff the peer's silence reached (Karn's algorithm): on a path
	// whose round trip exceeds the floor every frame would otherwise be
	// resent before its ack came back, and no sample would ever be clean.
	rto      time.Duration
	attempts int       // consecutive retransmission rounds without contact
	next     time.Time // while attempts > 0: the next round is not due before this
}

// resendMark ends the msgID a retransmitted copy travels under. Message
// ids ("<incarnation>-<counter>") never contain it; receivers deduplicate
// on the id without it, and acknowledge the id as sent.
const resendMark = "+"

// peerBatch accumulates frames and pending acks bound for one peer until the
// flush window closes or the size cap is reached.
type peerBatch struct {
	frames []frame
	ackIDs []string
	size   int
	armed  bool
}

// NewReliable wraps ep. The wrapper takes over ep's handler.
func NewReliable(ep Endpoint, opts ...ReliableOption) (*Reliable, error) {
	r := &Reliable{
		ep:          ep,
		retry:       50 * time.Millisecond,
		retryCap:    time.Second,
		outbox:      make(map[string]*outRec),
		seen:        make(map[string]struct{}),
		batchers:    make(map[string]*peerBatch),
		peers:       make(map[string]*peerLink),
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		incarnation: strconv.FormatUint(rand.Uint64(), 36),
	}
	r.alarm = r.kick
	for _, o := range opts {
		o(r)
	}
	if r.retryCap < r.retry {
		r.retryCap = r.retry // WithRetryInterval stays the floor
	}
	if r.journal != nil {
		r.journal.Attach((*journalConsumer)(r))
		if err := r.journal.Start(); err != nil {
			return nil, fmt.Errorf("transport: restoring journal: %w", err)
		}
		if len(r.outbox) > 0 {
			// Restored frames are retransmitted one floor after the restart.
			now := clock.Wall{}.Now()
			for _, rec := range r.outbox {
				rec.sentAt = now
			}
			r.armLocked(now, now.Add(r.retry))
		}
	}
	ep.SetHandler(r.onRaw)
	r.wg.Add(1)
	go r.retransmitLoop()
	return r, nil
}

// ID returns the underlying endpoint identity.
func (r *Reliable) ID() string { return r.ep.ID() }

// SetHandler installs the application handler for deduplicated messages.
func (r *Reliable) SetHandler(h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handler = h
}

// nextMsgID allocates a message identifier unique across this endpoint's
// restarts.
func (r *Reliable) nextMsgID() string {
	return r.incarnation + "-" + strconv.FormatUint(r.ctr.Add(1), 10)
}

// Send queues payload for delivery to peer `to` and transmits the first
// copy (with batching enabled, the first copy may travel inside a coalesced
// multi-frame datagram). It returns once the message is durably queued;
// retransmission continues in the background until the peer acknowledges.
// If the journal append fails the message is withdrawn: it is never
// transmitted, and Send returns the error.
func (r *Reliable) Send(ctx context.Context, to string, payload []byte) error {
	return r.SendFrame(ctx, to, [][]byte{payload})
}

// SendFrame is Send for a payload held as consecutive segments
// (FrameSender): the rel frame is written around them, and they are copied
// only where the datagram leaves the process — or into the journal record.
func (r *Reliable) SendFrame(ctx context.Context, to string, payload [][]byte) error {
	msgID := r.nextMsgID()
	rec := &outRec{to: to, payload: payload, frame: encodeRel(relData, msgID, payload...)}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.outbox[msgID] = rec
	r.mu.Unlock()

	if r.journal != nil {
		err := r.journal.Append(store.RecOutboxSave, marshalOutRecord(msgID, to, payload...))
		if err != nil {
			r.mu.Lock()
			delete(r.outbox, msgID)
			r.mu.Unlock()
			return fmt.Errorf("transport: journaling outgoing: %w", err)
		}
	}
	// First transmission. Errors are ignored deliberately: the retransmit
	// loop will retry, and an unreachable peer is indistinguishable from a
	// lossy link at this layer. The retransmit clock starts when the
	// transmission returns: writing a large frame (a 1 MiB copy into the
	// in-memory network, a blocking socket write) is not time in which its
	// ack could have been lost.
	r.transmit(ctx, to, rec.frame)
	now := clock.Wall{}.Now()
	r.mu.Lock()
	rec.sent, rec.sentAt = true, now
	if r.outbox[msgID] == rec { // not acknowledged already
		r.armLocked(now, r.dueLocked(rec))
	}
	r.mu.Unlock()
	return nil
}

// transmit hands one encoded rel frame to the wire: directly without
// batching, via the peer's batch otherwise.
func (r *Reliable) transmit(ctx context.Context, to string, f frame) {
	if !r.batching {
		r.sendFrame(ctx, to, f)
		return
	}
	r.enqueue(to, f, "")
}

// sendFrame puts one datagram on the wire.
func (r *Reliable) sendFrame(ctx context.Context, to string, f frame) {
	_ = SendFrame(ctx, r.ep, to, f)
}

// enqueue adds a frame and/or a pending ack msgID to the peer's batch,
// flushing immediately when the size cap is reached and otherwise arming the
// window timer.
func (r *Reliable) enqueue(to string, f frame, ackID string) {
	r.bmu.Lock()
	pb := r.batchers[to]
	if pb == nil {
		pb = &peerBatch{}
		r.batchers[to] = pb
	}
	if f != nil {
		pb.frames = append(pb.frames, f)
		pb.size += f.size()
	}
	if ackID != "" {
		pb.ackIDs = append(pb.ackIDs, ackID)
	}
	if pb.size >= r.batchBytes {
		frames, acks := pb.frames, pb.ackIDs
		pb.frames, pb.ackIDs, pb.size = nil, nil, 0
		r.bmu.Unlock()
		r.sendCoalesced(to, frames, acks)
		return
	}
	if !pb.armed {
		pb.armed = true
		clock.Wall{}.AfterFunc(r.batchWindow, func() { r.flushPeer(to) })
	}
	r.bmu.Unlock()
}

// flushPeer drains the peer's batch onto the wire.
func (r *Reliable) flushPeer(to string) {
	r.bmu.Lock()
	pb := r.batchers[to]
	if pb == nil {
		r.bmu.Unlock()
		return
	}
	frames, acks := pb.frames, pb.ackIDs
	pb.frames, pb.ackIDs, pb.size, pb.armed = nil, nil, 0, false
	r.bmu.Unlock()
	r.sendCoalesced(to, frames, acks)
}

// flushAll drains every peer's batch (used on Close so queued first copies
// still hit the wire).
func (r *Reliable) flushAll() {
	r.bmu.Lock()
	peers := make([]string, 0, len(r.batchers))
	for to := range r.batchers {
		peers = append(peers, to)
	}
	r.bmu.Unlock()
	for _, to := range peers {
		r.flushPeer(to)
	}
}

// sendCoalesced packs frames plus one cumulative ack into as few datagrams
// as the size cap allows and transmits them.
func (r *Reliable) sendCoalesced(to string, frames []frame, ackIDs []string) {
	if len(ackIDs) > 0 {
		frames = append(frames, encodeRel(relAckN, "", encodeStrings("relacks", ackIDs)))
	}
	if len(frames) == 0 {
		return
	}
	var dgrams, chunk []frame
	size := 0
	pack := func() {
		switch len(chunk) {
		case 0:
		case 1:
			dgrams = append(dgrams, chunk[0]) // single frame travels raw
		default:
			subs := make([][]byte, len(chunk))
			for i, f := range chunk {
				subs[i] = f.bytes()
			}
			dgrams = append(dgrams, encodeRel(relBatch, "", wire.MarshalMulti(subs)))
		}
		chunk, size = nil, 0
	}
	for _, f := range frames {
		if size+f.size() > r.batchBytes && len(chunk) > 0 {
			pack()
		}
		chunk = append(chunk, f)
		size += f.size()
	}
	pack()

	ctx := context.Background()
	if len(dgrams) > 1 {
		if bs, ok := r.ep.(BatchSender); ok {
			payloads := make([][]byte, len(dgrams))
			for i, d := range dgrams {
				payloads[i] = d.bytes()
			}
			_ = bs.SendBatch(ctx, to, payloads)
			return
		}
	}
	for _, d := range dgrams {
		r.sendFrame(ctx, to, d)
	}
}

// Pending reports the number of unacknowledged outgoing messages.
func (r *Reliable) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.outbox)
}

// PendingTo reports the number of unacknowledged outgoing messages queued
// for one peer.
func (r *Reliable) PendingTo(to string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pendingToLocked(to)
}

func (r *Reliable) pendingToLocked(to string) int {
	n := 0
	for _, rec := range r.outbox {
		if rec.to == to {
			n++
		}
	}
	return n
}

// SendStream is Send with backpressure for bulk traffic: it blocks while the
// peer already has `limit` or more unacknowledged messages queued, so a
// large state transfer feeds the outbox at the receiver's pace instead of
// flooding it — coordination messages sharing the connection keep their
// retransmission slots and the outbox stays bounded. Every waiter re-checks
// whenever acknowledgements retire messages; limit < 1 degrades to plain
// Send.
func (r *Reliable) SendStream(ctx context.Context, to string, payload []byte, limit int) error {
	for limit >= 1 {
		r.mu.Lock()
		if r.pendingToLocked(to) < limit {
			r.mu.Unlock()
			break
		}
		if r.acked == nil {
			r.acked = make(chan struct{})
		}
		acked := r.acked
		r.mu.Unlock()
		select {
		case <-acked:
		case <-ctx.Done():
			return ctx.Err()
		case <-r.stop:
			return ErrClosed
		}
	}
	return r.Send(ctx, to, payload)
}

// Close stops retransmission and closes the underlying endpoint. Queued
// batches are flushed first so first transmissions already accepted by Send
// reach the wire.
func (r *Reliable) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.disarmLocked()
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	if r.batching {
		r.flushAll()
	}
	return r.ep.Close()
}

// retransmitLoop sweeps the outbox each time the alarm (armLocked) goes
// off, and sleeps otherwise: with nothing outstanding no alarm is set.
func (r *Reliable) retransmitLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
		}
		now := clock.Wall{}.Now()
		r.mu.Lock()
		due := !r.wakeAt.IsZero() && !now.Before(r.wakeAt)
		r.mu.Unlock()
		if due { // otherwise the kick is stale: the alarm was moved since
			r.sweep(now)
		}
	}
}

// kick wakes the retransmit loop.
func (r *Reliable) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// armLocked sets the alarm for `at`, unless it is already set to go off
// earlier. Sweeps stay at least a floor apart, as a ticker at the floor
// kept them, so frames falling due in quick succession go out in one round.
func (r *Reliable) armLocked(now, at time.Time) {
	if r.closed {
		return
	}
	if floor := r.lastSweep.Add(r.retry); at.Before(floor) {
		at = floor
	}
	if !r.wakeAt.IsZero() && !at.Before(r.wakeAt) {
		return
	}
	r.disarmLocked()
	r.wakeAt = at
	r.timer = clock.Wall{}.AfterFunc(at.Sub(now), r.alarm)
}

// disarmLocked clears the alarm: nothing is outstanding, or it moves.
func (r *Reliable) disarmLocked() {
	if !r.wakeAt.IsZero() {
		r.timer.Stop()
		r.wakeAt = time.Time{}
	}
}

// dueLocked is when rec falls due for retransmission: once its age reaches
// its peer's timeout, and for a backed-off peer not before the peer's next
// round.
func (r *Reliable) dueLocked(rec *outRec) time.Time {
	p := r.peers[rec.to]
	if p == nil {
		return rec.sentAt.Add(r.retry)
	}
	due := rec.sentAt.Add(p.rto)
	if p.attempts > 0 && due.Before(p.next) {
		due = p.next
	}
	return due
}

// peerLocked returns to's timing state, creating it at the floor.
func (r *Reliable) peerLocked(to string) *peerLink {
	p := r.peers[to]
	if p == nil {
		p = &peerLink{rto: r.retry}
		r.peers[to] = p
	}
	return p
}

// sweep retransmits every frame that is due, each peer's in one round,
// and re-arms the alarm for the earliest frame still outstanding. The
// first retransmission to a peer fires once a frame's age reaches the
// peer's timeout; then a silent peer's interval doubles (with jitter) up
// to the cap, and any frame from the peer ends the backoff (resetBackoff).
func (r *Reliable) sweep(now time.Time) {
	r.mu.Lock()
	r.disarmLocked()
	r.sweeps++
	r.lastSweep = now
	var next time.Time
	var byPeer map[string][]frame
	var resent []string
	for id, rec := range r.outbox {
		if !rec.sent {
			continue // journal append or first copy in flight
		}
		if due := r.dueLocked(rec); now.Before(due) {
			next = earliest(next, due)
			continue
		}
		if byPeer == nil {
			byPeer = make(map[string][]frame)
		}
		if rec.resend == nil {
			rec.resend = encodeRel(relData, id+resendMark, rec.payload...)
			rec.firstSentAt = rec.sentAt
		}
		byPeer[rec.to] = append(byPeer[rec.to], rec.resend)
		resent = append(resent, id)
	}
	for to := range byPeer {
		p := r.peerLocked(to)
		p.attempts++
		p.next = now.Add(r.backoffInterval(p.rto, p.attempts))
	}
	r.mu.Unlock()
	for to, frames := range byPeer {
		if r.batching {
			r.sendCoalesced(to, frames, nil)
			continue
		}
		for _, f := range frames {
			r.sendFrame(context.Background(), to, f)
		}
	}
	// As for a first copy, the clock restarts once the copies are out, so
	// a slow large send is not itself taken for a lost ack.
	sentAt := clock.Wall{}.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range resent {
		if rec := r.outbox[id]; rec != nil { // not acknowledged meanwhile
			rec.sentAt = sentAt
			next = earliest(next, r.dueLocked(rec))
		}
	}
	if !next.IsZero() {
		r.armLocked(sentAt, next)
	}
}

// earliest returns the earlier of a and b, treating zero as unset.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || b.Before(a) {
		return b
	}
	return a
}

// backoffInterval computes the wait after the n-th consecutive unanswered
// round: base·2^(n-1), capped, plus up to 25% jitter so peers retrying
// the same dead endpoint don't synchronize into bursts.
func (r *Reliable) backoffInterval(base time.Duration, attempts int) time.Duration {
	d := r.doubled(base, attempts-1)
	if d > 4 {
		d += time.Duration(rand.Int64N(int64(d) / 4))
	}
	return d
}

// doubled returns d·2^n, capped. The doubling stops at the cap, so no
// number of silent rounds overflows it.
func (r *Reliable) doubled(d time.Duration, n int) time.Duration {
	for ; n > 0 && d < r.retryCap; n-- {
		d *= 2
	}
	return min(d, r.retryCap)
}

// resetBackoff ends a peer's backoff — any frame from it proves the link
// is live again — and returns it to its timeout: the measured estimate,
// or, before the first clean sample, the interval its backoff had reached.
func (r *Reliable) resetBackoff(from string) {
	r.mu.Lock()
	if p := r.peers[from]; p != nil && p.attempts > 0 {
		if !p.sampled {
			p.rto = r.doubled(p.rto, p.attempts)
		}
		p.attempts, p.next = 0, time.Time{}
		now := clock.Wall{}.Now()
		r.armLocked(now, now) // its frames may be due sooner now
	}
	r.mu.Unlock()
}

// sampleLocked folds one round-trip sample into p's estimate (RFC 6298
// §2) and derives its timeout: srtt + max(floor, 4·rttvar), capped. The
// floor stands in for RFC 6298's clock granularity G — the loop acts no
// more finely — and, as TCP's minimum RTO does in Linux, it keeps the
// timeout a floor clear of the round trip once rttvar has decayed on a
// steady path, where an ack a millisecond late would otherwise trigger a
// resend.
func (r *Reliable) sampleLocked(p *peerLink, rtt time.Duration) {
	if !p.sampled {
		p.srtt, p.rttvar, p.sampled = rtt, rtt/2, true
	} else {
		dev := p.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		p.rttvar = (3*p.rttvar + dev) / 4
		p.srtt = (7*p.srtt + rtt) / 8
	}
	p.rto = min(p.srtt+max(r.retry, 4*p.rttvar), r.retryCap)
}

func (r *Reliable) onRaw(from string, raw []byte) {
	kind, msgID, body, err := decodeRel(raw)
	if err != nil {
		return // garbage at this layer is dropped; signed layers above detect tampering
	}
	r.resetBackoff(from) // the peer is reachable again: end its backoff
	switch kind {
	case relAck:
		r.handleAcks([]string{msgID})
	case relAckN:
		ids, err := decodeStrings("relacks", body)
		if err != nil {
			return
		}
		r.handleAcks(ids)
	case relBatch:
		subs, err := wire.UnmarshalMulti(body)
		if err != nil {
			return
		}
		// Nested batches are never produced; handleBatch drops them.
		r.handleBatch(from, subs)
	case relData:
		key, isNew := r.ackAndMark(from, msgID)
		if !isNew {
			return
		}
		if r.journal != nil {
			_ = r.journal.Append(store.RecSeen, encodeStrings("rseen", []string{key}))
		}
		r.mu.Lock()
		h := r.handler
		r.mu.Unlock()
		if h != nil {
			h(from, body)
		}
	}
}

// ackAndMark acknowledges a data frame under the id it came with — always,
// even for duplicates, since the previous ack may have been lost (coalesced
// under batching, immediate otherwise) — and check-and-sets the dedup key
// of its message. isNew is false for duplicates, which must not reach the
// handler again.
func (r *Reliable) ackAndMark(from, msgID string) (key string, isNew bool) {
	if r.batching {
		r.enqueue(from, nil, msgID)
	} else {
		r.sendFrame(context.Background(), from, encodeRel(relAck, msgID, nil))
	}
	key = from + "/" + strings.TrimSuffix(msgID, resendMark)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.seen[key]; dup {
		return key, false
	}
	r.seen[key] = struct{}{}
	return key, true
}

// handleBatch processes one coalesced datagram as a unit: acknowledgements
// retire together, every fresh data frame's dedup key persists in a single
// journal record, and only then do the application handlers run.
func (r *Reliable) handleBatch(from string, subs [][]byte) {
	type fresh struct {
		key  string
		body []byte
	}
	var deliveries []fresh
	var ackIDs []string
	for _, sub := range subs {
		kind, msgID, body, err := decodeRel(sub)
		if err != nil {
			continue
		}
		switch kind {
		case relAck:
			ackIDs = append(ackIDs, msgID)
		case relAckN:
			if ids, err := decodeStrings("relacks", body); err == nil {
				ackIDs = append(ackIDs, ids...)
			}
		case relData:
			if key, isNew := r.ackAndMark(from, msgID); isNew {
				deliveries = append(deliveries, fresh{key: key, body: body})
			}
		}
	}
	if len(ackIDs) > 0 {
		r.handleAcks(ackIDs)
	}
	if r.journal != nil && len(deliveries) > 0 {
		keys := make([]string, len(deliveries))
		for i, d := range deliveries {
			keys[i] = d.key
		}
		_ = r.journal.Append(store.RecSeen, encodeStrings("rseen", keys))
	}
	r.mu.Lock()
	h := r.handler
	r.mu.Unlock()
	if h != nil {
		for _, d := range deliveries {
			h(from, d.body)
		}
	}
}

// handleAcks retires acknowledged messages: outbox, then one journal
// tombstone for the whole set. An ack of the first copy is a sample of its
// peer's round trip — one that beat its own transmission's return samples
// it as zero — also when the frame has been retransmitted since: that
// retransmission was spurious, and its sample is the one that shows the
// estimate too low. An ack of a retransmitted copy may answer any of them,
// so it is no sample (Karn's rule).
func (r *Reliable) handleAcks(msgIDs []string) {
	var now time.Time
	r.mu.Lock()
	acked := msgIDs[:0:0]
	for _, sentID := range msgIDs {
		id, ofResend := strings.CutSuffix(sentID, resendMark)
		rec, ok := r.outbox[id]
		if !ok {
			continue
		}
		if !ofResend {
			var rtt time.Duration
			if rec.sent {
				if now.IsZero() {
					now = clock.Wall{}.Now()
				}
				rtt = now.Sub(rec.sentAt)
				if rec.resend != nil {
					rtt = now.Sub(rec.firstSentAt)
				}
			}
			r.sampleLocked(r.peerLocked(rec.to), rtt)
		}
		delete(r.outbox, id)
		acked = append(acked, id)
	}
	if len(acked) > 0 {
		if len(r.outbox) == 0 {
			r.disarmLocked()
		}
		if r.acked != nil {
			close(r.acked)
			r.acked = nil
		}
	}
	r.mu.Unlock()
	if r.journal != nil && len(acked) > 0 {
		_ = r.journal.Append(store.RecOutboxAcked, encodeStrings("racked", acked))
	}
}

// frame is one datagram held as consecutive segments
// (canon.MarshalSegments): a rel frame around a large body is its small
// header followed by the body itself, which is not copied until the
// datagram leaves the process.
type frame [][]byte

func (f frame) size() int {
	n := 0
	for _, s := range f {
		n += len(s)
	}
	return n
}

// bytes returns the datagram contiguous (see join).
func (f frame) bytes() []byte { return join(f) }

// encodeRel frames body — the concatenation of its parts — as a rel frame
// written around it: a large part is referenced by the frame, not copied.
func encodeRel(kind byte, msgID string, body ...[]byte) frame {
	return canon.MarshalSegments(func(e *canon.Encoder) {
		e.Struct("rel")
		e.Uint64(uint64(kind))
		e.String(msgID)
		e.Bytes(body...)
	})
}

func decodeRel(raw []byte) (kind byte, msgID string, body []byte, err error) {
	d := canon.NewDecoder(raw)
	d.Struct("rel")
	k := d.Uint8()
	msgID = d.String()
	body = d.Bytes()
	if err := d.Finish(); err != nil {
		return 0, "", nil, err
	}
	return byte(k), msgID, body, nil
}

// encodeStrings encodes a named canon list of strings: the wire's
// cumulative ack set ("relacks") and the journal's tombstone and dedup-key
// records ("racked", "rseen").
func encodeStrings(name string, ss []string) []byte {
	e := canon.NewEncoder()
	e.Struct(name)
	e.Strings(ss)
	return e.Out()
}

func decodeStrings(name string, raw []byte) ([]string, error) {
	d := canon.NewDecoder(raw)
	d.Struct(name)
	ss := d.Strings()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ss, nil
}
