package transport

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
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
// interval of the first retransmission to a peer, and the sweep
// granularity of the retransmit loop. Subsequent retransmissions to a
// silent peer back off exponentially from this floor (see
// WithRetryBackoff).
func WithRetryInterval(d time.Duration) ReliableOption {
	return func(r *Reliable) { r.retry = d }
}

// WithRetryBackoff caps the per-peer exponential retransmission backoff
// (default 1s, never below the retry floor). Each consecutive unacked
// sweep doubles a peer's retransmit interval from the floor up to this
// cap, with jitter, so a long-offline peer costs a trickle instead of a
// full-rate retransmit storm; any frame from the peer — ack or data —
// resets it to the floor, so a reconnecting peer is served promptly.
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
	// backoff tracks per-peer retransmission pacing: consecutive unacked
	// sweeps and the next instant the peer's outbox is due on the wire.
	backoff map[string]*peerBackoff

	bmu      sync.Mutex
	batchers map[string]*peerBatch

	// ackNotify wakes SendStream waiters when acknowledgements retire
	// outbox entries (capacity 1: a coalescing edge trigger, with a slow
	// fallback tick covering waiters a single signal missed).
	ackNotify chan struct{}

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
}

// peerBackoff is one peer's retransmission pacing state.
type peerBackoff struct {
	attempts int       // consecutive sweeps without a frame from the peer
	next     time.Time // next retransmission due
}

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
		backoff:     make(map[string]*peerBackoff),
		ackNotify:   make(chan struct{}, 1),
		stop:        make(chan struct{}),
		incarnation: strconv.FormatUint(rand.Uint64(), 36),
	}
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
	r.mu.Lock()
	rec.sent, rec.sentAt = true, clock.Wall{}.Now()
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
// retransmission slots and the outbox stays bounded. Waiters wake on ack
// arrival (with a slow fallback tick); limit < 1 degrades to plain Send.
func (r *Reliable) SendStream(ctx context.Context, to string, payload []byte, limit int) error {
	if limit >= 1 {
		var fallback <-chan time.Time
		for r.PendingTo(to) >= limit {
			if fallback == nil {
				tick := clock.Wall{}.NewTicker(50 * time.Millisecond)
				defer tick.Stop()
				fallback = tick.C
			}
			select {
			case <-r.ackNotify:
			case <-fallback:
			case <-ctx.Done():
				return ctx.Err()
			case <-r.stop:
				return ErrClosed
			}
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
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	if r.batching {
		r.flushAll()
	}
	return r.ep.Close()
}

// retransmitLoop sweeps the outbox at the retry floor, but each peer is
// only put back on the wire when its backoff interval has elapsed: the
// first retransmission fires one floor interval after the first copy went
// out, then a silent peer's interval doubles (with jitter) up to the cap.
// A peer that was merely slow resets to the floor the moment any of its
// frames arrives.
func (r *Reliable) retransmitLoop() {
	defer r.wg.Done()
	ticker := clock.Wall{}.NewTicker(r.retry)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			now := clock.Wall{}.Now()
			r.mu.Lock()
			byPeer := make(map[string][]frame)
			var resent []*outRec
			for _, rec := range r.outbox {
				if !rec.sent {
					continue // journal append or first copy in flight
				}
				if pb := r.backoff[rec.to]; pb != nil && now.Before(pb.next) {
					continue // peer not due yet
				}
				// A frame younger than the floor is not due either: its
				// first copy (or its ack) may still be in flight, and
				// resending it on the next sweep tick would double the
				// wire cost of every large frame sent to a healthy peer.
				if now.Sub(rec.sentAt) < r.retry {
					continue
				}
				rec.sentAt = now
				byPeer[rec.to] = append(byPeer[rec.to], rec.frame)
				resent = append(resent, rec)
			}
			for to := range byPeer {
				pb := r.backoff[to]
				if pb == nil {
					pb = &peerBackoff{}
					r.backoff[to] = pb
				}
				pb.attempts++
				pb.next = now.Add(r.backoffInterval(pb.attempts))
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
			// As for a first copy, the clock restarts once the copies are
			// out, so a slow large send is not itself taken for a lost ack.
			r.mu.Lock()
			for _, rec := range resent {
				rec.sentAt = clock.Wall{}.Now()
			}
			r.mu.Unlock()
		}
	}
}

// backoffInterval computes the wait after the n-th consecutive unanswered
// sweep: floor·2^(n-1), capped, plus up to 25% jitter so peers retrying
// the same dead endpoint don't synchronize into bursts.
func (r *Reliable) backoffInterval(attempts int) time.Duration {
	d := r.retry
	for i := 1; i < attempts && d < r.retryCap; i++ {
		d *= 2
	}
	if d > r.retryCap {
		d = r.retryCap
	}
	if d > 4 {
		d += time.Duration(rand.Int64N(int64(d) / 4))
	}
	return d
}

// resetBackoff returns a peer to floor-rate retransmission: any frame from
// it proves the link is live again.
func (r *Reliable) resetBackoff(from string) {
	r.mu.Lock()
	if pb := r.backoff[from]; pb != nil && pb.attempts > 0 {
		delete(r.backoff, from)
	}
	r.mu.Unlock()
}

func (r *Reliable) onRaw(from string, raw []byte) {
	kind, msgID, body, err := decodeRel(raw)
	if err != nil {
		return // garbage at this layer is dropped; signed layers above detect tampering
	}
	r.resetBackoff(from) // the peer is reachable again: retransmit at the floor
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

// ackAndMark acknowledges a data frame — always, even for duplicates, since
// the previous ack may have been lost (coalesced under batching, immediate
// otherwise) — and check-and-sets the dedup key. isNew is false for
// duplicates, which must not reach the handler again.
func (r *Reliable) ackAndMark(from, msgID string) (key string, isNew bool) {
	if r.batching {
		r.enqueue(from, nil, msgID)
	} else {
		r.sendFrame(context.Background(), from, encodeRel(relAck, msgID, nil))
	}
	key = from + "/" + msgID
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
// tombstone for the whole set.
func (r *Reliable) handleAcks(msgIDs []string) {
	r.mu.Lock()
	acked := msgIDs[:0:0]
	for _, id := range msgIDs {
		rec, ok := r.outbox[id]
		if !ok {
			continue
		}
		delete(r.backoff, rec.to) // progress: drop the peer back to the floor
		delete(r.outbox, id)
		acked = append(acked, id)
	}
	r.mu.Unlock()
	if len(acked) > 0 {
		select {
		case r.ackNotify <- struct{}{}:
		default:
		}
	}
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
