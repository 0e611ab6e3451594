package relay

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"b2b/internal/canon"
	"b2b/internal/crypto"
	"b2b/internal/metrics"
	"b2b/internal/nrlog"
	"b2b/internal/store"
	"b2b/internal/wire"
)

// Conn is the slice of the endpoint connection the relay plane needs
// (satisfied by core.Conn / transport.Reliable). Inbound routing stays
// with the hosting participant's runtime, which forwards relay-kind
// envelopes to HandleEnvelope.
type Conn interface {
	ID() string
	Send(ctx context.Context, to string, payload []byte) error
}

// Mailbox cap defaults: deep enough for a member sleeping through a busy
// stretch, small enough that one sleeping member cannot eat the relay.
const (
	DefaultMaxMailboxMsgs  = 1024
	DefaultMaxMailboxBytes = 8 << 20
)

// ServerConfig assembles a relay mailbox server.
type ServerConfig struct {
	// Conn sends drain batches back to polling recipients.
	Conn Conn
	// Verifier checks poll signatures: deletion (cumulative ack) must be
	// authorized by the mailbox owner. Required.
	Verifier *crypto.Verifier
	// Dir, when set, backs mailboxes with a dedicated durability plane
	// (segment WAL) under this directory, so parked traffic survives a
	// relay restart. Empty: memory-only.
	Dir string
	// Durability tunes the mailbox plane (zero: store defaults).
	Durability store.Policy
	// FS injects a filesystem under the plane (tests; nil: the real one).
	FS store.FS
	// Log records eviction and rejection evidence (optional).
	Log nrlog.Log
	// MaxMailboxMsgs / MaxMailboxBytes cap one recipient's mailbox; when a
	// deposit would overflow them the OLDEST entries are evicted first
	// (the recipient recovers anything evicted via state-transfer
	// catch-up, which the drain path falls back to anyway). Zero selects
	// the defaults above.
	MaxMailboxMsgs  int
	MaxMailboxBytes int64
	// Metrics, when set, receives the relay's operator counters under
	// "relay.*" names.
	Metrics *metrics.Registry
}

// Server is the relay mailbox service: it parks sealed deposits per
// recipient, answers signed polls with drain batches, and deletes only
// what a verified poll cumulatively acknowledged. It trusts nothing it
// stores — see the package comment.
type Server struct {
	cfg   ServerConfig
	plane *store.Plane // nil: memory-only

	mu    sync.Mutex
	boxes map[string]*mailbox

	// Operator counters (always allocated; mirrored into cfg.Metrics).
	deposits     *metrics.Counter
	depositBytes *metrics.Counter
	drained      *metrics.Counter
	evictions    *metrics.Counter
	rejected     *metrics.Counter
}

// mailbox is one recipient's FIFO of parked deposits.
type mailbox struct {
	entries []wire.RelayEntry
	head    int
	bytes   int64
	nextSeq uint64 // next sequence to assign (first deposit gets 1)
	acked   uint64 // cumulative ack/evict bound: entries <= acked are gone
}

func (m *mailbox) depth() int { return len(m.entries) - m.head }

// NewServer builds the server. With cfg.Dir set it opens (and replays) the
// mailbox plane; Close releases it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Verifier == nil {
		return nil, fmt.Errorf("relay: server requires a verifier")
	}
	if cfg.MaxMailboxMsgs <= 0 {
		cfg.MaxMailboxMsgs = DefaultMaxMailboxMsgs
	}
	if cfg.MaxMailboxBytes <= 0 {
		cfg.MaxMailboxBytes = DefaultMaxMailboxBytes
	}
	s := &Server{cfg: cfg, boxes: make(map[string]*mailbox)}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.deposits = reg.Counter("relay.deposits")
	s.depositBytes = reg.Counter("relay.deposit_bytes")
	s.drained = reg.Counter("relay.drained")
	s.evictions = reg.Counter("relay.evictions")
	s.rejected = reg.Counter("relay.rejected")
	reg.SetFunc("relay.mailbox_depth", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, mb := range s.boxes {
			n += int64(mb.depth())
		}
		return n
	})
	reg.SetFunc("relay.mailbox_bytes", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, mb := range s.boxes {
			n += mb.bytes
		}
		return n
	})
	if cfg.Dir != "" {
		pl, err := store.OpenPlane(cfg.Dir, cfg.Durability, cfg.FS)
		if err != nil {
			return nil, err
		}
		pl.Attach((*serverConsumer)(s))
		if err := pl.Start(); err != nil {
			return nil, errors.Join(err, pl.Close())
		}
		s.plane = pl
	}
	return s, nil
}

// Close releases the mailbox plane (no-op when memory-only).
func (s *Server) Close() error {
	if s.plane == nil {
		return nil
	}
	return s.plane.Close()
}

// DiskUsage reports the mailbox plane's on-disk bytes (0 when memory-only).
func (s *Server) DiskUsage() int64 {
	if s.plane == nil {
		return 0
	}
	return s.plane.DiskUsage()
}

// Depth reports one recipient's parked entry count.
func (s *Server) Depth(recipient string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	mb := s.boxes[recipient]
	if mb == nil {
		return 0
	}
	return mb.depth()
}

// TotalParked reports parked entries and bytes across all mailboxes.
func (s *Server) TotalParked() (msgs int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, mb := range s.boxes {
		msgs += mb.depth()
		bytes += mb.bytes
	}
	return msgs, bytes
}

// Entries returns copies of one recipient's parked sealed blobs — the view
// a relay OPERATOR has of a mailbox. Tests use it to prove the operator
// view is opaque (sealed) and that rotation makes old epochs unreadable.
func (s *Server) Entries(recipient string) []wire.RelayEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	mb := s.boxes[recipient]
	if mb == nil {
		return nil
	}
	out := make([]wire.RelayEntry, 0, mb.depth())
	for _, en := range mb.entries[mb.head:] {
		out = append(out, wire.RelayEntry{Seq: en.Seq, Epoch: en.Epoch, Sealed: append([]byte(nil), en.Sealed...)})
	}
	return out
}

// HandleEnvelope routes one relay-kind envelope to the server. The hosting
// runtime calls it for KindRelayDeposit and KindRelayPoll traffic.
func (s *Server) HandleEnvelope(from string, env wire.Envelope) {
	switch env.Kind {
	case wire.KindRelayDeposit:
		s.handleDeposit(from, env.Payload)
	case wire.KindRelayPoll:
		s.handlePoll(from, env.Payload)
	}
}

// handleDeposit parks one sealed deposit. The relay does NOT verify the
// deposit: the sealed interior is an end-to-end signed envelope the
// RECIPIENT verifies after unsealing, and the relay could not open it to
// check anything anyway (that opacity is the design — see the package
// comment and docs/ARCHITECTURE.md "Relay plane").
func (s *Server) handleDeposit(from string, payload []byte) {
	dep, err := wire.UnmarshalRelayDeposit(payload)
	if err != nil || dep.Recipient == "" {
		s.rejected.Inc()
		return
	}
	cost := int64(len(dep.Sealed)) + 64
	if cost > s.cfg.MaxMailboxBytes {
		// Larger than a whole mailbox: rejected outright, with evidence —
		// the depositor's evidence of the deposit attempt plus this entry
		// make the drop attributable.
		s.rejected.Inc()
		s.evidence(dep.Recipient, "relay-reject", from)
		return
	}

	s.mu.Lock()
	mb := s.boxes[dep.Recipient]
	if mb == nil {
		mb = &mailbox{nextSeq: 1}
		s.boxes[dep.Recipient] = mb
	}
	seq := mb.nextSeq
	mb.nextSeq++
	mb.entries = append(mb.entries, wire.RelayEntry{Seq: seq, Epoch: dep.Epoch, Sealed: dep.Sealed})
	mb.bytes += cost
	// FIFO eviction keeps the mailbox under both caps: the oldest parked
	// traffic is the most likely to be obsoleted by catch-up anyway.
	evictThrough := uint64(0)
	evicted := 0
	for mb.depth() > s.cfg.MaxMailboxMsgs || mb.bytes > s.cfg.MaxMailboxBytes {
		old := mb.entries[mb.head]
		mb.bytes -= int64(len(old.Sealed)) + 64
		mb.head++
		evictThrough = old.Seq
		evicted++
	}
	if evictThrough > 0 && evictThrough > mb.acked {
		mb.acked = evictThrough
	}
	mb.compactLocked()
	s.mu.Unlock()

	s.deposits.Inc()
	s.depositBytes.Add(uint64(len(dep.Sealed)))
	if s.plane != nil {
		_ = s.plane.AppendDeferred(store.RecRelayDeposit, marshalMailRecord(dep.Recipient, seq, dep.Epoch, dep.Sealed))
		if evictThrough > 0 {
			_ = s.plane.AppendDeferred(store.RecRelayDrop, marshalDropRecord(dep.Recipient, evictThrough))
		}
	}
	if evicted > 0 {
		s.evictions.Add(uint64(evicted))
		s.evidence(dep.Recipient, "relay-evict", from)
	}
}

// handlePoll answers a signed poll: applies the cumulative ack, then sends
// one page of the mailbox back, oldest first. The signature is what makes
// deletion safe — an unauthenticated poll could empty anyone's mailbox —
// so the poll is the one relay message the relay itself verifies.
func (s *Server) handlePoll(from string, payload []byte) {
	sp, err := wire.UnmarshalSigned(payload)
	if err != nil || sp.Kind != wire.KindRelayPoll {
		s.rejected.Inc()
		return
	}
	if err := sp.Verify(s.cfg.Verifier); err != nil {
		s.rejected.Inc()
		return
	}
	poll, err := wire.UnmarshalRelayPoll(sp.Body)
	if err != nil || poll.Recipient != sp.Signer() {
		s.rejected.Inc()
		return
	}
	max := int(poll.Max)
	if max <= 0 || max > wire.MaxRelayBatchEntries {
		max = wire.MaxRelayBatchEntries
	}

	s.mu.Lock()
	mb := s.boxes[poll.Recipient]
	if mb == nil {
		mb = &mailbox{nextSeq: 1}
		s.boxes[poll.Recipient] = mb
	}
	dropped := false
	if poll.AckThrough > mb.acked {
		for mb.head < len(mb.entries) && mb.entries[mb.head].Seq <= poll.AckThrough {
			mb.bytes -= int64(len(mb.entries[mb.head].Sealed)) + 64
			mb.head++
			dropped = true
		}
		mb.acked = poll.AckThrough
		mb.compactLocked()
	}
	batch := wire.RelayBatch{Recipient: poll.Recipient}
	for _, en := range mb.entries[mb.head:] {
		if len(batch.Entries) >= max {
			break
		}
		batch.Entries = append(batch.Entries, en)
	}
	batch.Remaining = uint64(mb.depth() - len(batch.Entries))
	drained := len(batch.Entries)
	s.mu.Unlock()

	if dropped && s.plane != nil {
		_ = s.plane.AppendDeferred(store.RecRelayDrop, marshalDropRecord(poll.Recipient, poll.AckThrough))
	}
	s.drained.Add(uint64(drained))

	_ = sendEnvelope(context.Background(), s.cfg.Conn, from, wire.KindRelayBatch, batch.Marshal())
}

// compactLocked reclaims the consumed prefix once it dominates the slice.
func (m *mailbox) compactLocked() {
	if m.head == 0 || m.head < len(m.entries)/2 {
		return
	}
	n := copy(m.entries, m.entries[m.head:])
	m.entries = m.entries[:n]
	m.head = 0
}

func (s *Server) evidence(recipient, kind, party string) {
	if s.cfg.Log == nil {
		return
	}
	_, _ = s.cfg.Log.Append("", recipient, kind, party, nrlog.DirReceived, nil)
}

// ---- durability: the server as a store.Plane consumer ----

// marshalMailRecord encodes one parked entry for the WAL.
func marshalMailRecord(recipient string, seq, epoch uint64, sealed []byte) []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("rmail")
		e.String(recipient)
		e.Uint64(seq)
		e.Uint64(epoch)
		e.Bytes(sealed)
	})
}

func unmarshalMailRecord(buf []byte) (recipient string, en wire.RelayEntry, err error) {
	d := canon.NewDecoder(buf)
	d.Struct("rmail")
	recipient = d.String()
	en = wire.RelayEntry{Seq: d.Uint64(), Epoch: d.Uint64(), Sealed: d.Bytes()}
	err = d.Finish()
	return recipient, en, err
}

// marshalDropRecord encodes a cumulative tombstone for the WAL.
func marshalDropRecord(recipient string, through uint64) []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("rdrop")
		e.String(recipient)
		e.Uint64(through)
	})
}

func unmarshalDropRecord(buf []byte) (recipient string, through uint64, err error) {
	d := canon.NewDecoder(buf)
	d.Struct("rdrop")
	recipient = d.String()
	through = d.Uint64()
	err = d.Finish()
	return recipient, through, err
}

// serverConsumer adapts the server to the plane's consumer contract.
// Replay/Reset/Compact run with the plane lock held and the server not yet
// serving (Start happens inside NewServer, before the server escapes), or
// during a compaction the plane serializes — mailbox access still takes
// s.mu so mid-run compaction and serving never race.
type serverConsumer Server

func (c *serverConsumer) Reset() {
	s := (*Server)(c)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boxes = make(map[string]*mailbox)
}

func (c *serverConsumer) Replay(kind store.RecordKind, payload []byte) error {
	s := (*Server)(c)
	switch kind {
	case store.RecRelayDeposit:
		recipient, en, err := unmarshalMailRecord(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		mb := s.boxes[recipient]
		if mb == nil {
			mb = &mailbox{nextSeq: 1}
			s.boxes[recipient] = mb
		}
		if en.Seq >= mb.nextSeq {
			mb.nextSeq = en.Seq + 1
		}
		if en.Seq > mb.acked {
			mb.entries = append(mb.entries, en)
			mb.bytes += int64(len(en.Sealed)) + 64
		}
		s.mu.Unlock()
	case store.RecRelayDrop:
		recipient, through, err := unmarshalDropRecord(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		mb := s.boxes[recipient]
		if mb == nil {
			mb = &mailbox{nextSeq: 1}
			s.boxes[recipient] = mb
		}
		if through > mb.acked {
			mb.acked = through
			for mb.head < len(mb.entries) && mb.entries[mb.head].Seq <= through {
				mb.bytes -= int64(len(mb.entries[mb.head].Sealed)) + 64
				mb.head++
			}
			mb.compactLocked()
		}
		if through >= mb.nextSeq {
			mb.nextSeq = through + 1
		}
		s.mu.Unlock()
	}
	return nil
}

func (c *serverConsumer) Opened() error { return nil }

// Compact re-emits the live set: one tombstone per mailbox with history
// (so sequence numbering and the ack bound survive the cut) and every
// still-parked entry.
func (c *serverConsumer) Compact(emit func(kind store.RecordKind, payload []byte) error) error {
	s := (*Server)(c)
	s.mu.Lock()
	defer s.mu.Unlock()
	for recipient, mb := range s.boxes {
		if mb.acked > 0 {
			if err := emit(store.RecRelayDrop, marshalDropRecord(recipient, mb.acked)); err != nil {
				return err
			}
		}
		for _, en := range mb.entries[mb.head:] {
			if err := emit(store.RecRelayDeposit, marshalMailRecord(recipient, en.Seq, en.Epoch, en.Sealed)); err != nil {
				return err
			}
		}
	}
	return nil
}
