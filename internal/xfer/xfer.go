// Package xfer implements the state-transfer / anti-entropy plane: chunked,
// flow-controlled transfer of agreed object state between parties. It is the
// one way a welcomed joiner receives the agreed state (the Welcome carries
// only evidence and the agreed tuple), as a stream of bounded frames
// whatever the object's size, and a member that missed commits (crash,
// partition) has a network path back to the group.
//
// A session is opened by the requester with a signed StateRequest naming its
// last-known agreed tuple. The serving party (the sponsor) answers with a
// signed StateOffer describing the cheapest sufficient payload:
//
//   - a delta suffix — the update bytes of every agreed run after the
//     requester's tuple, sourced from the durability plane's delta
//     checkpoint chain, costing O(missing runs · delta) bytes; or
//   - a chunked full snapshot, when the chain has been compacted past the
//     requester's tuple (or the requester holds nothing at all); or
//   - nothing (up-to-date).
//
// Payload bytes travel as CRC-framed StateChunk messages under a cumulative
// StateAck window, and the session closes with a signed StateDone carrying
// the expected final state hash. The requester reassembles, verifies the
// payload hash against the signed offer/done, folds delta payloads through
// the application's ApplyUpdate with per-step tuple-hash verification —
// byte-identical to crash recovery's checkpoint replay — and only then
// installs. See docs/ARCHITECTURE.md, "State transfer", for the safety
// argument.
package xfer

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// Errors returned by the transfer plane.
var (
	ErrNoPeer     = errors.New("xfer: no peer completed the transfer")
	ErrBadOffer   = errors.New("xfer: offer failed verification")
	ErrBadPayload = errors.New("xfer: transfer payload failed verification")
	ErrDiverged   = errors.New("xfer: peer's group membership diverged; rejoin required")
	ErrClosed     = errors.New("xfer: manager closed")
	// ErrBaseMoved reports that the engine's agreed tuple advanced between
	// the caller snapshotting `have` and the fetch capturing its fold base —
	// live traffic (a relay drain landing, a concurrent commit) got there
	// first. Retry with a fresh snapshot; CatchUp does so itself.
	ErrBaseMoved = errors.New("xfer: have tuple is no longer the current agreed tuple")
)

// Policy tunes the transfer plane. The zero value selects the defaults noted
// on each field. Transmission granularity is a distribution policy, not
// application logic (after RAFDA): applications never see chunking.
type Policy struct {
	// ChunkSize is the payload bytes per StateChunk (default 256 KiB).
	ChunkSize int
	// Window is how many chunks may be unacknowledged in flight (default 8).
	Window int
	// RequestTimeout is the progress timeout: a requester re-issues its
	// request (with a resume index) after this long without a new chunk, and
	// gives a peer 3x this before failing over to another (default 2s).
	RequestTimeout time.Duration
	// MaxSessions bounds concurrently served sessions (default 16).
	MaxSessions int
}

// WithDefaults returns the policy with zero fields replaced by defaults.
func (p Policy) WithDefaults() Policy {
	if p.ChunkSize <= 0 {
		p.ChunkSize = 256 << 10
	}
	if p.Window <= 0 {
		p.Window = 8
	}
	if p.RequestTimeout <= 0 {
		p.RequestTimeout = 2 * time.Second
	}
	if p.MaxSessions <= 0 {
		p.MaxSessions = 16
	}
	return p
}

// Limits a hostile or corrupt offer may not exceed.
const (
	maxPayloadBytes = 1 << 30
	maxChunks       = 1 << 20
	// preOfferBufferCap / preOfferChunkCap bound the bytes and entries a
	// requester buffers before the signed offer (with its authoritative
	// geometry) has arrived — a reorder allowance, not a payload budget.
	preOfferBufferCap = 8 << 20
	preOfferChunkCap  = 256
)

// castagnoli is the chunk CRC table (CRC-32C, matching the WAL framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SessionGate arbitrates serving-session slots across the many objects
// sharing one runtime: TryAcquire reserves a slot before a session is built,
// Release returns it when the session is dropped. The core runtime implements
// it over its per-group and global quota caps, so a single hot tenant cannot
// monopolise the transfer plane of a multi-tenant endpoint. A nil gate leaves
// only the per-manager MaxSessions policy in force.
type SessionGate interface {
	TryAcquire() bool
	Release()
}

// Config assembles a transfer manager's dependencies.
type Config struct {
	Ident    *crypto.Identity
	Object   string
	Verifier *crypto.Verifier
	TSA      wire.Stamper
	Conn     coord.Conn
	Log      nrlog.Log
	Clock    clock.Clock
	Engine   *coord.Engine
	Policy   Policy
	// Gate shares serving-session slots with the owning runtime (optional).
	Gate SessionGate
	// Drain, when set, empties this member's relay mailbox (the relay
	// client's Drain) before a CatchUp queries peers: traffic parked while
	// this member was offline lands through normal dispatch first, so
	// catch-up transfers only what the mailbox did not already cover.
	Drain func(ctx context.Context) (int, error)
}

// Stats counts the transfer plane's work.
type Stats struct {
	SessionsServed   uint64 // transfer sessions this party served
	DeltaSessions    uint64 // ... of which served a delta suffix
	SnapshotSessions uint64 // ... of which served a full snapshot
	UpToDateReplies  uint64 // requests answered "already current"
	ChunksSent       uint64
	BytesSent        uint64 // payload bytes sent
	SessionsFetched  uint64 // completed requester-side sessions
	BytesFetched     uint64 // payload bytes received
}

// Result is a completed requester-side transfer.
type Result struct {
	Agreed  tuple.State
	Group   tuple.Group
	Members []string
	Mode    wire.XferMode
	// State is the verified final object state (nil for XferUpToDate).
	State []byte
	// Deltas is the number of delta steps folded (deltas mode).
	Deltas int
	// PayloadBytes is the transfer payload size: the delta suffix in
	// deltas mode, the whole object in snapshot mode.
	PayloadBytes int
	Chunks       int
}

// serverSession is one transfer being served.
type serverSession struct {
	id        string
	requester string
	payload   []byte
	offerRaw  []byte
	doneRaw   []byte
	chunks    uint64
	chunkLen  int // payload bytes per chunk (unit-aligned for snapshots)
	window    uint64
	next      uint64 // next chunk index to send
	acked     uint64 // cumulative: requester holds all chunks < acked
	cancelled bool
	wake      chan struct{}
}

// clientSession is one transfer being fetched.
type clientSession struct {
	id       string
	peer     string
	offer    *wire.StateOffer
	done     *wire.StateDone
	chunks   map[uint64][]byte
	contig   uint64 // chunks [0, contig) received
	received uint64 // distinct chunks received
	bytes    int
	progress chan struct{}
}

// Manager runs the transfer plane for one object: it serves sessions to
// peers (sponsor side) and fetches sessions from them (requester side).
type Manager struct {
	cfg Config
	pol Policy

	mu       sync.Mutex
	serving  map[string]*serverSession
	fetching map[string]*clientSession
	stats    Stats
	closed   bool
	stop     chan struct{}
}

// New creates a transfer manager bound to a coordination engine.
func New(cfg Config) (*Manager, error) {
	if cfg.Ident == nil || cfg.Conn == nil || cfg.Log == nil || cfg.Clock == nil ||
		cfg.Engine == nil || cfg.Verifier == nil {
		return nil, errors.New("xfer: incomplete config")
	}
	if cfg.Object == "" {
		return nil, errors.New("xfer: object name required")
	}
	return &Manager{
		cfg:      cfg,
		pol:      cfg.Policy.WithDefaults(),
		serving:  make(map[string]*serverSession),
		fetching: make(map[string]*clientSession),
		stop:     make(chan struct{}),
	}, nil
}

// Stats returns a snapshot of the transfer counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close aborts all sessions; further fetches fail.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, s := range m.serving {
		s.cancelled = true
		signal(s.wake)
	}
	m.mu.Unlock()
	close(m.stop)
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (m *Manager) logEvidence(sessionID, kind string, dir nrlog.Direction, payload []byte) error {
	_, err := m.cfg.Log.Append(sessionID, m.cfg.Object, kind, m.cfg.Ident.ID(), dir, payload)
	if err != nil {
		return fmt.Errorf("xfer: recording evidence: %w", err)
	}
	return nil
}

// envelope frames a payload for transport with a fresh message id.
func (m *Manager) envelope(to string, kind wire.Kind, payload []byte) ([]byte, error) {
	n, err := crypto.Nonce()
	if err != nil {
		return nil, err
	}
	env := wire.Envelope{
		MsgID:   hex.EncodeToString(n[:12]),
		From:    m.cfg.Ident.ID(),
		To:      to,
		Object:  m.cfg.Object,
		Kind:    kind,
		Payload: payload,
	}
	return env.Marshal(), nil
}

// send wraps payload in an envelope and transmits it.
func (m *Manager) send(ctx context.Context, to string, kind wire.Kind, payload []byte) error {
	raw, err := m.envelope(to, kind, payload)
	if err != nil {
		return err
	}
	return m.cfg.Conn.Send(ctx, to, raw)
}

// HandleEnvelope dispatches inbound transfer traffic (both sides).
func (m *Manager) HandleEnvelope(from string, env wire.Envelope) {
	switch env.Kind {
	case wire.KindStateRequest:
		m.handleRequest(from, env.Payload)
	case wire.KindStateOffer:
		m.handleOffer(from, env.Payload)
	case wire.KindStateChunk:
		m.handleChunk(from, env.Payload)
	case wire.KindStateAck:
		m.handleAck(from, env.Payload)
	case wire.KindStateDone:
		m.handleDone(from, env.Payload)
	default:
		_ = m.logEvidence("", "unknown-kind", nrlog.DirReceived, env.Marshal())
	}
}
