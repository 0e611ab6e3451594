package xfer

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"

	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// handleOffer records the sponsor's signed session description.
func (m *Manager) handleOffer(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-state-offer", nrlog.DirReceived, payload)
		return
	}
	offer, err := wire.UnmarshalStateOffer(signed.Body)
	if err != nil || offer.Sponsor != signed.Signer() || offer.Sponsor != from ||
		offer.Object != m.cfg.Object {
		_ = m.logEvidence("", "malformed-state-offer", nrlog.DirReceived, payload)
		return
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		_ = m.logEvidence(offer.SessionID, "unverifiable-state-offer", nrlog.DirReceived, payload)
		return
	}
	if offer.TotalLen > maxPayloadBytes || offer.Chunks > maxChunks {
		_ = m.logEvidence(offer.SessionID, "state-offer-oversized", nrlog.DirReceived, payload)
		return
	}
	if err := validateOfferGeometry(&offer); err != nil {
		_ = m.logEvidence(offer.SessionID, "state-offer-invalid", nrlog.DirReceived, []byte(err.Error()))
		return
	}
	if err := validateOfferMerkle(&offer); err != nil {
		// A snapshot offer must carry a unit-hash vector whose Merkle root
		// IS the agreed tuple's HashState: a sponsor cannot advertise page
		// hashes for any state but the one the tuple identifies, however
		// valid its signature. Rejecting here is what lets every later
		// chunk be verified at receipt.
		_ = m.logEvidence(offer.SessionID, "state-offer-merkle-mismatch", nrlog.DirReceived, []byte(err.Error()))
		return
	}
	if err := m.logEvidence(offer.SessionID, wire.KindStateOffer.String(), nrlog.DirReceived, payload); err != nil {
		return
	}

	m.mu.Lock()
	s, ok := m.fetching[offer.SessionID]
	if !ok || s.peer != from {
		m.mu.Unlock()
		return
	}
	switch {
	case s.offer == nil:
		s.offer = &offer
		// Chunks buffered before the offer arrived (unordered delivery)
		// were held unverified under the reorder allowance; judge them now.
		s.pruneInvalidChunksLocked()
	case s.offer.PayloadHash != offer.PayloadHash || s.offer.Chunks != offer.Chunks ||
		s.offer.ChunkLen != offer.ChunkLen:
		// The sponsor rebuilt the session around a newer agreed state (its
		// previous session was reaped): the held prefix no longer belongs to
		// this payload. Restart the reassembly under the new offer; the
		// progress timeout re-requests from chunk zero.
		s.offer = &offer
		s.done = nil
		s.chunks = make(map[uint64][]byte)
		s.contig, s.received, s.bytes = 0, 0, 0
	}
	signal(s.progress)
	m.mu.Unlock()
}

// validateOfferGeometry checks an offer's chunk geometry (any mode).
func validateOfferGeometry(o *wire.StateOffer) error {
	if o.TotalLen > 0 || o.Chunks > 0 {
		if o.ChunkLen == 0 || o.ChunkLen > maxPayloadBytes {
			return fmt.Errorf("chunk length %d invalid", o.ChunkLen)
		}
		if o.Chunks != chunkCount(int(o.TotalLen), int(o.ChunkLen)) {
			return fmt.Errorf("chunk count %d does not cover %d bytes at %d per chunk",
				o.Chunks, o.TotalLen, o.ChunkLen)
		}
	}
	return nil
}

// validateOfferMerkle binds a snapshot offer's unit-hash vector (see
// pagestate.UnitSize) to the agreed tuple's HashState (the paged Merkle
// root — see internal/pagestate). Non-snapshot offers carry no vector and
// pass.
func validateOfferMerkle(o *wire.StateOffer) error {
	if o.Mode != wire.XferSnapshot {
		return nil
	}
	root, err := pagestate.RootFromUnitHashes(o.PageHashes, int(o.TotalLen), int(o.PageSize))
	if err != nil {
		return err
	}
	if unit := uint64(pagestate.UnitSize(int(o.PageSize))); o.Chunks > 1 && o.ChunkLen%unit != 0 {
		return fmt.Errorf("chunk length %d not aligned to unit size %d", o.ChunkLen, unit)
	}
	if !o.Agreed.MatchesRoot(root) {
		return fmt.Errorf("page hashes do not reach the agreed tuple's Merkle root")
	}
	return nil
}

// checkChunkAgainstOffer verifies one chunk against the signed offer: exact
// position-determined length, and — for snapshots — every unit it carries
// against the offer's unit hashes. A corrupted chunk is therefore rejected
// the moment it arrives, not at the final whole-payload hash check.
func checkChunkAgainstOffer(o *wire.StateOffer, idx uint64, payload []byte) error {
	if idx >= o.Chunks {
		return fmt.Errorf("chunk %d outside offer (%d chunks)", idx, o.Chunks)
	}
	lo := idx * o.ChunkLen
	want := o.ChunkLen
	if lo+want > o.TotalLen {
		want = o.TotalLen - lo
	}
	if uint64(len(payload)) != want {
		return fmt.Errorf("chunk %d carries %d bytes, offer says %d", idx, len(payload), want)
	}
	if o.Mode != wire.XferSnapshot {
		return nil
	}
	unit := uint64(pagestate.UnitSize(int(o.PageSize)))
	ui := lo / unit
	for off := uint64(0); off < want; off += unit {
		if pagestate.UnitHash(payload[off:min(off+unit, want)]) != o.PageHashes[ui] {
			return fmt.Errorf("chunk %d unit %d fails Merkle verification", idx, ui)
		}
		ui++
	}
	return nil
}

// pruneInvalidChunksLocked re-judges pre-offer buffered chunks once the
// offer's geometry and unit hashes are known, dropping any that fail; the
// cumulative-ack resume rule re-earns dropped indexes.
func (s *clientSession) pruneInvalidChunksLocked() {
	s.contig, s.received, s.bytes = 0, 0, 0
	for idx, body := range s.chunks {
		if checkChunkAgainstOffer(s.offer, idx, body) != nil {
			delete(s.chunks, idx)
			continue
		}
		s.received++
		s.bytes += len(body)
	}
	for {
		if _, have := s.chunks[s.contig]; !have {
			break
		}
		s.contig++
	}
}

// handleChunk buffers one payload slice and acknowledges cumulatively.
func (m *Manager) handleChunk(from string, payload []byte) {
	c, err := wire.UnmarshalStateChunk(payload)
	if err != nil || c.Object != m.cfg.Object {
		return
	}
	if crc32.Checksum(c.Payload, castagnoli) != c.CRC {
		_ = m.logEvidence(c.SessionID, "state-chunk-crc-mismatch", nrlog.DirReceived, nil)
		return
	}
	m.mu.Lock()
	s, ok := m.fetching[c.SessionID]
	if !ok || s.peer != from || c.Index >= maxChunks {
		m.mu.Unlock()
		return
	}
	if _, dup := s.chunks[c.Index]; !dup {
		// The signed offer's geometry bounds what this session may buffer;
		// the offer-size cap enforced in handleOffer must not be bypassable
		// through the chunk stream itself. With the offer in hand every
		// chunk is verified at receipt — position-exact length, and for
		// snapshots its pages against the offer's Merkle hashes — so a
		// corrupted chunk is rejected here, long before StateDone. Before
		// the offer arrives (unordered delivery) only a small reorder
		// allowance is held unverified; it is re-judged when the offer
		// lands, and dropped chunks are re-earned through the resume rule.
		if s.offer != nil {
			// Exact per-position lengths + the dup check above mean the
			// buffered total can never exceed the offer's TotalLen — no
			// separate cumulative-bytes guard is needed.
			if err := checkChunkAgainstOffer(s.offer, c.Index, c.Payload); err != nil {
				m.mu.Unlock()
				_ = m.logEvidence(c.SessionID, "state-chunk-rejected", nrlog.DirReceived, []byte(err.Error()))
				return
			}
		} else if s.bytes+len(c.Payload) > preOfferBufferCap || len(s.chunks) >= preOfferChunkCap {
			m.mu.Unlock()
			return
		}
		s.chunks[c.Index] = c.Payload
		s.received++
		s.bytes += len(c.Payload)
		for {
			if _, have := s.chunks[s.contig]; !have {
				break
			}
			s.contig++
		}
	}
	next := s.contig
	signal(s.progress)
	m.mu.Unlock()

	ack := wire.StateAck{SessionID: c.SessionID, Object: m.cfg.Object, Next: next}
	_ = m.send(context.Background(), from, wire.KindStateAck, ack.Marshal())
}

// handleDone records the sponsor's signed session close.
func (m *Manager) handleDone(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-state-done", nrlog.DirReceived, payload)
		return
	}
	done, err := wire.UnmarshalStateDone(signed.Body)
	if err != nil || done.Sponsor != signed.Signer() || done.Sponsor != from ||
		done.Object != m.cfg.Object {
		_ = m.logEvidence("", "malformed-state-done", nrlog.DirReceived, payload)
		return
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		_ = m.logEvidence(done.SessionID, "unverifiable-state-done", nrlog.DirReceived, payload)
		return
	}
	if err := m.logEvidence(done.SessionID, wire.KindStateDone.String(), nrlog.DirReceived, payload); err != nil {
		return
	}
	m.mu.Lock()
	if s, ok := m.fetching[done.SessionID]; ok && s.peer == from {
		s.done = &done
		signal(s.progress)
	}
	m.mu.Unlock()
}

// completeLocked reports whether a client session holds everything it needs.
func (s *clientSession) completeLocked() bool {
	return s.offer != nil && s.done != nil && s.contig >= s.offer.Chunks
}

// Fetch runs one requester-side transfer session against peer: request the
// suffix from `have` (zero: everything), stream, reassemble, verify. `want`,
// when non-zero, is an independently authenticated tuple the result must
// reach (the Welcome's agreed tuple at a join). Fetch does not install —
// callers decide (join adoption vs live catch-up). On silence it re-issues
// the request with a resume index until ctx expires.
func (m *Manager) Fetch(ctx context.Context, peer string, have, want tuple.State) (*Result, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.mu.Unlock()

	// Capture the fold base before requesting: a deltas-mode payload chains
	// from our agreed state as of the request. The paged view is shared with
	// the engine (immutable; the fold only clones), so no state bytes move.
	var basePaged *pagestate.Paged
	if !have.Zero() {
		baseT, bp := m.cfg.Engine.AgreedPaged()
		if baseT != have {
			return nil, ErrBaseMoved
		}
		basePaged = bp
	}

	nonce, err := crypto.Nonce()
	if err != nil {
		return nil, err
	}
	sessionID := m.cfg.Ident.ID() + "-xfer-" + hex.EncodeToString(nonce[:8])
	s := &clientSession{
		id:       sessionID,
		peer:     peer,
		chunks:   make(map[uint64][]byte),
		progress: make(chan struct{}, 1),
	}
	m.mu.Lock()
	m.fetching[sessionID] = s
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.fetching, sessionID)
		m.mu.Unlock()
	}()

	request := func(resume uint64) error {
		req := wire.StateRequest{
			SessionID: sessionID,
			Requester: m.cfg.Ident.ID(),
			Object:    m.cfg.Object,
			Have:      have,
			Resume:    resume,
			Window:    uint64(m.pol.Window),
		}
		signed := wire.Sign(wire.KindStateRequest, req.Marshal(), m.cfg.Ident, m.cfg.TSA)
		raw := signed.Marshal()
		if err := m.logEvidence(sessionID, wire.KindStateRequest.String(), nrlog.DirSent, raw); err != nil {
			return err
		}
		return m.send(ctx, peer, wire.KindStateRequest, raw)
	}
	if err := request(0); err != nil {
		return nil, err
	}

	// The give-up rule is progress-based, not wall-clock: a transfer that
	// keeps delivering chunks may take as long as the link needs, while a
	// peer that stays silent through maxStalls consecutive re-requests is
	// dead to us (the caller fails over). ctx still bounds everything.
	const maxStalls = 3
	stalls := 0
	lastProgress := uint64(0)
	for {
		m.mu.Lock()
		complete := s.completeLocked()
		resume := s.contig
		progress := s.received
		if s.offer != nil {
			progress++
		}
		if s.done != nil {
			progress++
		}
		m.mu.Unlock()
		if complete {
			break
		}
		select {
		case <-s.progress:
			stalls = 0
		case <-m.cfg.Clock.After(m.pol.RequestTimeout):
			if progress == lastProgress {
				stalls++
				if stalls >= maxStalls {
					ack := wire.StateAck{SessionID: sessionID, Object: m.cfg.Object, Cancel: true}
					_ = m.send(context.Background(), peer, wire.KindStateAck, ack.Marshal())
					return nil, fmt.Errorf("xfer: session %s: no progress from %s after %d re-requests",
						sessionID, peer, stalls)
				}
			} else {
				stalls = 0
			}
			lastProgress = progress
			// Stalled: the request, the offer or a chunk window was lost, or
			// the sponsor reaped the session. Re-open it at our high-water
			// mark; a live sponsor rewinds, a restarted one re-offers.
			if err := request(resume); err != nil {
				return nil, err
			}
		case <-m.stop:
			return nil, ErrClosed
		case <-ctx.Done():
			ack := wire.StateAck{SessionID: sessionID, Object: m.cfg.Object, Cancel: true}
			_ = m.send(context.Background(), peer, wire.KindStateAck, ack.Marshal())
			return nil, fmt.Errorf("xfer: session %s: %w", sessionID, ctx.Err())
		}
	}
	res, err := m.verify(s, have, want, basePaged)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.stats.SessionsFetched++
	m.stats.BytesFetched += uint64(res.PayloadBytes)
	m.mu.Unlock()
	return res, nil
}

// verify reassembles a complete session and walks the verification chain:
// payload hash against the signed offer/done, then — per mode — the
// snapshot hash against the agreed tuple, or every delta step folded through
// the application's ApplyUpdate with its resulting state checked against its
// tuple's hash, ending exactly at the offered agreed tuple.
func (m *Manager) verify(s *clientSession, have, want tuple.State, basePaged *pagestate.Paged) (*Result, error) {
	m.mu.Lock()
	offer, done := *s.offer, *s.done
	chunks := s.chunks
	m.mu.Unlock()
	// Reassembly runs outside m.mu: a complete session's chunk map is
	// effectively frozen (every in-range index is present, so late
	// duplicates fail the dup check and never write), and copying up to a
	// gigabyte under the manager lock would stall every served session.
	payload := make([]byte, 0, offer.TotalLen)
	for i := uint64(0); i < offer.Chunks; i++ {
		payload = append(payload, chunks[i]...)
	}

	if done.Agreed != offer.Agreed || done.PayloadHash != offer.PayloadHash || done.Chunks != offer.Chunks {
		return nil, fmt.Errorf("%w: done does not match offer", ErrBadOffer)
	}
	if done.StateHash != offer.Agreed.HashState {
		return nil, fmt.Errorf("%w: state hash does not match agreed tuple", ErrBadOffer)
	}
	if uint64(len(payload)) != offer.TotalLen || crypto.Hash(payload) != offer.PayloadHash {
		return nil, fmt.Errorf("%w: payload hash mismatch", ErrBadPayload)
	}
	mode, state, deltas, err := decodePayload(offer.Mode, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if mode != offer.Mode {
		return nil, fmt.Errorf("%w: payload mode does not match offer", ErrBadPayload)
	}
	res := &Result{
		Agreed:       offer.Agreed,
		Group:        offer.Group,
		Members:      offer.Members,
		Mode:         mode,
		PayloadBytes: len(payload),
		Chunks:       int(offer.Chunks),
	}
	switch mode {
	case wire.XferUpToDate:
		return res, nil
	case wire.XferSnapshot:
		// Every chunk was already verified at receipt against the offer's
		// unit hashes, whose Merkle root validateOfferMerkle bound to the
		// agreed tuple's HashState — the payload-hash check above is the
		// remaining defense-in-depth over the reassembly itself.
		res.State = state
	case wire.XferDeltas:
		if have.Zero() {
			return nil, fmt.Errorf("%w: delta payload without a base state", ErrBadPayload)
		}
		// The fold runs paged from the engine's shared (immutable) agreed
		// state, through the same apply path as live coordination, and each
		// step's tuple check is a Merkle-root comparison. A validator that
		// folds updates into the shared pages verifies a chain of small
		// deltas over a large object in O(deltas · log S), not
		// O(deltas · S); one adapting a flat application (the root
		// package's Object) copies and compares O(S) bytes per step but
		// still hashes only the pages that changed.
		st := basePaged
		prev := have
		for i, d := range deltas {
			if d.Pred != prev {
				return nil, fmt.Errorf("%w: delta %d does not chain from %v", ErrBadPayload, i, prev)
			}
			if d.Tuple.Seq <= prev.Seq {
				return nil, fmt.Errorf("%w: delta %d sequence does not advance", ErrBadPayload, i)
			}
			next, err := m.cfg.Engine.ApplyUpdate(st, d.Update)
			if err != nil {
				return nil, fmt.Errorf("%w: folding delta %d: %v", ErrBadPayload, i, err)
			}
			if !d.Tuple.MatchesRoot(next.Root()) {
				return nil, fmt.Errorf("%w: delta %d does not yield its tuple's state", ErrBadPayload, i)
			}
			st, prev = next, d.Tuple
		}
		if prev != offer.Agreed {
			return nil, fmt.Errorf("%w: delta chain ends at %v, offer says %v", ErrBadPayload, prev, offer.Agreed)
		}
		res.State = st.Bytes()
		res.Deltas = len(deltas)
	default:
		return nil, fmt.Errorf("%w: unknown transfer mode %v", ErrBadPayload, mode)
	}
	if !want.Zero() && res.Agreed != want {
		// The group's agreed state may legitimately advance between the
		// Welcome and the transfer (coordination resumes the moment the
		// sponsor applies the new membership); accept a strictly newer
		// signed result, keeping the deviation as evidence.
		if res.Agreed.Seq <= want.Seq {
			return nil, fmt.Errorf("%w: transfer reached %v, want %v", ErrBadPayload, res.Agreed, want)
		}
		_ = m.logEvidence(s.id, "state-newer-than-welcome", nrlog.DirLocal,
			[]byte(fmt.Sprintf("want seq %d, got seq %d", want.Seq, res.Agreed.Seq)))
	}
	return res, nil
}

// FetchAny tries peers in order until one transfer completes. Each attempt
// is bounded by Fetch's own progress rule — a silent peer is abandoned
// after a few unanswered re-requests, a slow-but-flowing transfer is not —
// so failover is quick without capping legitimate transfer time.
func (m *Manager) FetchAny(ctx context.Context, peers []string, have, want tuple.State) (*Result, error) {
	var lastErr error
	for _, peer := range peers {
		if peer == m.cfg.Ident.ID() {
			continue
		}
		res, err := m.Fetch(ctx, peer, have, want)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = ErrNoPeer
	}
	return nil, fmt.Errorf("%w: %v", ErrNoPeer, lastErr)
}

// CatchUp is the anti-entropy entry point for a live member: ask peers
// (most recently joined first) for the agreed state this party is missing
// and install the first verified result into the engine — which persists a
// checkpoint and notifies the application exactly as a coordinated install
// does. Returns true when the agreed state advanced; (false, nil) means a
// reachable peer confirmed this party is current (unreachable peers cannot
// contradict that — they serve the same agreed chain).
func (m *Manager) CatchUp(ctx context.Context) (bool, error) {
	if m.cfg.Drain != nil {
		// Third catch-up source: drain the relay mailbox first. Whatever was
		// parked for us lands through normal dispatch, so the peer queries
		// below see the post-drain state and fetch only the remainder. A
		// drain error is not fatal — the relay may be down while peers are
		// fine, and they serve the same agreed chain.
		_, _ = m.cfg.Drain(ctx)
	}
	en := m.cfg.Engine
	haveT := en.AgreedTuple()
	group, members := en.Group()
	self := m.cfg.Ident.ID()
	var lastErr error
	current := 0
	for i := len(members) - 1; i >= 0; i-- {
		peer := members[i]
		if peer == self {
			continue
		}
		res, err := m.Fetch(ctx, peer, haveT, tuple.State{})
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		if errors.Is(err, ErrBaseMoved) {
			// Concurrently applied traffic (a drained mailbox still landing,
			// a live commit) advanced the agreed tuple under us: refresh the
			// base and retry the same peer. Bounded by ctx.
			haveT = en.AgreedTuple()
			i++
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		if res.Mode == wire.XferUpToDate || res.Agreed.Seq <= haveT.Seq {
			// Only a peer at least as current as us can confirm currency: a
			// STALER peer also answers up-to-date (it has nothing for us),
			// but its word says nothing about the runs we both missed.
			if res.Agreed.Seq >= haveT.Seq {
				current++
			}
			continue
		}
		if res.Group != group {
			// State catch-up does not adjudicate membership: a group tuple
			// we do not hold means we missed membership changes too, and
			// those must come through the membership protocol (rejoin).
			lastErr = ErrDiverged
			continue
		}
		if err := en.InstallCatchUp(res.Agreed, res.State); err != nil {
			lastErr = err
			continue
		}
		return true, nil
	}
	if current > 0 || len(members) <= 1 {
		return false, nil
	}
	return false, lastErr
}
