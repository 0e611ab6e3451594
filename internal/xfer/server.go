package xfer

import (
	"context"
	"hash/crc32"

	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/wire"
)

// handleRequest is the serving side of session open (and of resumption: a
// duplicate request for a live session rewinds its window to the requester's
// resume index and re-sends the offer).
func (m *Manager) handleRequest(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-state-request", nrlog.DirReceived, payload)
		return
	}
	req, err := wire.UnmarshalStateRequest(signed.Body)
	if err != nil || req.Requester != signed.Signer() || req.Requester != from ||
		req.Object != m.cfg.Object {
		_ = m.logEvidence("", "malformed-state-request", nrlog.DirReceived, payload)
		return
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		_ = m.logEvidence(req.SessionID, "unverifiable-state-request", nrlog.DirReceived, payload)
		return
	}
	// Only members may read object state. A welcomed joiner is a member by
	// the time it fetches: the sponsor applies the new membership before the
	// Welcome leaves, and every other member applied it at conn-commit.
	_, members := m.cfg.Engine.Group()
	if !containsStr(members, req.Requester) {
		_ = m.logEvidence(req.SessionID, "state-request-non-member", nrlog.DirReceived, payload)
		return
	}
	if err := m.logEvidence(req.SessionID, wire.KindStateRequest.String(), nrlog.DirReceived, payload); err != nil {
		return
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if s, live := m.serving[req.SessionID]; live {
		// Resumption: the requester asserts it holds chunks [0, Resume);
		// rewind the window there and re-send the offer (it may have been
		// lost along with the chunks).
		if s.requester == req.Requester {
			if req.Resume < s.chunks || s.chunks == 0 {
				s.acked = req.Resume
				s.next = req.Resume
			}
			offerRaw, doneRaw := s.offerRaw, s.doneRaw
			complete := s.next >= s.chunks
			signal(s.wake)
			m.mu.Unlock()
			_ = m.send(context.Background(), req.Requester, wire.KindStateOffer, offerRaw)
			if complete {
				_ = m.send(context.Background(), req.Requester, wire.KindStateDone, doneRaw)
			}
			return
		}
		m.mu.Unlock()
		return
	}
	if len(m.serving) >= m.pol.MaxSessions {
		// Bounded memory: the requester's progress timeout re-issues the
		// request once a slot frees up.
		m.mu.Unlock()
		_ = m.logEvidence(req.SessionID, "state-request-deferred", nrlog.DirLocal, nil)
		return
	}
	m.mu.Unlock()
	if m.cfg.Gate != nil && !m.cfg.Gate.TryAcquire() {
		// The runtime's shared session quota (this group's cap, or the
		// endpoint-wide cap across all objects) is exhausted: defer exactly
		// like a full local table — the requester re-issues the request once
		// a slot frees up.
		_ = m.logEvidence(req.SessionID, "state-request-deferred", nrlog.DirLocal, nil)
		return
	}
	release := func() {
		if m.cfg.Gate != nil {
			m.cfg.Gate.Release()
		}
	}

	s, mode := m.buildSession(req)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		release()
		return
	}
	if _, dup := m.serving[req.SessionID]; dup {
		m.mu.Unlock()
		release()
		return
	}
	m.serving[req.SessionID] = s
	m.stats.SessionsServed++
	switch mode {
	case wire.XferDeltas:
		m.stats.DeltaSessions++
	case wire.XferSnapshot:
		m.stats.SnapshotSessions++
	default:
		m.stats.UpToDateReplies++
	}
	m.mu.Unlock()

	if err := m.logEvidence(req.SessionID, wire.KindStateOffer.String(), nrlog.DirSent, s.offerRaw); err != nil {
		m.dropServer(req.SessionID)
		return
	}
	_ = m.send(context.Background(), req.Requester, wire.KindStateOffer, s.offerRaw)
	go m.serve(s)
}

// buildSession decides the transfer mode and materializes the payload plus
// the signed offer/done frames for a fresh session.
func (m *Manager) buildSession(req wire.StateRequest) (*serverSession, wire.XferMode) {
	agreedT, agreedPaged := m.cfg.Engine.AgreedPaged()
	group, members := m.cfg.Engine.Group()

	mode := wire.XferSnapshot
	var payload []byte
	var deltaFrom uint64
	switch {
	case !req.Have.Zero() && req.Have.Seq >= agreedT.Seq:
		// The requester is at least as current as this party: nothing to
		// serve (if it is ahead, it should be serving us).
		mode = wire.XferUpToDate
		payload = encodePayload(mode, nil, nil)
	case !req.Have.Zero():
		if chain, err := m.cfg.Engine.CatchUpChain(); err == nil {
			for i, cp := range chain {
				if cp.Tuple == req.Have && i < len(chain)-1 {
					suffix := chain[i+1:]
					ok := true
					for _, d := range suffix {
						if !d.Delta {
							ok = false
							break
						}
					}
					if ok {
						mode = wire.XferDeltas
						deltaFrom = suffix[0].Tuple.Seq
						payload = encodePayload(mode, nil, suffix)
					}
					break
				}
			}
		}
	}

	window := uint64(m.pol.Window)
	if req.Window > 0 && req.Window < window {
		window = req.Window
	}
	chunkLen := m.pol.ChunkSize
	var pageSize uint64
	var pageHashes [][32]byte
	if mode == wire.XferSnapshot {
		// The requester holds nothing, or the chain was compacted past its
		// tuple (or the history is overwrite-mode): serve the whole state.
		// Chunks align to the offer's hash units (a page, or a MaxPageSize
		// slice of a larger one), so the requester maps each chunk to its
		// units and verifies it at receipt.
		payload = agreedPaged.Bytes()
		pageHashes = agreedPaged.UnitHashes()
		pageSize = uint64(agreedPaged.PageSize())
		unit := pagestate.UnitSize(agreedPaged.PageSize())
		chunkLen = max(chunkLen-chunkLen%unit, unit)
	}
	chunks := chunkCount(len(payload), chunkLen)
	offer := wire.StateOffer{
		SessionID:   req.SessionID,
		Sponsor:     m.cfg.Ident.ID(),
		Object:      m.cfg.Object,
		Group:       group,
		Members:     members,
		Agreed:      agreedT,
		Mode:        mode,
		DeltaFrom:   deltaFrom,
		Chunks:      chunks,
		ChunkLen:    uint64(chunkLen),
		TotalLen:    uint64(len(payload)),
		PayloadHash: crypto.Hash(payload),
		PageSize:    pageSize,
		PageHashes:  pageHashes,
	}
	done := wire.StateDone{
		SessionID:   req.SessionID,
		Sponsor:     m.cfg.Ident.ID(),
		Object:      m.cfg.Object,
		Agreed:      agreedT,
		StateHash:   agreedT.HashState,
		PayloadHash: offer.PayloadHash,
		Chunks:      chunks,
	}
	offerS := wire.Sign(wire.KindStateOffer, offer.Marshal(), m.cfg.Ident, m.cfg.TSA)
	doneS := wire.Sign(wire.KindStateDone, done.Marshal(), m.cfg.Ident, m.cfg.TSA)
	s := &serverSession{
		id:        req.SessionID,
		requester: req.Requester,
		payload:   payload,
		offerRaw:  offerS.Marshal(),
		doneRaw:   doneS.Marshal(),
		chunks:    chunks,
		chunkLen:  chunkLen,
		window:    window,
		next:      min64(req.Resume, chunks),
		acked:     min64(req.Resume, chunks),
		wake:      make(chan struct{}, 1),
	}
	return s, mode
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// serve streams a session's chunks under the cumulative-ack window, closing
// with the signed StateDone after the last chunk. The window is the
// transfer's one flow control: at most window chunks are unacknowledged, so
// the transfer feeds the transport's outbox at the requester's pace and
// cannot starve coordination traffic on the shared connection. An idle
// session (no ack progress and nothing sendable for 3x the request timeout)
// is reaped; the requester's own progress timeout re-opens it with a resume
// index if it is still alive.
func (m *Manager) serve(s *serverSession) {
	idle := 0
	doneSent := false
	for {
		m.mu.Lock()
		if m.closed || s.cancelled {
			m.mu.Unlock()
			m.dropServer(s.id)
			return
		}
		if s.acked >= s.chunks {
			m.mu.Unlock()
			if !doneSent {
				_ = m.logEvidence(s.id, wire.KindStateDone.String(), nrlog.DirSent, s.doneRaw)
				_ = m.send(context.Background(), s.requester, wire.KindStateDone, s.doneRaw)
			}
			m.dropServer(s.id)
			return
		}
		canSend := s.next < s.chunks && s.next-s.acked < s.window
		var idx uint64
		if canSend {
			idx = s.next
			s.next++
		}
		last := canSend && s.next >= s.chunks
		m.mu.Unlock()

		if canSend {
			idle = 0
			body := chunkAt(s.payload, idx, s.chunkLen)
			chunk := wire.StateChunk{
				SessionID: s.id,
				Object:    m.cfg.Object,
				Index:     idx,
				Payload:   body,
				CRC:       crc32.Checksum(body, castagnoli),
			}
			// The window is the flow control; the deadline only bounds a
			// send that must first dial its peer. A chunk that fails to go
			// out is re-earned through the requester's resume rule.
			sendCtx, cancel := context.WithTimeout(context.Background(), 3*m.pol.RequestTimeout)
			err := m.send(sendCtx, s.requester, wire.KindStateChunk, chunk.Marshal())
			cancel()
			if err != nil {
				continue
			}
			m.mu.Lock()
			m.stats.ChunksSent++
			m.stats.BytesSent += uint64(len(body))
			m.mu.Unlock()
			if last && !doneSent {
				doneSent = true
				_ = m.logEvidence(s.id, wire.KindStateDone.String(), nrlog.DirSent, s.doneRaw)
				_ = m.send(context.Background(), s.requester, wire.KindStateDone, s.doneRaw)
			}
			continue
		}
		select {
		case <-s.wake:
			idle = 0
			// A resume request may rewind next below chunks: allow Done again.
			m.mu.Lock()
			if s.next < s.chunks {
				doneSent = false
			}
			m.mu.Unlock()
		case <-m.cfg.Clock.After(m.pol.RequestTimeout):
			idle++
			if idle >= 3 {
				m.dropServer(s.id)
				return
			}
		case <-m.stop:
			m.dropServer(s.id)
			return
		}
	}
}

func (m *Manager) dropServer(id string) {
	m.mu.Lock()
	_, present := m.serving[id]
	delete(m.serving, id)
	m.mu.Unlock()
	// The gate slot travels with the serving entry: acquired before the
	// session was built, released exactly once when the entry leaves the
	// table (dropServer is called from several exit paths).
	if present && m.cfg.Gate != nil {
		m.cfg.Gate.Release()
	}
}

// handleAck advances a served session's cumulative window.
func (m *Manager) handleAck(from string, payload []byte) {
	a, err := wire.UnmarshalStateAck(payload)
	if err != nil || a.Object != m.cfg.Object {
		return
	}
	m.mu.Lock()
	s, ok := m.serving[a.SessionID]
	if !ok || s.requester != from {
		m.mu.Unlock()
		return
	}
	if a.Cancel {
		s.cancelled = true
	} else if a.Next > s.acked {
		s.acked = a.Next
	}
	signal(s.wake)
	m.mu.Unlock()
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
