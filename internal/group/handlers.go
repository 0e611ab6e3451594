package group

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// HandleEnvelope dispatches inbound membership protocol traffic. Every kind
// but a commit travels as a Signed envelope; a payload that does not parse
// is kept as "malformed-<kind>" evidence.
func (m *Manager) HandleEnvelope(from string, env wire.Envelope) {
	var handle func(from string, signed wire.Signed, payload []byte) error
	malformed := "malformed-" + env.Kind.String()
	switch env.Kind {
	case wire.KindConnCommit, wire.KindDiscCommit:
		if m.handleCommit(from, env.Kind, env.Payload) != nil {
			_ = m.logEvidence("", malformed, nrlog.DirReceived, env.Payload)
		}
		return
	case wire.KindConnRequest:
		handle = m.handleConnRequest
	case wire.KindDiscRequest:
		handle = m.handleDiscRequest
	case wire.KindConnPropose, wire.KindDiscPropose:
		handle = m.handlePropose
	case wire.KindConnRespond, wire.KindDiscRespond:
		handle, malformed = m.handleRespond, "malformed-group-respond"
	case wire.KindWelcome:
		handle = m.handleWelcome
	case wire.KindReject:
		handle = m.handleReject
	case wire.KindDiscNotice:
		handle = m.handleDiscNotice
	default:
		_ = m.logEvidence("", "unknown-kind", nrlog.DirReceived, env.Marshal())
		return
	}
	signed, err := wire.UnmarshalSigned(env.Payload)
	if err == nil {
		err = handle(from, signed, env.Payload)
	}
	if err != nil {
		_ = m.logEvidence("", malformed, nrlog.DirReceived, env.Payload)
	}
}

// firstRequest records a request's evidence the first time its id is seen.
func (m *Manager) firstRequest(reqID string, kind wire.Kind, payload []byte) bool {
	m.mu.Lock()
	seen := m.seenReqs[reqID]
	m.seenReqs[reqID] = true
	m.mu.Unlock()
	return !seen && m.logEvidence(reqID, kind.String(), nrlog.DirReceived, payload) == nil
}

// handleConnRequest is the contacted member's side of step 1. Non-sponsors
// redirect; the sponsor validates, then drives the group decision.
func (m *Manager) handleConnRequest(from string, signed wire.Signed, payload []byte) error {
	req, err := wire.UnmarshalConnRequest(signed.Body)
	if err != nil || req.Subject != signed.Signer() || req.Subject != from {
		return errors.New("malformed connection request")
	}
	if !m.firstRequest(req.ReqID, wire.KindConnRequest, payload) {
		return nil
	}

	// The subject's certificate must verify before we trust the signature.
	if err := m.cfg.Verifier.AddCertificate(req.SubjectCert); err != nil {
		m.reject(req.ReqID, req.Subject, "certificate rejected")
		return nil
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		m.reject(req.ReqID, req.Subject, "signature rejected")
		return nil
	}

	_, members := m.cfg.Engine.Group()
	if contains(members, req.Subject) {
		m.reject(req.ReqID, req.Subject, "already a member")
		return nil
	}
	sponsor, err := SponsorOf(members)
	if err != nil {
		m.reject(req.ReqID, req.Subject, "no sponsor available")
		return nil
	}
	if sponsor != m.cfg.Ident.ID() {
		// Any member can name the legitimate sponsor (§4.5.1).
		m.reject(req.ReqID, req.Subject, redirectPrefix+sponsor)
		return nil
	}

	// Immediate rejection by the sponsor's own policy (§4.5.3).
	if d := m.cfg.Validator.ValidateConnect(req.Subject); !d.Accept {
		m.reject(req.ReqID, req.Subject, d.Diagnostic)
		return nil
	}

	// Drive the group decision without blocking the inbound dispatcher.
	go m.admit(signed, req)
	return nil
}

// reject sends a signed rejection: immediate rejection and member veto are
// deliberately indistinguishable to the subject (§4.5.3).
func (m *Manager) reject(reqID, subject, reason string) {
	rej := wire.Reject{ReqID: reqID, Object: m.cfg.Object, Sponsor: m.cfg.Ident.ID(), Reason: reason}
	signed := wire.Sign(wire.KindReject, rej.Marshal(), m.cfg.Ident, m.cfg.TSA)
	_ = m.logEvidence(reqID, wire.KindReject.String(), nrlog.DirSent, signed.Marshal())
	_ = m.send(context.Background(), subject, wire.KindReject, signed.Marshal())
}

// admit is the sponsor's side of a connection (§4.5.3): run the group
// decision, then welcome the subject or reject it.
func (m *Manager) admit(reqSigned wire.Signed, req wire.ConnRequest) {
	ctx := context.Background()
	self := m.cfg.Ident.ID()
	cur, members := m.cfg.Engine.Group()
	newMembers := append(slices.Clone(members), req.Subject)
	ch, commit, err := m.drive(ctx, "conn", cur, newMembers, func(runID string, next tuple.Group, authCommit [32]byte) wire.Signed {
		prop := wire.ConnPropose{
			RunID: runID, Sponsor: self, Object: m.cfg.Object, ReqID: req.ReqID, Request: reqSigned,
			CurGroup: cur, NewGroup: next, NewMembers: newMembers,
			Subject: req.Subject, SubjectCert: req.SubjectCert, AuthCommit: authCommit,
		}
		return wire.Sign(wire.KindConnPropose, prop.Marshal(), m.cfg.Ident, m.cfg.TSA)
	})
	switch {
	case errors.Is(err, ErrBusy):
		m.reject(req.ReqID, req.Subject, "membership change in progress")
		return
	case errors.Is(err, errNotAgreed):
		// From the subject's perspective indistinguishable from immediate
		// rejection: no veto detail is disclosed.
		m.reject(req.ReqID, req.Subject, "request rejected")
		return
	case err != nil:
		return
	}

	// Welcome: the admission evidence and the agreed tuple, never the
	// state — the subject fetches that as a transfer session (internal/xfer)
	// and verifies it against the tuple, so join latency is bounded by link
	// bandwidth, not by what a single frame may carry. Membership is already
	// applied, so the subject's state request finds it a member here.
	var certs []crypto.Certificate
	for _, member := range members {
		if cert, ok := m.cfg.Verifier.Certificate(member); ok {
			certs = append(certs, cert)
		}
	}
	welcome := wire.Welcome{
		RunID:       ch.runID,
		Sponsor:     self,
		Object:      m.cfg.Object,
		Members:     ch.newMembers,
		Group:       ch.newGroup,
		AgreedTuple: m.cfg.Engine.AgreedTuple(),
		MemberCerts: certs,
		Commit:      commit,
	}
	if m.cfg.Prekeys != nil {
		// Bounded by the wire cap; a directory can only exceed it with more
		// members than any group this protocol targets.
		if pks := m.cfg.Prekeys.Snapshot(); len(pks) <= wire.MaxWelcomePrekeys {
			welcome.Prekeys = pks
		}
	}
	wsigned := wire.Sign(wire.KindWelcome, welcome.Marshal(), m.cfg.Ident, m.cfg.TSA)
	if err := m.logEvidence(ch.runID, wire.KindWelcome.String(), nrlog.DirSent, wsigned.Marshal()); err != nil {
		return
	}
	_ = m.send(ctx, req.Subject, wire.KindWelcome, wsigned.Marshal())
}

// handleWelcome completes a pending Join at the subject.
func (m *Manager) handleWelcome(from string, signed wire.Signed, _ []byte) error {
	w, err := wire.UnmarshalWelcome(signed.Body)
	if err != nil || w.Sponsor != from {
		return errors.New("malformed welcome")
	}
	ch, err := decodeChange(w.Commit.Propose)
	if err != nil {
		return nil
	}
	m.mu.Lock()
	wait, ok := m.joins[ch.reqID]
	m.mu.Unlock()
	if ok {
		select {
		case wait.ch <- joinResult{welcome: &w, signed: signed}:
		default:
		}
	}
	return nil
}

// handleReject completes a pending Join with a rejection (or redirect).
//
//b2b:unverified an outsider being rejected cannot yet verify member signatures (no certificates); a forged reject only delays the join (liveness, not safety)
func (m *Manager) handleReject(from string, signed wire.Signed, payload []byte) error {
	rej, err := wire.UnmarshalReject(signed.Body)
	if err != nil || rej.Sponsor != from {
		return errors.New("malformed reject")
	}
	_ = m.logEvidence(rej.ReqID, wire.KindReject.String(), nrlog.DirReceived, payload)
	m.mu.Lock()
	wait, ok := m.joins[rej.ReqID]
	m.mu.Unlock()
	if ok {
		select {
		case wait.ch <- joinResult{rejectBy: rej.Sponsor, reason: rej.Reason}:
		default:
		}
	}
	return nil
}

// handleDiscRequest is the sponsor's receipt of a disconnection/eviction
// request.
func (m *Manager) handleDiscRequest(from string, signed wire.Signed, payload []byte) error {
	req, err := wire.UnmarshalDiscRequest(signed.Body)
	if err != nil || req.Proposer != signed.Signer() || req.Proposer != from {
		return errors.New("malformed disconnection request")
	}
	if !m.firstRequest(req.ReqID, wire.KindDiscRequest, payload) {
		return nil
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		return nil
	}
	if req.Voluntary && (len(req.Evictees) != 1 || req.Evictees[0] != req.Proposer) {
		return nil // malformed voluntary request
	}
	_, members := m.cfg.Engine.Group()
	if sponsor, err := SponsorOf(members, req.Evictees...); err != nil || sponsor != m.cfg.Ident.ID() {
		return nil // not ours to sponsor; the requester will retry/escalate
	}
	go func() {
		if err := m.depart(context.Background(), signed, req); err != nil {
			// Sponsorship did not complete (busy with another change, vetoed
			// by a member still catching up, or timed out): forget the
			// request so the requester's periodic re-send gets a fresh run
			// once the group stabilises.
			m.mu.Lock()
			delete(m.seenReqs, req.ReqID)
			m.mu.Unlock()
		}
	}()
	return nil
}

// depart is the sponsor's side of a disconnection or eviction (§4.5.4): run
// the group decision, then send a voluntary leaver its DiscNotice.
func (m *Manager) depart(ctx context.Context, reqSigned wire.Signed, req wire.DiscRequest) error {
	self := m.cfg.Ident.ID()
	cur, members := m.cfg.Engine.Group()
	for _, e := range req.Evictees {
		if !contains(members, e) {
			return fmt.Errorf("%w: %s", ErrBadSubject, e)
		}
	}
	newMembers := removeAll(members, req.Evictees)
	ch, _, err := m.drive(ctx, "disc", cur, newMembers, func(runID string, next tuple.Group, authCommit [32]byte) wire.Signed {
		prop := wire.DiscPropose{
			RunID: runID, Sponsor: self, Object: m.cfg.Object, ReqID: req.ReqID, Request: reqSigned,
			CurGroup: cur, NewGroup: next, NewMembers: newMembers,
			Evictees: append([]string(nil), req.Evictees...), Voluntary: req.Voluntary, AuthCommit: authCommit,
		}
		return wire.Sign(wire.KindDiscPropose, prop.Marshal(), m.cfg.Ident, m.cfg.TSA)
	})
	if err != nil || !req.Voluntary {
		return err
	}
	notice := wire.DiscNotice{
		RunID:       ch.runID,
		Sponsor:     self,
		Object:      m.cfg.Object,
		Members:     ch.newMembers,
		Group:       ch.newGroup,
		AgreedTuple: m.cfg.Engine.AgreedTuple(),
	}
	nsigned := wire.Sign(wire.KindDiscNotice, notice.Marshal(), m.cfg.Ident, m.cfg.TSA)
	_ = m.logEvidence(ch.runID, wire.KindDiscNotice.String(), nrlog.DirSent, nsigned.Marshal())
	_ = m.send(ctx, req.Proposer, wire.KindDiscNotice, nsigned.Marshal())
	return nil
}

// handleDiscNotice completes a pending Leave at the departed subject.
func (m *Manager) handleDiscNotice(from string, signed wire.Signed, _ []byte) error {
	notice, err := wire.UnmarshalDiscNotice(signed.Body)
	if err != nil || notice.Sponsor != from {
		return errors.New("malformed disconnection notice")
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		return nil
	}
	// A subject has at most one outstanding leave; deliver to all waiters.
	m.mu.Lock()
	defer m.mu.Unlock()
	for ch := range m.leaves {
		select {
		case ch <- notice:
		default:
		}
	}
	return nil
}

func removeAll(ss []string, drops []string) []string {
	dropSet := make(map[string]bool, len(drops))
	for _, d := range drops {
		dropSet[d] = true
	}
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		if !dropSet[s] {
			out = append(out, s)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
