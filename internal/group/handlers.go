package group

import (
	"context"
	"encoding/hex"
	"fmt"
	"strings"

	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// HandleEnvelope dispatches inbound membership protocol traffic.
func (m *Manager) HandleEnvelope(from string, env wire.Envelope) {
	switch env.Kind {
	case wire.KindConnRequest:
		m.handleConnRequest(from, env.Payload)
	case wire.KindConnPropose:
		m.handleConnPropose(from, env.Payload)
	case wire.KindConnRespond:
		m.handleGroupRespond(from, env.Payload, true)
	case wire.KindConnCommit:
		m.handleConnCommit(from, env.Payload)
	case wire.KindWelcome:
		m.handleWelcome(from, env.Payload)
	case wire.KindReject:
		m.handleReject(from, env.Payload)
	case wire.KindDiscRequest:
		m.handleDiscRequest(from, env.Payload)
	case wire.KindDiscPropose:
		m.handleDiscPropose(from, env.Payload)
	case wire.KindDiscRespond:
		m.handleGroupRespond(from, env.Payload, false)
	case wire.KindDiscCommit:
		m.handleDiscCommit(from, env.Payload)
	case wire.KindDiscNotice:
		m.handleDiscNotice(from, env.Payload)
	default:
		_ = m.logEvidence("", "unknown-kind", nrlog.DirReceived, env.Marshal())
	}
}

// handleConnRequest is the contacted member's side of step 1. Non-sponsors
// redirect; the sponsor validates, then drives the group decision.
func (m *Manager) handleConnRequest(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-conn-request", nrlog.DirReceived, payload)
		return
	}
	req, err := wire.UnmarshalConnRequest(signed.Body)
	if err != nil || req.Subject != signed.Signer() || req.Subject != from {
		_ = m.logEvidence("", "malformed-conn-request", nrlog.DirReceived, payload)
		return
	}
	m.mu.Lock()
	if m.seenReqs[req.ReqID] {
		m.mu.Unlock()
		return
	}
	m.seenReqs[req.ReqID] = true
	m.mu.Unlock()
	if err := m.logEvidence(req.ReqID, wire.KindConnRequest.String(), nrlog.DirReceived, payload); err != nil {
		return
	}

	// The subject's certificate must verify before we trust the signature.
	if err := m.cfg.Verifier.AddCertificate(req.SubjectCert); err != nil {
		m.reject(req.ReqID, req.Subject, "certificate rejected")
		return
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		m.reject(req.ReqID, req.Subject, "signature rejected")
		return
	}

	_, members := m.cfg.Engine.Group()
	if contains(members, req.Subject) {
		m.reject(req.ReqID, req.Subject, "already a member")
		return
	}
	sponsor, err := SponsorOf(members)
	if err != nil {
		m.reject(req.ReqID, req.Subject, "no sponsor available")
		return
	}
	if sponsor != m.cfg.Ident.ID() {
		// Any member can name the legitimate sponsor (§4.5.1).
		m.reject(req.ReqID, req.Subject, redirectPrefix+sponsor)
		return
	}

	// Immediate rejection by the sponsor's own policy (§4.5.3).
	if d := m.cfg.Validator.ValidateConnect(req.Subject); !d.Accept {
		m.reject(req.ReqID, req.Subject, d.Diagnostic)
		return
	}

	// Drive the group decision without blocking the inbound dispatcher.
	go m.sponsorConnection(signed, req)
}

// reject sends a signed rejection: immediate rejection and member veto are
// deliberately indistinguishable to the subject (§4.5.3).
func (m *Manager) reject(reqID, subject, reason string) {
	rej := wire.Reject{ReqID: reqID, Object: m.cfg.Object, Sponsor: m.cfg.Ident.ID(), Reason: reason}
	signed := wire.Sign(wire.KindReject, rej.Marshal(), m.cfg.Ident, m.cfg.TSA)
	_ = m.logEvidence(reqID, wire.KindReject.String(), nrlog.DirSent, signed.Marshal())
	_ = m.send(context.Background(), subject, wire.KindReject, signed.Marshal())
}

// sponsorConnection runs steps 2-5 of the connection protocol at the
// sponsor: propose to current members, gather responses, commit, and either
// welcome the subject (transferring the agreed state) or reject.
func (m *Manager) sponsorConnection(reqSigned wire.Signed, req wire.ConnRequest) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ResponseTimeout)
	defer cancel()

	curGroup, members := m.cfg.Engine.Group()
	self := m.cfg.Ident.ID()

	m.mu.Lock()
	if len(m.runs) > 0 {
		m.mu.Unlock()
		m.reject(req.ReqID, req.Subject, "membership change in progress")
		return
	}
	// Reserve the run slot before any message leaves.
	rnd, err := crypto.Nonce()
	if err != nil {
		m.mu.Unlock()
		return
	}
	auth, err := crypto.Nonce()
	if err != nil {
		m.mu.Unlock()
		return
	}
	runID := self + "-conn-" + hex.EncodeToString(rnd[:8])
	newMembers := append(append([]string(nil), members...), req.Subject)
	prop := wire.ConnPropose{
		RunID:       runID,
		Sponsor:     self,
		Object:      m.cfg.Object,
		ReqID:       req.ReqID,
		Request:     reqSigned,
		CurGroup:    curGroup,
		NewGroup:    tuple.NewGroup(curGroup.Seq+1, rnd, newMembers),
		NewMembers:  newMembers,
		Subject:     req.Subject,
		SubjectCert: req.SubjectCert,
		AuthCommit:  crypto.Hash(auth),
	}
	signed := wire.Sign(wire.KindConnPropose, prop.Marshal(), m.cfg.Ident, m.cfg.TSA)
	recips := remove(members, self)
	run := &sponsorRun{
		runID:     runID,
		proposeS:  signed,
		auth:      auth,
		recips:    recips,
		responses: make(map[string]wire.Signed, len(recips)),
		parsed:    make(map[string]wire.GroupRespond, len(recips)),
		done:      make(chan struct{}),
	}
	m.runs[runID] = run
	m.mu.Unlock()

	// Block state coordination while the membership change is pending
	// (sponsor concurrency-control duty, §4.5.1).
	m.cfg.Engine.Freeze()
	defer func() {
		m.mu.Lock()
		delete(m.runs, runID)
		m.mu.Unlock()
	}()

	if err := m.logEvidence(runID, wire.KindConnPropose.String(), nrlog.DirSent, signed.Marshal()); err != nil {
		m.cfg.Engine.Unfreeze()
		return
	}
	for _, r := range recips {
		_ = m.send(ctx, r, wire.KindConnPropose, signed.Marshal())
	}
	if len(recips) > 0 {
		select {
		case <-run.done:
		case <-ctx.Done():
			m.cfg.Engine.Unfreeze()
			m.reject(req.ReqID, req.Subject, "membership decision timed out")
			return
		}
	}

	// Aggregate the group's decision.
	m.mu.Lock()
	unanimous := true
	var vetoDiag string
	commit := wire.GroupCommit{RunID: runID, Sponsor: self, Object: m.cfg.Object, Auth: auth, Propose: signed}
	for _, r := range recips {
		s := run.responses[r]
		commit.Responds = append(commit.Responds, s)
		if resp := run.parsed[r]; !resp.Decision.Accept {
			unanimous = false
			if vetoDiag == "" {
				vetoDiag = resp.Decision.Diagnostic
			}
		}
	}
	m.mu.Unlock()

	payload := commit.MarshalConn()
	if err := m.logEvidence(runID, wire.KindConnCommit.String(), nrlog.DirSent, payload); err != nil {
		m.cfg.Engine.Unfreeze()
		return
	}
	// Message conn-commit is sent to all members whether agreed or vetoed
	// (§4.5.3: message 4 is still sent to all members of G).
	for _, r := range recips {
		_ = m.send(ctx, r, wire.KindConnCommit, payload)
	}

	if !unanimous {
		m.cfg.Engine.Unfreeze()
		// From the subject's perspective indistinguishable from immediate
		// rejection: no veto detail is disclosed.
		m.reject(req.ReqID, req.Subject, "request rejected")
		return
	}

	// Welcome: the admission evidence and the agreed tuple, never the
	// state — the subject fetches that as a transfer session (internal/xfer)
	// and verifies it against the tuple, so join latency is bounded by link
	// bandwidth, not by what a single frame may carry.
	var certs []crypto.Certificate
	for _, member := range members {
		if cert, ok := m.cfg.Verifier.Certificate(member); ok {
			certs = append(certs, cert)
		}
	}
	welcome := wire.Welcome{
		RunID:       runID,
		Sponsor:     self,
		Object:      m.cfg.Object,
		Members:     newMembers,
		Group:       prop.NewGroup,
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
	if err := m.logEvidence(runID, wire.KindWelcome.String(), nrlog.DirSent, wsigned.Marshal()); err != nil {
		return
	}
	// Membership applies before the Welcome leaves: the subject's state
	// request must find it already a member at this party.
	_ = m.cfg.Engine.ApplyMembership(prop.NewGroup, newMembers)
	_ = m.send(ctx, req.Subject, wire.KindWelcome, wsigned.Marshal())
	m.mu.Lock()
	m.completed[runID] = true
	m.mu.Unlock()
}

// handleConnPropose is a member's side of the connection decision.
func (m *Manager) handleConnPropose(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-conn-propose", nrlog.DirReceived, payload)
		return
	}
	prop, err := wire.UnmarshalConnPropose(signed.Body)
	if err != nil {
		_ = m.logEvidence("", "malformed-conn-propose", nrlog.DirReceived, payload)
		return
	}
	m.mu.Lock()
	if ar, ok := m.answered[prop.RunID]; ok {
		// Duplicate (protocol retry): re-send the recorded response.
		resp := ar.respond.Marshal()
		m.mu.Unlock()
		_ = m.send(context.Background(), from, wire.KindConnRespond, resp)
		return
	}
	if m.completed[prop.RunID] {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	if err := m.logEvidence(prop.RunID, wire.KindConnPropose.String(), nrlog.DirReceived, payload); err != nil {
		return
	}

	decision := m.evaluateConnPropose(from, signed, prop)
	m.respondToGroupPropose(from, prop.RunID, prop.CurGroup, prop.NewGroup, prop.NewMembers, prop.Subject,
		signed, decision, true)
}

func (m *Manager) evaluateConnPropose(from string, signed wire.Signed, prop wire.ConnPropose) wire.Decision {
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		return wire.Rejected(fmt.Sprintf("sponsor signature: %v", err))
	}
	if signed.Signer() != prop.Sponsor || from != prop.Sponsor {
		return wire.Rejected("sponsor identity mismatch")
	}
	curGroup, members := m.cfg.Engine.Group()
	sponsor, err := SponsorOf(members)
	if err != nil || prop.Sponsor != sponsor {
		// Only the legitimate sponsor may coordinate membership (§4.5.1).
		return wire.Rejected("proposer is not the legitimate sponsor")
	}
	if prop.CurGroup != curGroup {
		// Inconsistent group identifiers invalidate the proposal (§4.5.2).
		return wire.Rejected("inconsistent group identifier")
	}
	if contains(members, prop.Subject) {
		return wire.Rejected("subject is already a member")
	}
	wantMembers := append(append([]string(nil), members...), prop.Subject)
	if !equalStrings(prop.NewMembers, wantMembers) {
		return wire.Rejected("proposed membership is not current members plus subject")
	}
	if !prop.NewGroup.MatchesMembers(prop.NewMembers) {
		return wire.Rejected("new group tuple does not match proposed membership")
	}
	if prop.NewGroup.Seq <= curGroup.Seq {
		return wire.Rejected("group sequence did not advance")
	}
	// Verify the subject's embedded request and certificate.
	if err := m.cfg.Verifier.AddCertificate(prop.SubjectCert); err != nil {
		return wire.Rejected("subject certificate rejected")
	}
	if err := prop.Request.Verify(m.cfg.Verifier); err != nil {
		return wire.Rejected("subject request signature rejected")
	}
	req, err := wire.UnmarshalConnRequest(prop.Request.Body)
	if err != nil || req.Subject != prop.Subject || req.ReqID != prop.ReqID {
		return wire.Rejected("embedded request inconsistent with proposal")
	}
	return m.cfg.Validator.ValidateConnect(prop.Subject)
}

// respondToGroupPropose signs and sends a member's decision and freezes
// local coordination until commit.
func (m *Manager) respondToGroupPropose(sponsor, runID string, curGroup, newGroup tuple.Group,
	newMembers []string, subject string, proposeS wire.Signed, decision wire.Decision, isConnect bool) {
	agreedTuple := m.cfg.Engine.AgreedTuple()
	resp := wire.GroupRespond{
		RunID:     runID,
		Responder: m.cfg.Ident.ID(),
		Object:    m.cfg.Object,
		CurGroup:  curGroup,
		NewGroup:  newGroup,
		Agreed:    agreedTuple,
		Decision:  decision,
	}
	var body []byte
	var kind wire.Kind
	if isConnect {
		body = resp.MarshalConn()
		kind = wire.KindConnRespond
	} else {
		body = resp.MarshalDisc()
		kind = wire.KindDiscRespond
	}
	signed := wire.Sign(kind, body, m.cfg.Ident, m.cfg.TSA)

	m.mu.Lock()
	m.answered[runID] = &memberRun{
		runID:      runID,
		sponsor:    sponsor,
		proposeS:   proposeS,
		respond:    signed,
		newGroup:   newGroup,
		newMembers: newMembers,
		subject:    subject,
		isConnect:  isConnect,
	}
	m.mu.Unlock()

	if decision.Accept {
		m.cfg.Engine.Freeze()
	}
	_ = m.logEvidence(runID, kind.String(), nrlog.DirSent, signed.Marshal())
	_ = m.send(context.Background(), sponsor, kind, signed.Marshal())
}

// handleGroupRespond is the sponsor's collection of member decisions.
func (m *Manager) handleGroupRespond(from string, payload []byte, isConnect bool) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-group-respond", nrlog.DirReceived, payload)
		return
	}
	var resp wire.GroupRespond
	if isConnect {
		resp, err = wire.UnmarshalConnRespond(signed.Body)
	} else {
		resp, err = wire.UnmarshalDiscRespond(signed.Body)
	}
	if err != nil {
		_ = m.logEvidence("", "malformed-group-respond", nrlog.DirReceived, payload)
		return
	}
	if err := m.logEvidence(resp.RunID, signed.Kind.String(), nrlog.DirReceived, payload); err != nil {
		return
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		_ = m.logEvidence(resp.RunID, "unverifiable-group-respond", nrlog.DirLocal, []byte(err.Error()))
		return
	}
	if signed.Signer() != resp.Responder || from != resp.Responder {
		return
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	run, ok := m.runs[resp.RunID]
	if !ok || !contains(run.recips, resp.Responder) {
		return
	}
	if _, dup := run.responses[resp.Responder]; dup {
		return
	}
	run.responses[resp.Responder] = signed
	run.parsed[resp.Responder] = resp
	if len(run.responses) == len(run.recips) {
		close(run.done)
	}
}

// handleConnCommit applies the group's decision at a member.
func (m *Manager) handleConnCommit(from string, payload []byte) {
	commit, err := wire.UnmarshalConnCommit(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-conn-commit", nrlog.DirReceived, payload)
		return
	}
	m.applyGroupCommit(from, commit, true, payload)
}

// handleDiscCommit applies the group's decision at a member.
func (m *Manager) handleDiscCommit(from string, payload []byte) {
	commit, err := wire.UnmarshalDiscCommit(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-disc-commit", nrlog.DirReceived, payload)
		return
	}
	m.applyGroupCommit(from, commit, false, payload)
}

func (m *Manager) applyGroupCommit(from string, commit wire.GroupCommit, isConnect bool, payload []byte) {
	m.mu.Lock()
	if m.completed[commit.RunID] {
		m.mu.Unlock()
		return
	}
	ar, ok := m.answered[commit.RunID]
	m.mu.Unlock()
	if !ok {
		_ = m.logEvidence(commit.RunID, "commit-unknown-run", nrlog.DirReceived, payload)
		return
	}
	kind := wire.KindConnCommit
	if !isConnect {
		kind = wire.KindDiscCommit
	}
	if err := m.logEvidence(commit.RunID, kind.String(), nrlog.DirReceived, payload); err != nil {
		return
	}
	if from != ar.sponsor || commit.Sponsor != ar.sponsor {
		_ = m.logEvidence(commit.RunID, "commit-wrong-sponsor", nrlog.DirLocal, []byte(from))
		return
	}

	// A veto anywhere (including our own) leaves membership unchanged.
	prop, err := verifyGroupCommitEvidence(m.cfg.Verifier, commit, isConnect)
	unanimous := err == nil
	if err != nil && !isVetoError(err) {
		// Structural inconsistency, not a mere veto: ignore the commit and
		// keep the evidence (a genuine one may still arrive).
		_ = m.logEvidence(commit.RunID, "commit-rejected", nrlog.DirLocal, []byte(err.Error()))
		return
	}

	m.mu.Lock()
	delete(m.answered, commit.RunID)
	m.completed[commit.RunID] = true
	m.mu.Unlock()

	if unanimous {
		_ = m.cfg.Engine.ApplyMembership(prop.NewGroup, prop.NewMembers)
	} else {
		m.cfg.Engine.Unfreeze()
	}
	_ = m.logEvidence(commit.RunID, "membership-verdict", nrlog.DirLocal,
		[]byte(fmt.Sprintf("agreed=%t", unanimous)))
}

// isVetoError distinguishes "a member vetoed" (agreed outcome: no change)
// from structural evidence failures (forged/incomplete commits).
func isVetoError(err error) bool {
	return err != nil && strings.Contains(err.Error(), "is a veto")
}

// handleWelcome completes a pending Join at the subject.
func (m *Manager) handleWelcome(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-welcome", nrlog.DirReceived, payload)
		return
	}
	w, err := wire.UnmarshalWelcome(signed.Body)
	if err != nil || w.Sponsor != from {
		_ = m.logEvidence("", "malformed-welcome", nrlog.DirReceived, payload)
		return
	}
	prop, err := wire.UnmarshalConnPropose(w.Commit.Propose.Body)
	if err != nil {
		return
	}
	m.mu.Lock()
	wait, ok := m.joins[prop.ReqID]
	m.mu.Unlock()
	if !ok {
		return
	}
	select {
	case wait.ch <- joinResult{welcome: &w, signed: signed}:
	default:
	}
}

// handleReject completes a pending Join with a rejection (or redirect).
func (m *Manager) handleReject(from string, payload []byte) {
	//b2b:unverified an outsider being rejected cannot yet verify member signatures (no certificates); a forged reject only delays the join (liveness, not safety)
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-reject", nrlog.DirReceived, payload)
		return
	}
	rej, err := wire.UnmarshalReject(signed.Body)
	if err != nil || rej.Sponsor != from {
		_ = m.logEvidence("", "malformed-reject", nrlog.DirReceived, payload)
		return
	}
	_ = m.logEvidence(rej.ReqID, wire.KindReject.String(), nrlog.DirReceived, payload)
	m.mu.Lock()
	wait, ok := m.joins[rej.ReqID]
	m.mu.Unlock()
	if !ok {
		return
	}
	select {
	case wait.ch <- joinResult{rejectBy: rej.Sponsor, reason: rej.Reason}:
	default:
	}
}

// handleDiscRequest is the sponsor's receipt of a disconnection/eviction
// request.
func (m *Manager) handleDiscRequest(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-disc-request", nrlog.DirReceived, payload)
		return
	}
	req, err := wire.UnmarshalDiscRequest(signed.Body)
	if err != nil || req.Proposer != signed.Signer() || req.Proposer != from {
		_ = m.logEvidence("", "malformed-disc-request", nrlog.DirReceived, payload)
		return
	}
	m.mu.Lock()
	if m.seenReqs[req.ReqID] {
		m.mu.Unlock()
		return
	}
	m.seenReqs[req.ReqID] = true
	m.mu.Unlock()
	if err := m.logEvidence(req.ReqID, wire.KindDiscRequest.String(), nrlog.DirReceived, payload); err != nil {
		return
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		return
	}
	if req.Voluntary && (len(req.Evictees) != 1 || req.Evictees[0] != req.Proposer) {
		return // malformed voluntary request
	}

	_, members := m.cfg.Engine.Group()
	sponsor, err := SponsorOf(members, req.Evictees...)
	if err != nil || sponsor != m.cfg.Ident.ID() {
		return // not ours to sponsor; the requester will retry/escalate
	}
	go func() {
		if err := m.sponsorDisconnection(context.Background(), signed, req); err != nil {
			// Sponsorship did not complete (busy with another change, vetoed
			// by a member still catching up, or timed out): forget the
			// request so the subject's periodic re-send gets a fresh run
			// once the group stabilises.
			m.mu.Lock()
			delete(m.seenReqs, req.ReqID)
			m.mu.Unlock()
		}
	}()
}

// sponsorDisconnection drives the disconnection/eviction decision (§4.5.4).
func (m *Manager) sponsorDisconnection(ctx context.Context, reqSigned wire.Signed, req wire.DiscRequest) error {
	ctx, cancel := context.WithTimeout(ctx, m.cfg.ResponseTimeout)
	defer cancel()

	curGroup, members := m.cfg.Engine.Group()
	self := m.cfg.Ident.ID()
	for _, e := range req.Evictees {
		if !contains(members, e) {
			return fmt.Errorf("%w: %s", ErrBadSubject, e)
		}
	}

	m.mu.Lock()
	if len(m.runs) > 0 {
		m.mu.Unlock()
		return ErrBusy
	}
	rnd, err := crypto.Nonce()
	if err != nil {
		m.mu.Unlock()
		return err
	}
	auth, err := crypto.Nonce()
	if err != nil {
		m.mu.Unlock()
		return err
	}
	runID := self + "-disc-" + hex.EncodeToString(rnd[:8])
	newMembers := removeAll(members, req.Evictees)
	prop := wire.DiscPropose{
		RunID:      runID,
		Sponsor:    self,
		Object:     m.cfg.Object,
		ReqID:      req.ReqID,
		Request:    reqSigned,
		CurGroup:   curGroup,
		NewGroup:   tuple.NewGroup(curGroup.Seq+1, rnd, newMembers),
		NewMembers: newMembers,
		Evictees:   append([]string(nil), req.Evictees...),
		Voluntary:  req.Voluntary,
		AuthCommit: crypto.Hash(auth),
	}
	signed := wire.Sign(wire.KindDiscPropose, prop.Marshal(), m.cfg.Ident, m.cfg.TSA)
	// Recipients: remaining members other than the sponsor. The subject of
	// a disconnection does not participate (§4.5.1).
	recips := remove(newMembers, self)
	run := &sponsorRun{
		runID:     runID,
		proposeS:  signed,
		auth:      auth,
		recips:    recips,
		responses: make(map[string]wire.Signed, len(recips)),
		parsed:    make(map[string]wire.GroupRespond, len(recips)),
		done:      make(chan struct{}),
	}
	m.runs[runID] = run
	m.mu.Unlock()

	m.cfg.Engine.Freeze()
	defer func() {
		m.mu.Lock()
		delete(m.runs, runID)
		m.mu.Unlock()
	}()

	if err := m.logEvidence(runID, wire.KindDiscPropose.String(), nrlog.DirSent, signed.Marshal()); err != nil {
		m.cfg.Engine.Unfreeze()
		return err
	}
	for _, r := range recips {
		_ = m.send(ctx, r, wire.KindDiscPropose, signed.Marshal())
	}
	if len(recips) > 0 {
		select {
		case <-run.done:
		case <-ctx.Done():
			m.cfg.Engine.Unfreeze()
			return fmt.Errorf("group: disconnection %s: %w", runID, ctx.Err())
		}
	}

	m.mu.Lock()
	unanimous := true
	commit := wire.GroupCommit{RunID: runID, Sponsor: self, Object: m.cfg.Object, Auth: auth, Propose: signed}
	for _, r := range recips {
		s := run.responses[r]
		commit.Responds = append(commit.Responds, s)
		if resp := run.parsed[r]; !resp.Decision.Accept {
			unanimous = false
		}
	}
	m.mu.Unlock()
	// Voluntary disconnection cannot be vetoed (§4.5.4): responses are
	// receipts; member evaluation always accepts them.

	payload := commit.MarshalDisc()
	if err := m.logEvidence(runID, wire.KindDiscCommit.String(), nrlog.DirSent, payload); err != nil {
		m.cfg.Engine.Unfreeze()
		return err
	}
	for _, r := range recips {
		_ = m.send(ctx, r, wire.KindDiscCommit, payload)
	}

	if !unanimous {
		m.cfg.Engine.Unfreeze()
		return fmt.Errorf("%w: eviction vetoed", ErrRejected)
	}

	if err := m.cfg.Engine.ApplyMembership(prop.NewGroup, newMembers); err != nil {
		return err
	}
	m.mu.Lock()
	m.completed[runID] = true
	m.mu.Unlock()

	if req.Voluntary {
		agreedTuple := m.cfg.Engine.AgreedTuple()
		notice := wire.DiscNotice{
			RunID:       runID,
			Sponsor:     self,
			Object:      m.cfg.Object,
			Members:     newMembers,
			Group:       prop.NewGroup,
			AgreedTuple: agreedTuple,
		}
		nsigned := wire.Sign(wire.KindDiscNotice, notice.Marshal(), m.cfg.Ident, m.cfg.TSA)
		_ = m.logEvidence(runID, wire.KindDiscNotice.String(), nrlog.DirSent, nsigned.Marshal())
		_ = m.send(ctx, req.Proposer, wire.KindDiscNotice, nsigned.Marshal())
	}
	return nil
}

// handleDiscPropose is a remaining member's side of a disconnection.
func (m *Manager) handleDiscPropose(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-disc-propose", nrlog.DirReceived, payload)
		return
	}
	prop, err := wire.UnmarshalDiscPropose(signed.Body)
	if err != nil {
		_ = m.logEvidence("", "malformed-disc-propose", nrlog.DirReceived, payload)
		return
	}
	m.mu.Lock()
	if ar, ok := m.answered[prop.RunID]; ok {
		resp := ar.respond.Marshal()
		m.mu.Unlock()
		_ = m.send(context.Background(), from, wire.KindDiscRespond, resp)
		return
	}
	if m.completed[prop.RunID] {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	if err := m.logEvidence(prop.RunID, wire.KindDiscPropose.String(), nrlog.DirReceived, payload); err != nil {
		return
	}

	decision := m.evaluateDiscPropose(from, signed, prop)
	m.respondToGroupPropose(from, prop.RunID, prop.CurGroup, prop.NewGroup, prop.NewMembers,
		strings.Join(prop.Evictees, ","), signed, decision, false)
}

func (m *Manager) evaluateDiscPropose(from string, signed wire.Signed, prop wire.DiscPropose) wire.Decision {
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		return wire.Rejected(fmt.Sprintf("sponsor signature: %v", err))
	}
	if signed.Signer() != prop.Sponsor || from != prop.Sponsor {
		return wire.Rejected("sponsor identity mismatch")
	}
	curGroup, members := m.cfg.Engine.Group()
	sponsor, err := SponsorOf(members, prop.Evictees...)
	if err != nil || prop.Sponsor != sponsor {
		return wire.Rejected("proposer is not the legitimate sponsor")
	}
	if prop.CurGroup != curGroup {
		return wire.Rejected("inconsistent group identifier")
	}
	for _, e := range prop.Evictees {
		if !contains(members, e) {
			return wire.Rejected("evictee is not a member")
		}
	}
	if !equalStrings(prop.NewMembers, removeAll(members, prop.Evictees)) {
		return wire.Rejected("proposed membership inconsistent with evictees")
	}
	if !prop.NewGroup.MatchesMembers(prop.NewMembers) {
		return wire.Rejected("new group tuple does not match proposed membership")
	}
	if prop.NewGroup.Seq <= curGroup.Seq {
		return wire.Rejected("group sequence did not advance")
	}
	// Verify the embedded request.
	if err := prop.Request.Verify(m.cfg.Verifier); err != nil {
		return wire.Rejected("embedded request signature rejected")
	}
	req, err := wire.UnmarshalDiscRequest(prop.Request.Body)
	if err != nil || req.ReqID != prop.ReqID || req.Voluntary != prop.Voluntary {
		return wire.Rejected("embedded request inconsistent with proposal")
	}
	if prop.Voluntary {
		if len(prop.Evictees) != 1 || prop.Evictees[0] != req.Proposer {
			return wire.Rejected("voluntary disconnection subject mismatch")
		}
		// Voluntary disconnection cannot be vetoed: this response is a
		// receipt (§4.5.4).
		return wire.Accepted
	}
	return m.cfg.Validator.ValidateDisconnect(strings.Join(prop.Evictees, ","), false)
}

// handleDiscNotice completes a pending Leave at the departed subject.
func (m *Manager) handleDiscNotice(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = m.logEvidence("", "malformed-disc-notice", nrlog.DirReceived, payload)
		return
	}
	notice, err := wire.UnmarshalDiscNotice(signed.Body)
	if err != nil || notice.Sponsor != from {
		_ = m.logEvidence("", "malformed-disc-notice", nrlog.DirReceived, payload)
		return
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		return
	}
	// A subject has at most one outstanding leave; deliver to all waiters.
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ch := range m.leaves {
		select {
		case ch <- notice:
		default:
		}
	}
}

func remove(ss []string, drop string) []string {
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
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
