package group

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// change is one membership run (§4.5): connection and disconnection are the
// same sponsor-coordinated propose → respond → commit over a CurGroup →
// NewGroup transition, and differ only in their wire kinds and in the
// op-specific checks a member applies. It is decoded once from a signed
// conn-propose or disc-propose.
type change struct {
	runID      string
	sponsor    string
	reqID      string
	request    wire.Signed // the requester's signed request, as evidence
	curGroup   tuple.Group
	newGroup   tuple.Group
	newMembers []string
	subjects   []string            // the joiner, or the departing members
	cert       *crypto.Certificate // the joiner's certificate; nil for a disconnection
	voluntary  bool
	authCommit [32]byte

	propose, respond, commit wire.Kind
}

// decodeChange parses a signed membership proposal of either kind.
//
//b2b:unverified a parser: every caller verifies s before acting on the change
func decodeChange(s wire.Signed) (change, error) {
	switch s.Kind {
	case wire.KindConnPropose:
		p, err := wire.UnmarshalConnPropose(s.Body)
		if err != nil {
			return change{}, err
		}
		return change{
			runID: p.RunID, sponsor: p.Sponsor, reqID: p.ReqID, request: p.Request,
			curGroup: p.CurGroup, newGroup: p.NewGroup, newMembers: p.NewMembers,
			subjects: []string{p.Subject}, cert: &p.SubjectCert, authCommit: p.AuthCommit,
			propose: wire.KindConnPropose, respond: wire.KindConnRespond, commit: wire.KindConnCommit,
		}, nil
	case wire.KindDiscPropose:
		p, err := wire.UnmarshalDiscPropose(s.Body)
		if err != nil {
			return change{}, err
		}
		return change{
			runID: p.RunID, sponsor: p.Sponsor, reqID: p.ReqID, request: p.Request,
			curGroup: p.CurGroup, newGroup: p.NewGroup, newMembers: p.NewMembers,
			subjects: p.Evictees, voluntary: p.Voluntary, authCommit: p.AuthCommit,
			propose: wire.KindDiscPropose, respond: wire.KindDiscRespond, commit: wire.KindDiscCommit,
		}, nil
	}
	return change{}, fmt.Errorf("group: %s is not a membership proposal", s.Kind)
}

// recipients is the run's decision set: the members that stay in the group,
// other than the sponsor. A joiner has no say in its own admission and a
// departing member none in its departure (§4.5.1).
func (c change) recipients() []string {
	return removeAll(c.newMembers, append([]string{c.sponsor}, c.subjects...))
}

func (c change) respondBody(r wire.GroupRespond) []byte {
	if c.respond == wire.KindConnRespond {
		return r.MarshalConn()
	}
	return r.MarshalDisc()
}

func (c change) commitBody(gc wire.GroupCommit) []byte {
	if c.commit == wire.KindConnCommit {
		return gc.MarshalConn()
	}
	return gc.MarshalDisc()
}

// agreement is the run's verdict on its responses (§4.5.3): agreed only when
// every recipient has answered and every answer accepts. Otherwise the error
// wraps errNotAgreed. Callers have already checked that each response is a
// distinct recipient's.
func (c change) agreement(resps []wire.GroupRespond) error {
	answered := make(map[string]bool, len(resps))
	for _, r := range resps {
		if !r.Decision.Accept {
			return fmt.Errorf("%w: %s vetoed", errNotAgreed, r.Responder)
		}
		answered[r.Responder] = true
	}
	for _, r := range c.recipients() {
		if !answered[r] {
			return fmt.Errorf("%w: no response from %s", errNotAgreed, r)
		}
	}
	return nil
}

// checkResponse checks that a signed response belongs to the run: its kind,
// its signer, its run and transition, and a recipient as its responder.
//
//b2b:unverified both callers verify s before calling
func (c change) checkResponse(s wire.Signed, resp wire.GroupRespond) error {
	switch {
	case s.Kind != c.respond:
		return fmt.Errorf("%s in a %s run", s.Kind, c.propose)
	case resp.Responder != s.Signer():
		return errors.New("response signer mismatch")
	case resp.RunID != c.runID || resp.NewGroup != c.newGroup:
		return errors.New("response belongs to another run")
	case !contains(c.recipients(), resp.Responder):
		return fmt.Errorf("response from %s, not a recipient", resp.Responder)
	}
	return nil
}

//b2b:unverified a parser: every caller verifies s before trusting the response
func decodeRespond(s wire.Signed) (wire.GroupRespond, error) {
	if s.Kind == wire.KindConnRespond {
		return wire.UnmarshalConnRespond(s.Body)
	}
	return wire.UnmarshalDiscRespond(s.Body)
}

// drive runs one membership change at the sponsor (§4.5.3, §4.5.4): reserve
// the run slot, freeze, log and send the propose, wait for every
// recipient's response or the timeout, log and send the commit — to every
// recipient, whether agreed or not (§4.5.3: message 4 goes to all members),
// so members that accepted and froze always learn the verdict — then apply
// the new membership or unfreeze. build signs the op's propose for a run id,
// its new group tuple and the authenticator commitment. It returns the
// change and its commit; a run that was not agreed returns an error
// wrapping errNotAgreed.
func (m *Manager) drive(ctx context.Context, op string, cur tuple.Group, newMembers []string,
	build func(runID string, next tuple.Group, authCommit [32]byte) wire.Signed) (change, wire.GroupCommit, error) {
	rnd, err := crypto.Nonce()
	if err != nil {
		return change{}, wire.GroupCommit{}, err
	}
	auth, err := crypto.Nonce()
	if err != nil {
		return change{}, wire.GroupCommit{}, err
	}
	self := m.cfg.Ident.ID()
	runID := self + "-" + op + "-" + hex.EncodeToString(rnd[:8])

	// Reserve the run slot before any message leaves.
	m.mu.Lock()
	if m.run != nil {
		m.mu.Unlock()
		return change{}, wire.GroupCommit{}, ErrBusy
	}
	signed := build(runID, tuple.NewGroup(cur.Seq+1, rnd, newMembers), crypto.Hash(auth))
	ch, err := decodeChange(signed)
	if err != nil {
		m.mu.Unlock()
		return change{}, wire.GroupCommit{}, err
	}
	run := &sponsorRun{
		ch:        ch,
		recips:    ch.recipients(),
		responses: make(map[string]wire.Signed),
		parsed:    make(map[string]wire.GroupRespond),
		done:      make(chan struct{}),
	}
	m.run = run
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.run = nil
		m.mu.Unlock()
	}()

	// Block state coordination while the membership change is pending
	// (sponsor concurrency-control duty, §4.5.1).
	m.cfg.Engine.Freeze()
	if err := m.logEvidence(runID, ch.propose.String(), nrlog.DirSent, signed.Marshal()); err != nil {
		m.cfg.Engine.Unfreeze()
		return ch, wire.GroupCommit{}, err
	}
	for _, r := range run.recips {
		_ = m.send(ctx, r, ch.propose, signed.Marshal())
	}
	if len(run.recips) > 0 {
		wait, cancel := context.WithTimeout(ctx, m.cfg.ResponseTimeout)
		select {
		case <-run.done:
		case <-wait.Done():
		}
		cancel()
	}

	commit := wire.GroupCommit{RunID: runID, Sponsor: self, Object: m.cfg.Object, Auth: auth, Propose: signed}
	var resps []wire.GroupRespond
	m.mu.Lock()
	for _, r := range run.recips {
		if s, ok := run.responses[r]; ok {
			commit.Responds = append(commit.Responds, s)
			resps = append(resps, run.parsed[r])
		}
	}
	m.mu.Unlock()
	payload := ch.commitBody(commit)
	if err := m.logEvidence(runID, ch.commit.String(), nrlog.DirSent, payload); err != nil {
		m.cfg.Engine.Unfreeze()
		return ch, commit, err
	}
	for _, r := range run.recips {
		_ = m.send(ctx, r, ch.commit, payload)
	}
	if err := ch.agreement(resps); err != nil {
		m.cfg.Engine.Unfreeze()
		return ch, commit, err
	}
	return ch, commit, m.cfg.Engine.ApplyMembership(ch.newGroup, ch.newMembers)
}

// handlePropose is a member's side of a membership run: evaluate the
// sponsor's propose once, sign and send the decision, and freeze local
// coordination until the commit if it accepts. A retried propose gets the
// recorded response again.
func (m *Manager) handlePropose(from string, signed wire.Signed, payload []byte) error {
	ch, err := decodeChange(signed)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if ar, ok := m.answered[ch.runID]; ok {
		m.mu.Unlock()
		_ = m.send(context.Background(), from, ar.respond.Kind, ar.respond.Marshal())
		return nil
	}
	done := m.completed[ch.runID]
	m.mu.Unlock()
	if done {
		return nil
	}
	if err := m.logEvidence(ch.runID, ch.propose.String(), nrlog.DirReceived, payload); err != nil {
		return nil
	}

	decision := m.evaluate(from, signed, ch)
	resp := wire.GroupRespond{
		RunID:     ch.runID,
		Responder: m.cfg.Ident.ID(),
		Object:    m.cfg.Object,
		CurGroup:  ch.curGroup,
		NewGroup:  ch.newGroup,
		Agreed:    m.cfg.Engine.AgreedTuple(),
		Decision:  decision,
	}
	rs := wire.Sign(ch.respond, ch.respondBody(resp), m.cfg.Ident, m.cfg.TSA)
	m.mu.Lock()
	m.answered[ch.runID] = &memberRun{sponsor: from, respond: rs}
	m.mu.Unlock()
	if decision.Accept {
		m.cfg.Engine.Freeze()
	}
	_ = m.logEvidence(ch.runID, ch.respond.String(), nrlog.DirSent, rs.Marshal())
	_ = m.send(context.Background(), from, ch.respond, rs.Marshal())
	return nil
}

// evaluate is a member's decision on a membership proposal: the checks both
// operations share, then the op-specific ones and the application's policy.
func (m *Manager) evaluate(from string, signed wire.Signed, ch change) wire.Decision {
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		return wire.Rejected(fmt.Sprintf("sponsor signature: %v", err))
	}
	if signed.Signer() != ch.sponsor || from != ch.sponsor {
		return wire.Rejected("sponsor identity mismatch")
	}
	curGroup, members := m.cfg.Engine.Group()
	if sponsor, err := SponsorOf(members, ch.subjects...); err != nil || ch.sponsor != sponsor {
		// Only the legitimate sponsor may coordinate membership (§4.5.1).
		return wire.Rejected("proposer is not the legitimate sponsor")
	}
	if ch.curGroup != curGroup {
		// Inconsistent group identifiers invalidate the proposal (§4.5.2).
		return wire.Rejected("inconsistent group identifier")
	}
	if !ch.newGroup.MatchesMembers(ch.newMembers) {
		return wire.Rejected("new group tuple does not match proposed membership")
	}
	if ch.newGroup.Seq <= curGroup.Seq {
		return wire.Rejected("group sequence did not advance")
	}
	if ch.cert != nil && m.cfg.Verifier.AddCertificate(*ch.cert) != nil {
		return wire.Rejected("subject certificate rejected")
	}
	if err := ch.request.Verify(m.cfg.Verifier); err != nil {
		return wire.Rejected("embedded request signature rejected")
	}
	if ch.propose == wire.KindConnPropose {
		return m.evaluateConnect(ch, members)
	}
	return m.evaluateDisconnect(ch, members)
}

func (m *Manager) evaluateConnect(ch change, members []string) wire.Decision {
	subject := ch.subjects[0]
	if contains(members, subject) {
		return wire.Rejected("subject is already a member")
	}
	if !equalStrings(ch.newMembers, append(members, subject)) {
		return wire.Rejected("proposed membership is not current members plus subject")
	}
	req, err := wire.UnmarshalConnRequest(ch.request.Body)
	if err != nil || req.Subject != subject || req.ReqID != ch.reqID {
		return wire.Rejected("embedded request inconsistent with proposal")
	}
	return m.cfg.Validator.ValidateConnect(subject)
}

func (m *Manager) evaluateDisconnect(ch change, members []string) wire.Decision {
	for _, e := range ch.subjects {
		if !contains(members, e) {
			return wire.Rejected("evictee is not a member")
		}
	}
	if !equalStrings(ch.newMembers, removeAll(members, ch.subjects)) {
		return wire.Rejected("proposed membership inconsistent with evictees")
	}
	req, err := wire.UnmarshalDiscRequest(ch.request.Body)
	if err != nil || req.ReqID != ch.reqID || req.Voluntary != ch.voluntary {
		return wire.Rejected("embedded request inconsistent with proposal")
	}
	if ch.voluntary {
		if len(ch.subjects) != 1 || ch.subjects[0] != req.Proposer {
			return wire.Rejected("voluntary disconnection subject mismatch")
		}
		// Voluntary disconnection cannot be vetoed: this response is a
		// receipt (§4.5.4).
		return wire.Accepted
	}
	return m.cfg.Validator.ValidateDisconnect(strings.Join(ch.subjects, ","), false)
}

// handleRespond is the sponsor's collection of member decisions.
func (m *Manager) handleRespond(from string, signed wire.Signed, payload []byte) error {
	resp, err := decodeRespond(signed)
	if err != nil {
		return err
	}
	if err := m.logEvidence(resp.RunID, signed.Kind.String(), nrlog.DirReceived, payload); err != nil {
		return nil
	}
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		_ = m.logEvidence(resp.RunID, "unverifiable-group-respond", nrlog.DirLocal, []byte(err.Error()))
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	run := m.run
	if run == nil || from != resp.Responder || run.ch.checkResponse(signed, resp) != nil {
		return nil
	}
	if _, dup := run.responses[resp.Responder]; dup {
		return nil
	}
	run.responses[resp.Responder] = signed
	run.parsed[resp.Responder] = resp
	if len(run.responses) == len(run.recips) {
		close(run.done)
	}
	return nil
}

// handleCommit applies the sponsor's verdict on a run this member answered.
func (m *Manager) handleCommit(from string, kind wire.Kind, payload []byte) error {
	unmarshal := wire.UnmarshalConnCommit
	if kind == wire.KindDiscCommit {
		unmarshal = wire.UnmarshalDiscCommit
	}
	commit, err := unmarshal(payload)
	if err != nil {
		return err
	}
	m.mu.Lock()
	ar, ok := m.answered[commit.RunID]
	done := m.completed[commit.RunID]
	m.mu.Unlock()
	if done {
		return nil
	}
	if !ok {
		_ = m.logEvidence(commit.RunID, "commit-unknown-run", nrlog.DirReceived, payload)
		return nil
	}
	if err := m.logEvidence(commit.RunID, kind.String(), nrlog.DirReceived, payload); err != nil {
		return nil
	}
	if from != ar.sponsor || commit.Sponsor != ar.sponsor {
		_ = m.logEvidence(commit.RunID, "commit-wrong-sponsor", nrlog.DirLocal, []byte(from))
		return nil
	}
	ch, _, err := verifyGroupCommitEvidence(m.cfg.Verifier, kind, commit)
	agreed := err == nil
	if err != nil && !errors.Is(err, errNotAgreed) {
		// Structural inconsistency, not a verdict: ignore the commit and
		// keep the evidence (a genuine one may still arrive).
		_ = m.logEvidence(commit.RunID, "commit-rejected", nrlog.DirLocal, []byte(err.Error()))
		return nil
	}

	m.mu.Lock()
	delete(m.answered, commit.RunID)
	m.completed[commit.RunID] = true
	m.mu.Unlock()
	if agreed {
		_ = m.cfg.Engine.ApplyMembership(ch.newGroup, ch.newMembers)
	} else {
		m.cfg.Engine.Unfreeze()
	}
	_ = m.logEvidence(commit.RunID, "membership-verdict", nrlog.DirLocal, []byte(fmt.Sprintf("agreed=%t", agreed)))
	return nil
}

// verifyGroupCommitEvidence checks a membership commit of the given kind, for
// members and for a welcomed subject alike: the embedded propose's
// signature, the authenticator against the sponsor's commitment, and every
// response's signature and membership of the run. It returns the change
// and the responses. A commit that verifies but is vetoed or lacks a
// recipient's response returns an error wrapping errNotAgreed.
func verifyGroupCommitEvidence(v *crypto.Verifier, kind wire.Kind, c wire.GroupCommit) (change, []wire.GroupRespond, error) {
	if err := c.Propose.Verify(v); err != nil {
		return change{}, nil, fmt.Errorf("embedded proposal: %w", err)
	}
	ch, err := decodeChange(c.Propose)
	if err != nil {
		return change{}, nil, err
	}
	if ch.commit != kind {
		return change{}, nil, fmt.Errorf("%s carries a %s", kind, ch.propose)
	}
	if ch.runID != c.RunID || ch.sponsor != c.Sponsor {
		return change{}, nil, errors.New("commit does not match embedded proposal")
	}
	if crypto.Hash(c.Auth) != ch.authCommit {
		return change{}, nil, errors.New("authenticator does not match commitment")
	}
	resps := make([]wire.GroupRespond, 0, len(c.Responds))
	seen := make(map[string]bool, len(c.Responds))
	for _, s := range c.Responds {
		if err := s.Verify(v); err != nil {
			return change{}, nil, fmt.Errorf("embedded response: %w", err)
		}
		resp, err := decodeRespond(s)
		if err == nil {
			err = ch.checkResponse(s, resp)
		}
		if err != nil {
			return change{}, nil, err
		}
		if seen[resp.Responder] {
			return change{}, nil, errors.New("duplicate responder")
		}
		seen[resp.Responder] = true
		resps = append(resps, resp)
	}
	return ch, resps, ch.agreement(resps)
}
