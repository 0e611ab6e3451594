// Package group implements the connection and disconnection protocols that
// manage membership of the participant set for object coordination (paper
// §4.5). The protocols ensure that at membership changes all parties hold a
// consistent, non-repudiable view of both the membership and the agreed
// object state.
//
// Roles (§4.5.1): the subject is the joining/leaving party; the sponsor
// coordinates the group's decision. The sponsor of a connection request is
// the most recently joined member; the sponsor of a disconnection is the
// most recently joined member that is not being disconnected. The sponsor
// also blocks new coordination requests while a membership change is being
// decided.
package group

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/tuple"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

// Errors returned by the manager.
var (
	ErrRejected    = errors.New("group: request rejected")
	ErrBusy        = errors.New("group: a membership change is already in progress")
	ErrNotMember   = errors.New("group: not a member")
	ErrBadSubject  = errors.New("group: invalid subject")
	ErrBadEvidence = errors.New("group: membership evidence failed verification")
)

// errNotAgreed marks a run's verdict, not a verification failure: a member
// vetoed or a response is missing, so membership stays as it was.
var errNotAgreed = errors.New("group: membership change not agreed")

// redirectPrefix marks a Reject that names the legitimate sponsor, so a
// subject that contacted the wrong member can retry (§4.5.1: any member can
// identify the sponsor and provide this information to the subject).
const redirectPrefix = "redirect:"

// Validator is the application upcall for membership decisions (the
// B2BObject validateConnect/validateDisconnect operations of §5).
type Validator interface {
	ValidateConnect(subject string) wire.Decision
	ValidateDisconnect(subject string, voluntary bool) wire.Decision
}

// AcceptAll is a Validator admitting every request.
type AcceptAll struct{}

// ValidateConnect accepts.
func (AcceptAll) ValidateConnect(string) wire.Decision { return wire.Accepted }

// ValidateDisconnect accepts.
func (AcceptAll) ValidateDisconnect(string, bool) wire.Decision { return wire.Accepted }

// Config assembles a manager's dependencies.
type Config struct {
	Ident     *crypto.Identity
	Object    string
	Verifier  *crypto.Verifier
	TSA       wire.Stamper
	Conn      coord.Conn
	Log       nrlog.Log
	Clock     clock.Clock
	Engine    *coord.Engine
	Validator Validator
	// ResponseTimeout bounds the sponsor's wait for member responses in a
	// single membership run (default 10s).
	ResponseTimeout time.Duration
	// Xfer is the state-transfer plane (required). A Welcome carries no
	// state: the subject fetches it as a transfer session from the sponsor
	// (or any member, on failover), verified against the
	// evidence-authenticated agreed tuple.
	Xfer *xfer.Manager
	// Prekeys, when set, is the relay plane's prekey directory
	// (relay.Directory): the sponsor snapshots it into each Welcome so the
	// joiner can immediately seal relay deposits to every member, and the
	// joiner learns the carried publications on adoption — each entry is
	// individually signed by the member it names, so nothing here extends
	// the sponsor's authority.
	Prekeys PrekeyDirectory
}

// PrekeyDirectory is the slice of the relay plane's prekey directory the
// membership protocol touches (satisfied by relay.Directory).
type PrekeyDirectory interface {
	// Snapshot returns every retained signed prekey publication, verbatim.
	Snapshot() [][]byte
	// Learn verifies and admits one signed publication; stale epochs
	// return (false, nil) so carrying old Welcomes around stays harmless.
	Learn(raw []byte) (bool, error)
}

// sponsorRun tracks the sponsor's one in-flight membership run.
type sponsorRun struct {
	ch        change
	recips    []string
	responses map[string]wire.Signed
	parsed    map[string]wire.GroupRespond
	done      chan struct{}
}

// memberRun is this member's recorded answer to a run, pending its commit.
type memberRun struct {
	sponsor string
	respond wire.Signed
}

// joinWait is the subject side of a pending connection request.
type joinWait struct {
	reqID string
	ch    chan joinResult
}

type joinResult struct {
	welcome  *wire.Welcome
	signed   wire.Signed // the sponsor's envelope around welcome, verified in adoptWelcome
	rejectBy string
	reason   string
	err      error
}

// Manager runs the membership protocols for one object's coordination group.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	run       *sponsorRun // the run this member sponsors, if any
	answered  map[string]*memberRun
	completed map[string]bool
	joins     map[string]*joinWait // by reqID
	leaves    map[chan wire.DiscNotice]bool
	seenReqs  map[string]bool
}

// New creates a membership manager bound to a coordination engine.
func New(cfg Config) (*Manager, error) {
	if cfg.Ident == nil || cfg.Conn == nil || cfg.Log == nil || cfg.Clock == nil ||
		cfg.Engine == nil || cfg.Validator == nil || cfg.Verifier == nil || cfg.Xfer == nil {
		return nil, errors.New("group: incomplete config")
	}
	if cfg.ResponseTimeout == 0 {
		cfg.ResponseTimeout = 10 * time.Second
	}
	return &Manager{
		cfg:       cfg,
		answered:  make(map[string]*memberRun),
		completed: make(map[string]bool),
		joins:     make(map[string]*joinWait),
		leaves:    make(map[chan wire.DiscNotice]bool),
		seenReqs:  make(map[string]bool),
	}, nil
}

// SponsorOf returns the sponsor for a request excluding the given subjects
// (empty for connection requests): the most recently joined member not being
// disconnected (§4.5.1).
func SponsorOf(joinOrdered []string, excluding ...string) (string, error) {
	excluded := make(map[string]bool, len(excluding))
	for _, e := range excluding {
		excluded[e] = true
	}
	for i := len(joinOrdered) - 1; i >= 0; i-- {
		if !excluded[joinOrdered[i]] {
			return joinOrdered[i], nil
		}
	}
	return "", errors.New("group: no eligible sponsor")
}

// Join runs the subject side of the connection protocol (§4.5.3): request
// admission via contact (retrying on redirect), wait for the Welcome (or
// rejection), verify the evidence, and adopt membership and agreed state
// into the engine.
func (m *Manager) Join(ctx context.Context, contact string) error {
	for {
		res, err := m.joinOnce(ctx, contact)
		if err != nil {
			return err
		}
		if res.welcome != nil {
			return m.adoptWelcome(ctx, res.welcome, res.signed)
		}
		if strings.HasPrefix(res.reason, redirectPrefix) {
			contact = strings.TrimPrefix(res.reason, redirectPrefix)
			continue
		}
		return fmt.Errorf("%w by %s: %s", ErrRejected, res.rejectBy, res.reason)
	}
}

func (m *Manager) joinOnce(ctx context.Context, contact string) (joinResult, error) {
	nonce, err := crypto.Nonce()
	if err != nil {
		return joinResult{}, err
	}
	reqID := m.cfg.Ident.ID() + "-join-" + hex.EncodeToString(nonce[:8])
	req := wire.ConnRequest{
		ReqID:       reqID,
		Object:      m.cfg.Object,
		Subject:     m.cfg.Ident.ID(),
		SubjectCert: m.cfg.Ident.Certificate(),
		Nonce:       nonce,
	}
	signed := wire.Sign(wire.KindConnRequest, req.Marshal(), m.cfg.Ident, m.cfg.TSA)

	wait := &joinWait{reqID: reqID, ch: make(chan joinResult, 1)}
	m.mu.Lock()
	m.joins[reqID] = wait
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.joins, reqID)
		m.mu.Unlock()
	}()

	if err := m.logEvidence(reqID, wire.KindConnRequest.String(), nrlog.DirSent, signed.Marshal()); err != nil {
		return joinResult{}, err
	}
	if err := m.send(ctx, contact, wire.KindConnRequest, signed.Marshal()); err != nil {
		return joinResult{}, err
	}
	select {
	case res := <-wait.ch:
		return res, res.err
	case <-ctx.Done():
		return joinResult{}, fmt.Errorf("group: join request %s: %w", reqID, ctx.Err())
	}
}

// adoptWelcome verifies the welcome evidence and installs membership+state.
// The welcome carries no state: the subject fetches it through the transfer
// plane — from the sponsor, failing over to any other member — and verifies
// the received bytes against the agreed tuple the membership evidence has
// already authenticated.
func (m *Manager) adoptWelcome(ctx context.Context, w *wire.Welcome, signed wire.Signed) error {
	// Register the members' certificates first so signatures verify.
	for _, cert := range w.MemberCerts {
		if err := m.cfg.Verifier.AddCertificate(cert); err != nil {
			return fmt.Errorf("%w: member certificate %s: %v", ErrBadEvidence, cert.Subject, err)
		}
	}
	// The outer envelope must carry the sponsor's own signature: without
	// this check any member whose certificate appears in MemberCerts could
	// replay a captured Welcome body under its own wrapper.
	if err := signed.Verify(m.cfg.Verifier); err != nil {
		return fmt.Errorf("%w: welcome envelope: %v", ErrBadEvidence, err)
	}
	if signed.Signer() != w.Sponsor {
		return fmt.Errorf("%w: welcome signed by %s, not sponsor %s", ErrBadEvidence, signed.Signer(), w.Sponsor)
	}
	// The commit must verify exactly as members verified it, and be agreed.
	ch, resps, err := verifyGroupCommitEvidence(m.cfg.Verifier, wire.KindConnCommit, w.Commit)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadEvidence, err)
	}
	if ch.subjects[0] != m.cfg.Ident.ID() {
		return fmt.Errorf("%w: welcome for foreign subject %s", ErrBadEvidence, ch.subjects[0])
	}
	if ch.newGroup != w.Group {
		return fmt.Errorf("%w: group tuple mismatch", ErrBadEvidence)
	}
	if !w.Group.MatchesMembers(w.Members) {
		return fmt.Errorf("%w: membership does not match group tuple", ErrBadEvidence)
	}
	// Every member's signed response asserts its agreed-state tuple: all
	// must match the tuple the state is fetched against (§4.5.3).
	for _, resp := range resps {
		if resp.Agreed != w.AgreedTuple {
			return fmt.Errorf("%w: member %s holds different agreed state", ErrBadEvidence, resp.Responder)
		}
	}
	if err := m.logEvidence(w.RunID, wire.KindWelcome.String(), nrlog.DirReceived, w.Marshal()); err != nil {
		return err
	}
	if m.cfg.Prekeys != nil {
		// Each publication is individually signed by the member it names;
		// Learn verifies and skips anything stale or forged, so a bad entry
		// cannot poison the join.
		for _, raw := range w.Prekeys {
			_, _ = m.cfg.Prekeys.Learn(raw)
		}
	}
	// Sponsor first; every other member already holds the agreed state and
	// serves as failover if the sponsor dies mid-transfer.
	peers := []string{w.Sponsor}
	for _, p := range w.Members {
		if p != w.Sponsor && p != m.cfg.Ident.ID() {
			peers = append(peers, p)
		}
	}
	res, err := m.cfg.Xfer.FetchAny(ctx, peers, tuple.State{}, w.AgreedTuple)
	if err != nil {
		return fmt.Errorf("group: fetching welcome state: %w", err)
	}
	if res.Group != w.Group {
		// A transfer may legitimately reach a newer agreed STATE than the
		// Welcome's (coordination resumed behind us), but never a different
		// MEMBERSHIP: adopting the Welcome's member list against a later
		// group's state would leave this party coordinating with a view
		// nobody else holds. Fail the join; the subject re-requests
		// admission under the new group.
		return fmt.Errorf("%w: group changed during state transfer; rejoin", ErrBadEvidence)
	}
	return m.cfg.Engine.AdoptMembership(w.Group, w.Members, res.Agreed, res.State)
}

// Leave runs the subject side of voluntary disconnection (§4.5.4).
func (m *Manager) Leave(ctx context.Context) error {
	self := m.cfg.Ident.ID()
	if _, members := m.cfg.Engine.Group(); !contains(members, self) {
		return ErrNotMember
	}
	ch := make(chan wire.DiscNotice, 1)
	m.mu.Lock()
	m.leaves[ch] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.leaves, ch)
		m.mu.Unlock()
	}()
	notice, err := m.requestDeparture(ctx, []string{self}, ch)
	if err != nil {
		return err
	}
	// Evidence of the membership and agreed state at departure.
	if err := m.logEvidence(notice.RunID, wire.KindDiscNotice.String(), nrlog.DirReceived, notice.Marshal()); err != nil {
		return err
	}
	// The departed member leaves the coordination group; its engine resets
	// so it can reconnect later (evidence is retained).
	m.cfg.Engine.Reset()
	return nil
}

// Evict proposes the eviction of one or more members (§4.5.4, including the
// evictee-subset extension) and blocks until the eviction is reflected in
// the local membership view or ctx expires — a vetoed or perpetually-refused
// eviction therefore surfaces as ctx expiry, since membership simply never
// changes.
func (m *Manager) Evict(ctx context.Context, evictees ...string) error {
	if len(evictees) == 0 {
		return ErrBadSubject
	}
	_, members := m.cfg.Engine.Group()
	self := m.cfg.Ident.ID()
	if !contains(members, self) {
		return ErrNotMember
	}
	for _, e := range evictees {
		if !contains(members, e) {
			return fmt.Errorf("%w: %s is not a member", ErrBadSubject, e)
		}
		if e == self {
			return fmt.Errorf("%w: use Leave for voluntary disconnection", ErrBadSubject)
		}
	}
	_, err := m.requestDeparture(ctx, evictees, nil)
	return err
}

// requestDeparture is the requester side of a disconnection, shared by Leave
// and Evict: it signs the request and sends it to the sponsor — or, when
// this member is the sponsor, drives the run itself (§4.5.4: request step
// omitted) — until the departure completes or ctx expires. A leave (notices
// non-nil) completes when the sponsor's DiscNotice arrives there; an
// eviction completes when no evictee is left in the local membership view,
// re-checked at every engine transition (Engine.Watch). The sponsor
// silently refuses requests while another membership change is deciding and
// sends no completion signal back to an evicting proposer, so the request
// is re-sent periodically, and a sponsor change (e.g. our own just-applied
// membership commit rotating sponsorship) re-sends at once.
func (m *Manager) requestDeparture(ctx context.Context, evictees []string, notices <-chan wire.DiscNotice) (wire.DiscNotice, error) {
	voluntary := notices != nil
	_, members := m.cfg.Engine.Group()
	sponsor, err := SponsorOf(members, evictees...)
	if err != nil {
		return wire.DiscNotice{}, err
	}
	nonce, err := crypto.Nonce()
	if err != nil {
		return wire.DiscNotice{}, err
	}
	self := m.cfg.Ident.ID()
	op := "-evict-"
	if voluntary {
		op = "-leave-"
	}
	req := wire.DiscRequest{
		ReqID:     self + op + hex.EncodeToString(nonce[:8]),
		Object:    m.cfg.Object,
		Proposer:  self,
		Voluntary: voluntary,
		Evictees:  append([]string(nil), evictees...),
		Nonce:     nonce,
	}
	signed := wire.Sign(wire.KindDiscRequest, req.Marshal(), m.cfg.Ident, m.cfg.TSA)
	if err := m.logEvidence(req.ReqID, wire.KindDiscRequest.String(), nrlog.DirSent, signed.Marshal()); err != nil {
		return wire.DiscNotice{}, err
	}
	dispatch := func(to string) {
		if to == self {
			_ = m.depart(ctx, signed, req) // busy, vetoed or timed out: keep trying until ctx expires
			return
		}
		_ = m.send(ctx, to, wire.KindDiscRequest, signed.Marshal())
	}
	resend := m.cfg.Clock.NewTicker(m.cfg.ResponseTimeout / 20)
	defer resend.Stop()
	dispatch(sponsor)
	for {
		changed := m.cfg.Engine.Watch()
		_, members = m.cfg.Engine.Group()
		if !voluntary && !slices.ContainsFunc(evictees, func(e string) bool { return contains(members, e) }) {
			return wire.DiscNotice{}, nil
		}
		if s, err := SponsorOf(members, evictees...); err == nil && s != sponsor {
			sponsor = s
			dispatch(sponsor)
			continue
		}
		select {
		case notice := <-notices:
			return notice, nil
		case <-changed:
		case <-resend.C:
			dispatch(sponsor)
		case <-ctx.Done():
			return wire.DiscNotice{}, fmt.Errorf("group: disconnection request %s: %w", req.ReqID, ctx.Err())
		}
	}
}

// contains reports membership of s in ss.
func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func (m *Manager) logEvidence(runID, kind string, dir nrlog.Direction, payload []byte) error {
	_, err := m.cfg.Log.Append(runID, m.cfg.Object, kind, m.cfg.Ident.ID(), dir, payload)
	if err != nil {
		return fmt.Errorf("group: recording evidence: %w", err)
	}
	return nil
}

func (m *Manager) send(ctx context.Context, to string, kind wire.Kind, payload []byte) error {
	n, err := crypto.Nonce()
	if err != nil {
		return err
	}
	env := wire.Envelope{
		MsgID:   hex.EncodeToString(n[:12]),
		From:    m.cfg.Ident.ID(),
		To:      to,
		Object:  m.cfg.Object,
		Kind:    kind,
		Payload: payload,
	}
	return m.cfg.Conn.Send(ctx, to, env.Marshal())
}
