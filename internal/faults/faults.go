// Package faults implements the misbehaviour and intruder models of the
// paper's protocol analysis (§4.4): Byzantine group members that omit
// messages, send selectively, propose null transitions, replay prior runs or
// forge commits; and a Dolev-Yao network intruder that observes, removes,
// delays, replays and modifies the unsigned parts of messages in transit.
//
// The package's attack tests drive these attacks against honest
// participants and verify the paper's guarantee: no attack installs invalid
// state at a correctly behaving party, and evidence of misbehaviour is
// generated.
package faults

import (
	"bytes"
	"context"
	"encoding/hex"
	"sync"

	"b2b/internal/coord"
	"b2b/internal/crypto"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// Action tells the interceptor what to do with an outbound message.
type Action uint8

// Interceptor actions.
const (
	Pass Action = iota
	Drop
	Tamper
)

// Captured is one observed message.
type Captured struct {
	To      string
	Payload []byte
}

// Interceptor is a Dolev-Yao control point wrapped around a party's
// connection: it observes every outbound message and can drop, tamper with
// or record them, and replay recorded traffic later. (Full network control
// is modelled by wrapping every party's connection.)
type Interceptor struct {
	inner coord.Conn

	mu       sync.Mutex
	captured []Captured
	onSend   func(to string, payload []byte) (Action, []byte)
}

// NewInterceptor wraps conn.
func NewInterceptor(conn coord.Conn) *Interceptor {
	return &Interceptor{inner: conn}
}

// ID returns the wrapped connection's identity.
func (ic *Interceptor) ID() string { return ic.inner.ID() }

// SetOnSend installs the intercept decision function. A nil function passes
// all traffic.
func (ic *Interceptor) SetOnSend(f func(to string, payload []byte) (Action, []byte)) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	ic.onSend = f
}

// intercept captures the outbound message and applies the intercept
// decision; drop reports that the message must be swallowed.
func (ic *Interceptor) intercept(to string, payload []byte) (out []byte, drop bool) {
	ic.mu.Lock()
	cp := make([]byte, len(payload))
	copy(cp, payload)
	ic.captured = append(ic.captured, Captured{To: to, Payload: cp})
	f := ic.onSend
	ic.mu.Unlock()

	if f != nil {
		action, replacement := f(to, payload)
		switch action {
		case Drop:
			return nil, true
		case Tamper:
			return replacement, false
		}
	}
	return payload, false
}

// Send implements coord.Conn with interception.
func (ic *Interceptor) Send(ctx context.Context, to string, payload []byte) error {
	payload, drop := ic.intercept(to, payload)
	if drop {
		return nil
	}
	return ic.inner.Send(ctx, to, payload)
}

// Captured returns a snapshot of observed messages.
func (ic *Interceptor) Captured() []Captured {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	out := make([]Captured, len(ic.captured))
	copy(out, ic.captured)
	return out
}

// Replay re-sends a previously captured message verbatim (the intruder's
// replay capability). The index addresses the capture list.
func (ic *Interceptor) Replay(ctx context.Context, idx int) error {
	ic.mu.Lock()
	if idx < 0 || idx >= len(ic.captured) {
		ic.mu.Unlock()
		return coord.ErrUnknownRun
	}
	c := ic.captured[idx]
	ic.mu.Unlock()
	return ic.inner.Send(ctx, c.To, c.Payload)
}

// DropEnvelopeKinds returns an intercept decision that drops every outbound
// envelope of the listed kinds addressed to one recipient (empty: any
// recipient) and passes everything else. It models a sender that
// selectively omits messages (§4.4) — and, pointed at commit or transfer
// traffic, deterministically manufactures a lagging party for the
// anti-entropy scenarios.
func DropEnvelopeKinds(to string, kinds ...wire.Kind) func(string, []byte) (Action, []byte) {
	want := make(map[wire.Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	return func(dst string, payload []byte) (Action, []byte) {
		if to != "" && dst != to {
			return Pass, nil
		}
		env, err := wire.UnmarshalEnvelope(payload)
		if err != nil || !want[env.Kind] {
			return Pass, nil
		}
		return Drop, nil
	}
}

// TamperEnvelopeFrom rewrites the unsigned envelope sender field — the
// canonical "modify unsigned parts" intrusion. Returns the original payload
// unchanged if it does not parse.
func TamperEnvelopeFrom(payload []byte, newFrom string) []byte {
	env, err := wire.UnmarshalEnvelope(payload)
	if err != nil {
		return payload
	}
	env.From = newFrom
	return env.Marshal()
}

// TamperSignedBody flips one byte inside the signed body carried by the
// envelope payload — modification that signature verification must catch.
func TamperSignedBody(payload []byte) []byte {
	env, err := wire.UnmarshalEnvelope(payload)
	if err != nil {
		return payload
	}
	//b2b:unverified fault injection: this helper deliberately corrupts the signed body so receivers' verification must catch it
	signed, err := wire.UnmarshalSigned(env.Payload)
	if err != nil || len(signed.Body) == 0 {
		return payload
	}
	// Decoding aliases payload: flip the bit in a copy, never in the
	// sender's buffer.
	signed.Body = bytes.Clone(signed.Body)
	signed.Body[len(signed.Body)/2] ^= 0x01
	env.Payload = signed.Marshal()
	return env.Marshal()
}

// Adversary is a compromised (or intrinsically malicious) group member: it
// holds a legitimate identity and certificate but crafts protocol messages
// directly instead of running the honest engine.
type Adversary struct {
	Ident  *crypto.Identity
	TSA    wire.Stamper
	Conn   coord.Conn
	Object string
}

// send wraps and transmits a payload as the adversary.
func (a *Adversary) send(ctx context.Context, to string, kind wire.Kind, payload []byte) error {
	n, err := crypto.Nonce()
	if err != nil {
		return err
	}
	env := wire.Envelope{
		MsgID:   hex.EncodeToString(n[:12]),
		From:    a.Ident.ID(),
		To:      to,
		Object:  a.Object,
		Kind:    kind,
		Payload: payload,
	}
	return a.Conn.Send(ctx, to, env.Marshal())
}

// ProposalSpec carries the group context the adversary needs to craft
// plausible proposals.
type ProposalSpec struct {
	Group  tuple.Group
	Agreed tuple.State
	Seq    uint64 // next sequence number to claim
}

// buildPropose crafts a correctly signed proposal for the given state.
func (a *Adversary) buildPropose(spec ProposalSpec, state []byte) (wire.Propose, wire.Signed, []byte, error) {
	rnd, err := crypto.Nonce()
	if err != nil {
		return wire.Propose{}, wire.Signed{}, nil, err
	}
	auth, err := crypto.Nonce()
	if err != nil {
		return wire.Propose{}, wire.Signed{}, nil, err
	}
	runID := a.Ident.ID() + "-evil-" + hex.EncodeToString(rnd[:6])
	prop := wire.Propose{
		RunID:      runID,
		Proposer:   a.Ident.ID(),
		Object:     a.Object,
		Group:      spec.Group,
		Agreed:     spec.Agreed,
		Pred:       spec.Agreed,
		Proposed:   tuple.NewState(spec.Seq, rnd, state),
		AuthCommit: crypto.Hash(auth),
		Mode:       wire.ModeOverwrite,
		NewState:   state,
	}
	return prop, wire.Sign(wire.KindPropose, prop.Marshal(), a.Ident, a.TSA), auth, nil
}

// NullTransition proposes a transition to the current agreed state (§4.4:
// detectable null state transition). Returns the run id.
func (a *Adversary) NullTransition(ctx context.Context, spec ProposalSpec, agreedState []byte, recipients []string) (string, error) {
	prop, signed, _, err := a.buildPropose(spec, agreedState)
	if err != nil {
		return "", err
	}
	// Force the tuple's state hash to equal the agreed hash (a genuine null
	// transition re-proposes identical content).
	for _, r := range recipients {
		if err := a.send(ctx, r, wire.KindPropose, signed.Marshal()); err != nil {
			return "", err
		}
	}
	return prop.RunID, nil
}

// SelectiveSend sends a *different* proposed state to each recipient under
// one run id (§4.4: selective sending). states[i] goes to recipients[i].
func (a *Adversary) SelectiveSend(ctx context.Context, spec ProposalSpec, states [][]byte, recipients []string) (string, error) {
	rnd, err := crypto.Nonce()
	if err != nil {
		return "", err
	}
	auth, err := crypto.Nonce()
	if err != nil {
		return "", err
	}
	runID := a.Ident.ID() + "-selective-" + hex.EncodeToString(rnd[:6])
	for i, r := range recipients {
		prop := wire.Propose{
			RunID:      runID,
			Proposer:   a.Ident.ID(),
			Object:     a.Object,
			Group:      spec.Group,
			Agreed:     spec.Agreed,
			Pred:       spec.Agreed,
			Proposed:   tuple.NewState(spec.Seq, rnd, states[i]),
			AuthCommit: crypto.Hash(auth),
			Mode:       wire.ModeOverwrite,
			NewState:   states[i],
		}
		signed := wire.Sign(wire.KindPropose, prop.Marshal(), a.Ident, a.TSA)
		if err := a.send(ctx, r, wire.KindPropose, signed.Marshal()); err != nil {
			return "", err
		}
	}
	return runID, nil
}

// OmittedCommit proposes honestly but never sends the commit (§4.4: a
// member omits to send a message). Recipients are left holding evidence of
// an active run. Returns the run id.
func (a *Adversary) OmittedCommit(ctx context.Context, spec ProposalSpec, state []byte, recipients []string) (string, error) {
	prop, signed, _, err := a.buildPropose(spec, state)
	if err != nil {
		return "", err
	}
	for _, r := range recipients {
		if err := a.send(ctx, r, wire.KindPropose, signed.Marshal()); err != nil {
			return "", err
		}
	}
	return prop.RunID, nil
}

// ForgedCommit sends a commit whose authenticator does not match the
// proposal's commitment, with fabricated (unverifiable) responses.
func (a *Adversary) ForgedCommit(ctx context.Context, spec ProposalSpec, state []byte, victim string, fakeResponders []string) (string, error) {
	prop, signed, _, err := a.buildPropose(spec, state)
	if err != nil {
		return "", err
	}
	if err := a.send(ctx, victim, wire.KindPropose, signed.Marshal()); err != nil {
		return "", err
	}
	// Build a commit with the WRONG authenticator and self-signed
	// "responses" attributed to other parties.
	var responds []wire.Signed
	for _, responder := range fakeResponders {
		resp := wire.Respond{
			RunID:             prop.RunID,
			Responder:         responder,
			Object:            a.Object,
			Group:             spec.Group,
			Proposed:          prop.Proposed,
			Current:           spec.Agreed,
			ReceivedStateHash: prop.Proposed.HashState,
			Decision:          wire.Accepted,
		}
		forged := wire.Sign(wire.KindRespond, resp.Marshal(), a.Ident, a.TSA)
		forged.Sig.Signer = responder // misattribute
		responds = append(responds, forged)
	}
	badAuth, err := crypto.Nonce()
	if err != nil {
		return "", err
	}
	commit := wire.Commit{
		RunID:    prop.RunID,
		Proposer: a.Ident.ID(),
		Object:   a.Object,
		Auth:     badAuth, // does not hash to prop.AuthCommit
		Propose:  signed,
		Responds: responds,
	}
	return prop.RunID, a.send(ctx, victim, wire.KindCommit, commit.Marshal())
}

// ReplayRun re-sends a captured signed proposal verbatim (invariant 4 must
// reject the replayed tuple).
//
//b2b:unverified adversary harness: replays a captured proposal verbatim; the receiving nodes' verification is the system under test
func (a *Adversary) ReplayRun(ctx context.Context, signedPropose wire.Signed, recipients []string) error {
	for _, r := range recipients {
		if err := a.send(ctx, r, wire.KindPropose, signedPropose.Marshal()); err != nil {
			return err
		}
	}
	return nil
}

// StaleSequence proposes with a sequence number that does not exceed the
// agreed one (invariant 3 violation).
func (a *Adversary) StaleSequence(ctx context.Context, spec ProposalSpec, state []byte, recipients []string) (string, error) {
	spec.Seq = spec.Agreed.Seq // not greater: must be rejected
	prop, signed, _, err := a.buildPropose(spec, state)
	if err != nil {
		return "", err
	}
	for _, r := range recipients {
		if err := a.send(ctx, r, wire.KindPropose, signed.Marshal()); err != nil {
			return "", err
		}
	}
	return prop.RunID, nil
}

// WrongGroup proposes under a fabricated group identifier (§4.2:
// inconsistent group identifiers lead to invalidation).
func (a *Adversary) WrongGroup(ctx context.Context, spec ProposalSpec, state []byte, recipients []string) (string, error) {
	rnd, err := crypto.Nonce()
	if err != nil {
		return "", err
	}
	spec.Group = tuple.NewGroup(spec.Group.Seq+7, rnd, []string{a.Ident.ID(), "phantom"})
	prop, signed, _, err := a.buildPropose(spec, state)
	if err != nil {
		return "", err
	}
	for _, r := range recipients {
		if err := a.send(ctx, r, wire.KindPropose, signed.Marshal()); err != nil {
			return "", err
		}
	}
	return prop.RunID, nil
}

// MismatchedState sends a proposal whose carried state does not match the
// tuple's state hash (internal inconsistency between signed parts).
func (a *Adversary) MismatchedState(ctx context.Context, spec ProposalSpec, recipients []string) (string, error) {
	rnd, err := crypto.Nonce()
	if err != nil {
		return "", err
	}
	auth, err := crypto.Nonce()
	if err != nil {
		return "", err
	}
	runID := a.Ident.ID() + "-mismatch-" + hex.EncodeToString(rnd[:6])
	prop := wire.Propose{
		RunID:      runID,
		Proposer:   a.Ident.ID(),
		Object:     a.Object,
		Group:      spec.Group,
		Agreed:     spec.Agreed,
		Pred:       spec.Agreed,
		Proposed:   tuple.NewState(spec.Seq, rnd, []byte("advertised state")),
		AuthCommit: crypto.Hash(auth),
		Mode:       wire.ModeOverwrite,
		NewState:   []byte("actually delivered state"), // != tuple hash
	}
	signed := wire.Sign(wire.KindPropose, prop.Marshal(), a.Ident, a.TSA)
	for _, r := range recipients {
		if err := a.send(ctx, r, wire.KindPropose, signed.Marshal()); err != nil {
			return "", err
		}
	}
	return runID, nil
}
