// Package wire defines the protocol messages exchanged by B2BObjects
// coordinators: the state coordination messages propose/respond/commit
// (paper §4.3), the update variant (§4.3.1), and the connection and
// disconnection protocol messages (§4.5). Every message has a canonical
// encoding (package canon) which doubles as its signature input, and travels
// inside an Envelope.
package wire

import (
	"errors"
	"fmt"

	"b2b/internal/canon"
	"b2b/internal/crypto"
	"b2b/internal/tuple"
)

// Kind discriminates message types on the wire and inside evidence records.
type Kind uint8

// Message kinds.
const (
	KindInvalid Kind = iota
	KindPropose
	KindRespond
	KindCommit
	KindConnRequest
	KindConnPropose
	KindConnRespond
	KindConnCommit
	KindWelcome
	KindReject
	KindDiscRequest
	KindDiscPropose
	KindDiscRespond
	KindDiscCommit
	KindDiscNotice
	// 15, 16: reserved (the removed §7 TTP abort); never reuse
	_
	_
	KindStateRequest
	KindStateOffer
	KindStateChunk
	KindStateAck
	KindStateDone
	KindGossipDigest
	KindGossipDelta
	KindRelayDeposit
	KindRelayPoll
	KindRelayBatch
	KindRelayPrekey
)

var kindNames = map[Kind]string{
	KindInvalid:      "invalid",
	KindPropose:      "propose",
	KindRespond:      "respond",
	KindCommit:       "commit",
	KindConnRequest:  "conn-request",
	KindConnPropose:  "conn-propose",
	KindConnRespond:  "conn-respond",
	KindConnCommit:   "conn-commit",
	KindWelcome:      "welcome",
	KindReject:       "reject",
	KindDiscRequest:  "disc-request",
	KindDiscPropose:  "disc-propose",
	KindDiscRespond:  "disc-respond",
	KindDiscCommit:   "disc-commit",
	KindDiscNotice:   "disc-notice",
	KindStateRequest: "state-request",
	KindStateOffer:   "state-offer",
	KindStateChunk:   "state-chunk",
	KindStateAck:     "state-ack",
	KindStateDone:    "state-done",
	KindGossipDigest: "gossip-digest",
	KindGossipDelta:  "gossip-delta",
	KindRelayDeposit: "relay-deposit",
	KindRelayPoll:    "relay-poll",
	KindRelayBatch:   "relay-batch",
	KindRelayPrekey:  "relay-prekey",
}

// String names the kind for logs and evidence records.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Errors reported by this package.
var (
	ErrKindMismatch = errors.New("wire: signed body kind mismatch")
	ErrNoTimestamp  = errors.New("wire: missing timestamp on signed message")
)

// Mode selects overwrite (full state) or update (delta) coordination.
type Mode uint8

// Coordination modes (paper §4.3 vs §4.3.1).
const (
	ModeOverwrite Mode = 1
	ModeUpdate    Mode = 2
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeOverwrite:
		return "overwrite"
	case ModeUpdate:
		return "update"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Decision is a party's verdict on the validity of a proposed transition:
// accept or reject plus optional diagnostic information.
type Decision struct {
	Accept     bool
	Diagnostic string
}

// Encode appends the decision to e.
func (dec Decision) Encode(e *canon.Encoder) {
	e.Struct("decision")
	e.Bool(dec.Accept)
	e.String(dec.Diagnostic)
}

// DecodeDecision reads a Decision from d.
func DecodeDecision(d *canon.Decoder) Decision {
	d.Struct("decision")
	return Decision{Accept: d.Bool(), Diagnostic: d.String()}
}

// Accepted is the affirmative decision.
var Accepted = Decision{Accept: true}

// Rejected builds a veto carrying a diagnostic.
func Rejected(diag string) Decision { return Decision{Accept: false, Diagnostic: diag} }

// Signed wraps a message body (canonical bytes) with the sender's signature
// and a TSA timestamp binding the evidence to its time of generation (§4.2).
type Signed struct {
	Kind Kind
	Body []byte
	Sig  crypto.Signature
	TS   crypto.Timestamp
}

// Stamper abstracts the trusted time-stamping service so tests and the
// crypto-ablation bench can substitute their own.
type Stamper interface {
	Stamp(h [32]byte) crypto.Timestamp
}

// Sign produces a Signed message. The body is hashed once: the signature
// covers (kind, len(body), h(body)) and the timestamp covers h(h(body) || sig),
// so the stamp binds both content and attribution (docs/PROTOCOL.md §2.1).
func Sign(kind Kind, body []byte, ident *crypto.Identity, tsa Stamper) Signed {
	s := signDigest(kind, len(body), crypto.Hash(body), ident, tsa)
	s.Body = body
	return s
}

// SignEncoded is Sign for a body that encode writes, built in one buffer:
// the body is encoded once, straight into the signed wrapper. raw is the
// wrapper's canonical encoding (what s.Marshal returns) and s.Body is the
// sub-slice of raw holding the body, so a large field of the body — a whole
// state — is copied exactly once, into raw. d is the body digest the
// signature binds (s.BodyDigest() at return), for a caller that needs it
// again — the evidence log binds the body by it — without rehashing.
func SignEncoded(kind Kind, encode func(*canon.Encoder), ident *crypto.Identity, tsa Stamper) (s Signed, raw []byte, d [32]byte) {
	parts := canon.MarshalSegments(encode)
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	d = crypto.Hash(parts...)
	s = signDigest(kind, n, d, ident, tsa)
	var end int
	raw = canon.Marshal(func(e *canon.Encoder) {
		e.Struct("signed")
		e.Uint64(uint64(kind))
		e.Bytes(parts...)
		end = e.Len()
		s.Sig.Encode(e)
		s.TS.Encode(e)
	})
	s.Body = raw[end-n : end : end]
	return s, raw, d
}

// signDigest signs a body of bodyLen bytes with digest d.
func signDigest(kind Kind, bodyLen int, d [32]byte, ident *crypto.Identity, tsa Stamper) Signed {
	s := Signed{Kind: kind, Sig: ident.Sign(signInput(kind, bodyLen, d))}
	if tsa != nil {
		s.TS = tsa.Stamp(stampInput(d, s.Sig.Sig))
	}
	return s
}

// signInput is the signed byte string: a fixed-size record whatever the
// body's size, since the body enters only through its digest.
func signInput(kind Kind, bodyLen int, d [32]byte) []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("signed-input")
		e.Uint64(uint64(kind))
		e.Uint64(uint64(bodyLen))
		e.Bytes32(d)
	})
}

// stampInput is the hash the TSA stamps: the body digest and the signature.
func stampInput(d [32]byte, sig []byte) [32]byte {
	return crypto.Hash(d[:], sig)
}

// BodyDigest returns h(Body), the digest the signature and timestamp bind.
// It is recomputed on every call: a Signed never caches it, because Body
// may be altered after signing.
func (s Signed) BodyDigest() [32]byte { return crypto.Hash(s.Body) }

// Verify checks the signature (and timestamp, when present) against v. The
// signature is validated as of the timestamp's instant, so evidence signed
// with since-expired certificates remains verifiable at its generation time.
func (s Signed) Verify(v *crypto.Verifier) error {
	return s.VerifyDigest(v, s.BodyDigest())
}

// VerifyDigest is Verify with the body digest d supplied by the caller, for
// a caller that needs the digest for something else as well (the
// coordinator's signature memo key and evidence entry). d must be
// s.BodyDigest() of this very s; the only callers are Verify and coord's
// verifySignedDigest (enforced by TestVerifyDigestCallers).
func (s Signed) VerifyDigest(v *crypto.Verifier, d [32]byte) error {
	if err := v.VerifySignature(signInput(s.Kind, len(s.Body), d), s.Sig, s.TS.Time); err != nil {
		return fmt.Errorf("wire: %s from %s: %w", s.Kind, s.Sig.Signer, err)
	}
	if s.TS.Authority == "" {
		return fmt.Errorf("%w: %s from %s", ErrNoTimestamp, s.Kind, s.Sig.Signer)
	}
	if err := v.VerifyTimestamp(s.TS, stampInput(d, s.Sig.Sig)); err != nil {
		return fmt.Errorf("wire: %s from %s: %w", s.Kind, s.Sig.Signer, err)
	}
	return nil
}

// Signer returns the claimed signer identity.
func (s Signed) Signer() string { return s.Sig.Signer }

// Encode appends the signed wrapper to e.
func (s Signed) Encode(e *canon.Encoder) { s.encode(e) }

// encode appends the signed wrapper to e and returns the length of the
// encoding up to the end of the body.
func (s Signed) encode(e *canon.Encoder) (bodyEnd int) {
	e.Struct("signed")
	e.Uint64(uint64(s.Kind))
	e.Bytes(s.Body)
	bodyEnd = e.Len()
	s.Sig.Encode(e)
	s.TS.Encode(e)
	return bodyEnd
}

// DecodeSigned reads a Signed from d.
func DecodeSigned(d *canon.Decoder) Signed {
	d.Struct("signed")
	return Signed{
		Kind: Kind(d.Uint8()),
		Body: d.Bytes(),
		Sig:  crypto.DecodeSignature(d),
		TS:   crypto.DecodeTimestamp(d),
	}
}

// Marshal returns the standalone canonical bytes of the signed wrapper.
func (s Signed) Marshal() []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		s.Encode(e)
	})
}

// UnmarshalSigned parses a standalone Signed produced by Marshal.
func UnmarshalSigned(buf []byte) (Signed, error) {
	d := canon.NewDecoder(buf)
	s := DecodeSigned(d)
	if err := d.Finish(); err != nil {
		return Signed{}, err
	}
	return s, nil
}

// Envelope frames a message for transport: dedup identity, routing and the
// serialized payload (a Signed for most kinds; commit kinds carry their own
// aggregate structure).
type Envelope struct {
	MsgID   string
	From    string
	To      string
	Object  string
	Kind    Kind
	Payload []byte
}

// Marshal returns the canonical bytes of the envelope.
func (env Envelope) Marshal() []byte { return canon.Marshal(env.encode) }

// Segments returns the canonical bytes of the envelope as consecutive
// segments (canon.MarshalSegments): the envelope is written around a large
// payload, which is referenced, not copied.
func (env Envelope) Segments() [][]byte { return canon.MarshalSegments(env.encode) }

func (env Envelope) encode(e *canon.Encoder) {
	e.Struct("envelope")
	e.String(env.MsgID)
	e.String(env.From)
	e.String(env.To)
	e.String(env.Object)
	e.Uint64(uint64(env.Kind))
	e.Bytes(env.Payload)
}

// UnmarshalEnvelope parses an envelope.
func UnmarshalEnvelope(buf []byte) (Envelope, error) {
	d := canon.NewDecoder(buf)
	d.Struct("envelope")
	env := Envelope{
		MsgID:  d.String(),
		From:   d.String(),
		To:     d.String(),
		Object: d.String(),
		Kind:   Kind(d.Uint8()),
	}
	env.Payload = d.Bytes()
	if err := d.Finish(); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// MarshalMulti packs several transport frames into one multi-frame envelope.
// Transmission granularity is a distribution policy, not application logic
// (after RAFDA): the reliable transport coalesces queued frames into one
// datagram using this container, and the protocol layers above never see it.
func MarshalMulti(frames [][]byte) []byte {
	e := canon.NewEncoder()
	e.Struct("multi")
	e.List(len(frames))
	for _, f := range frames {
		e.Bytes(f)
	}
	return e.Out()
}

// UnmarshalMulti unpacks a multi-frame envelope produced by MarshalMulti.
func UnmarshalMulti(buf []byte) ([][]byte, error) {
	d := canon.NewDecoder(buf)
	d.Struct("multi")
	n := d.List()
	alloc := n
	if alloc > 1024 {
		alloc = 1024 // defend the allocator against a corrupt count
	}
	frames := make([][]byte, 0, alloc)
	for i := 0; i < n; i++ {
		frames = append(frames, d.Bytes())
		if d.Err() != nil {
			break // corrupt count: don't let it drive a billion appends
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return frames, nil
}

// Propose is the proposer's first message (§4.3): it identifies the proposer
// and its group view, specifies the transition Pred -> Proposed, commits to
// the authenticator via AuthCommit = h(A_p), and carries the proposed new
// state (overwrite mode) or the update and its hash (update mode, §4.3.1).
//
// Pred is the explicit predecessor tuple the proposal chains from. For an
// unpipelined run (and for the first run of a pipeline) Pred equals Agreed,
// the proposer's agreed state tuple. A pipelining proposer (see
// docs/PROTOCOL.md) chains each successor run to its predecessor's Proposed
// tuple, so Proposed.Seq strictly increases along the chain and every
// proposal names the exact state lineage it extends.
type Propose struct {
	RunID      string
	Proposer   string
	Object     string
	Group      tuple.Group
	Agreed     tuple.State
	Pred       tuple.State
	Proposed   tuple.State
	AuthCommit [32]byte
	Mode       Mode
	NewState   []byte
	Update     []byte
	UpdateHash [32]byte
}

// Marshal returns the canonical (signature input) bytes.
func (p Propose) Marshal() []byte { return canon.Marshal(p.Encode) }

// Encode appends the canonical (signature input) bytes to e.
func (p Propose) Encode(e *canon.Encoder) {
	e.Struct("propose")
	e.String(p.RunID)
	e.String(p.Proposer)
	e.String(p.Object)
	p.Group.Encode(e)
	p.Agreed.Encode(e)
	p.Pred.Encode(e)
	p.Proposed.Encode(e)
	e.Bytes32(p.AuthCommit)
	e.Uint64(uint64(p.Mode))
	e.Bytes(p.NewState)
	e.Bytes(p.Update)
	e.Bytes32(p.UpdateHash)
}

// UnmarshalPropose parses a Propose.
func UnmarshalPropose(buf []byte) (Propose, error) {
	d := canon.NewDecoder(buf)
	d.Struct("propose")
	p := Propose{
		RunID:    d.String(),
		Proposer: d.String(),
		Object:   d.String(),
		Group:    tuple.DecodeGroup(d),
		Agreed:   tuple.DecodeState(d),
		Pred:     tuple.DecodeState(d),
		Proposed: tuple.DecodeState(d),
	}
	p.AuthCommit = d.Bytes32()
	p.Mode = Mode(d.Uint8())
	p.NewState = d.Bytes()
	p.Update = d.Bytes()
	p.UpdateHash = d.Bytes32()
	if err := d.Finish(); err != nil {
		return Propose{}, err
	}
	return p, nil
}

// Respond is a recipient's receipt plus signed decision (§4.3). Current is
// the responder's current state tuple; ReceivedStateHash asserts the
// integrity (or otherwise) of the state as actually received with respect to
// the hash inside the proposal.
type Respond struct {
	RunID             string
	Responder         string
	Object            string
	Group             tuple.Group
	Proposed          tuple.State
	Current           tuple.State
	ReceivedStateHash [32]byte
	Decision          Decision
}

// Marshal returns the canonical (signature input) bytes.
func (r Respond) Marshal() []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("respond")
		e.String(r.RunID)
		e.String(r.Responder)
		e.String(r.Object)
		r.Group.Encode(e)
		r.Proposed.Encode(e)
		r.Current.Encode(e)
		e.Bytes32(r.ReceivedStateHash)
		r.Decision.Encode(e)
	})
}

// UnmarshalRespond parses a Respond.
func UnmarshalRespond(buf []byte) (Respond, error) {
	d := canon.NewDecoder(buf)
	d.Struct("respond")
	r := Respond{
		RunID:     d.String(),
		Responder: d.String(),
		Object:    d.String(),
		Group:     tuple.DecodeGroup(d),
		Proposed:  tuple.DecodeState(d),
		Current:   tuple.DecodeState(d),
	}
	r.ReceivedStateHash = d.Bytes32()
	r.Decision = DecodeDecision(d)
	if err := d.Finish(); err != nil {
		return Respond{}, err
	}
	return r, nil
}

// Commit is the proposer's final message (§4.3): the aggregation of all
// decisions and of the non-repudiation evidence (the signed proposal and all
// signed responses), released together with the authenticator preimage Auth.
// It needs no signature of its own — only the proposer can produce Auth,
// whose hash was committed in the proposal; Auth links all messages of the
// run.
type Commit struct {
	RunID    string
	Proposer string
	Object   string
	Auth     []byte
	Propose  Signed
	Responds []Signed
}

// Marshal returns the canonical bytes.
func (c Commit) Marshal() []byte {
	payload, _ := c.MarshalEmbedding()
	return payload
}

// MarshalEmbedding is Marshal that also returns the embedded proposal's
// body as the sub-slice of the payload that holds it.
func (c Commit) MarshalEmbedding() (payload, propose []byte) {
	var end int
	payload = canon.Marshal(func(e *canon.Encoder) {
		e.Struct("commit")
		e.String(c.RunID)
		e.String(c.Proposer)
		e.String(c.Object)
		e.Bytes(c.Auth)
		end = c.Propose.encode(e)
		e.List(len(c.Responds))
		for _, r := range c.Responds {
			r.Encode(e)
		}
	})
	return payload, payload[end-len(c.Propose.Body) : end : end]
}

// UnmarshalCommit parses a Commit.
func UnmarshalCommit(buf []byte) (Commit, error) {
	d := canon.NewDecoder(buf)
	d.Struct("commit")
	c := Commit{
		RunID:    d.String(),
		Proposer: d.String(),
		Object:   d.String(),
	}
	c.Auth = d.Bytes()
	c.Propose = DecodeSigned(d)
	n := d.List()
	if d.Err() == nil {
		for i := 0; i < n; i++ {
			c.Responds = append(c.Responds, DecodeSigned(d))
			if d.Err() != nil {
				break
			}
		}
	}
	if err := d.Finish(); err != nil {
		return Commit{}, err
	}
	return c, nil
}

// ConnRequest initiates the connection protocol (§4.5.3): the proposed new
// member sends its identity certificate and a fresh random labelling the
// request to the current sponsor.
type ConnRequest struct {
	ReqID       string
	Object      string
	Subject     string
	SubjectCert crypto.Certificate
	Nonce       []byte
}

// Marshal returns the canonical (signature input) bytes.
func (r ConnRequest) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("conn-request")
	e.String(r.ReqID)
	e.String(r.Object)
	e.String(r.Subject)
	r.SubjectCert.Encode(e)
	e.Bytes(r.Nonce)
	return e.Out()
}

// UnmarshalConnRequest parses a ConnRequest.
func UnmarshalConnRequest(buf []byte) (ConnRequest, error) {
	d := canon.NewDecoder(buf)
	d.Struct("conn-request")
	r := ConnRequest{
		ReqID:   d.String(),
		Object:  d.String(),
		Subject: d.String(),
	}
	r.SubjectCert = crypto.DecodeCertificate(d)
	r.Nonce = d.Bytes()
	if err := d.Finish(); err != nil {
		return ConnRequest{}, err
	}
	return r, nil
}

// ConnPropose is the sponsor's relay of a connection request to the current
// membership, proposing the transition CurGroup -> NewGroup.
type ConnPropose struct {
	RunID       string
	Sponsor     string
	Object      string
	ReqID       string
	Request     Signed // the subject's signed ConnRequest, as evidence
	CurGroup    tuple.Group
	NewGroup    tuple.Group
	NewMembers  []string
	Subject     string
	SubjectCert crypto.Certificate
	AuthCommit  [32]byte
}

// Marshal returns the canonical (signature input) bytes.
func (p ConnPropose) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("conn-propose")
	e.String(p.RunID)
	e.String(p.Sponsor)
	e.String(p.Object)
	e.String(p.ReqID)
	p.Request.Encode(e)
	p.CurGroup.Encode(e)
	p.NewGroup.Encode(e)
	e.Strings(p.NewMembers)
	e.String(p.Subject)
	p.SubjectCert.Encode(e)
	e.Bytes32(p.AuthCommit)
	return e.Out()
}

// UnmarshalConnPropose parses a ConnPropose.
func UnmarshalConnPropose(buf []byte) (ConnPropose, error) {
	d := canon.NewDecoder(buf)
	d.Struct("conn-propose")
	p := ConnPropose{
		RunID:   d.String(),
		Sponsor: d.String(),
		Object:  d.String(),
		ReqID:   d.String(),
	}
	p.Request = DecodeSigned(d)
	p.CurGroup = tuple.DecodeGroup(d)
	p.NewGroup = tuple.DecodeGroup(d)
	p.NewMembers = d.Strings()
	p.Subject = d.String()
	p.SubjectCert = crypto.DecodeCertificate(d)
	p.AuthCommit = d.Bytes32()
	if err := d.Finish(); err != nil {
		return ConnPropose{}, err
	}
	return p, nil
}

// GroupRespond is a member's signed decision on a membership change
// (connection, eviction or voluntary disconnection). Agreed is the member's
// signed view of the agreed object state tuple, against which a welcomed
// subject verifies the state it receives from the sponsor.
type GroupRespond struct {
	RunID     string
	Responder string
	Object    string
	CurGroup  tuple.Group
	NewGroup  tuple.Group
	Agreed    tuple.State
	Decision  Decision
}

func (r GroupRespond) marshal(structName string) []byte {
	e := canon.NewEncoder()
	e.Struct(structName)
	e.String(r.RunID)
	e.String(r.Responder)
	e.String(r.Object)
	r.CurGroup.Encode(e)
	r.NewGroup.Encode(e)
	r.Agreed.Encode(e)
	r.Decision.Encode(e)
	return e.Out()
}

func unmarshalGroupRespond(buf []byte, structName string) (GroupRespond, error) {
	d := canon.NewDecoder(buf)
	d.Struct(structName)
	r := GroupRespond{
		RunID:     d.String(),
		Responder: d.String(),
		Object:    d.String(),
	}
	r.CurGroup = tuple.DecodeGroup(d)
	r.NewGroup = tuple.DecodeGroup(d)
	r.Agreed = tuple.DecodeState(d)
	r.Decision = DecodeDecision(d)
	if err := d.Finish(); err != nil {
		return GroupRespond{}, err
	}
	return r, nil
}

// MarshalConn returns canonical bytes as a connection response.
func (r GroupRespond) MarshalConn() []byte { return r.marshal("conn-respond") }

// MarshalDisc returns canonical bytes as a disconnection response.
func (r GroupRespond) MarshalDisc() []byte { return r.marshal("disc-respond") }

// UnmarshalConnRespond parses a connection-protocol GroupRespond.
func UnmarshalConnRespond(buf []byte) (GroupRespond, error) {
	return unmarshalGroupRespond(buf, "conn-respond")
}

// UnmarshalDiscRespond parses a disconnection-protocol GroupRespond.
func UnmarshalDiscRespond(buf []byte) (GroupRespond, error) {
	return unmarshalGroupRespond(buf, "disc-respond")
}

// GroupCommit aggregates a membership run: authenticator preimage, the signed
// proposal and all signed responses. Used for conn-commit and disc-commit.
type GroupCommit struct {
	RunID    string
	Sponsor  string
	Object   string
	Auth     []byte
	Propose  Signed
	Responds []Signed
}

func (c GroupCommit) marshal(structName string) []byte {
	e := canon.NewEncoder()
	e.Struct(structName)
	e.String(c.RunID)
	e.String(c.Sponsor)
	e.String(c.Object)
	e.Bytes(c.Auth)
	c.Propose.Encode(e)
	e.List(len(c.Responds))
	for _, r := range c.Responds {
		r.Encode(e)
	}
	return e.Out()
}

func unmarshalGroupCommit(buf []byte, structName string) (GroupCommit, error) {
	d := canon.NewDecoder(buf)
	d.Struct(structName)
	c := GroupCommit{
		RunID:   d.String(),
		Sponsor: d.String(),
		Object:  d.String(),
	}
	c.Auth = d.Bytes()
	c.Propose = DecodeSigned(d)
	n := d.List()
	if d.Err() == nil {
		for i := 0; i < n; i++ {
			c.Responds = append(c.Responds, DecodeSigned(d))
			if d.Err() != nil {
				break
			}
		}
	}
	if err := d.Finish(); err != nil {
		return GroupCommit{}, err
	}
	return c, nil
}

// MarshalConn returns canonical bytes as a connection commit.
func (c GroupCommit) MarshalConn() []byte { return c.marshal("conn-commit") }

// MarshalDisc returns canonical bytes as a disconnection commit.
func (c GroupCommit) MarshalDisc() []byte { return c.marshal("disc-commit") }

// UnmarshalConnCommit parses a connection-protocol GroupCommit.
func UnmarshalConnCommit(buf []byte) (GroupCommit, error) {
	return unmarshalGroupCommit(buf, "conn-commit")
}

// UnmarshalDiscCommit parses a disconnection-protocol GroupCommit.
func UnmarshalDiscCommit(buf []byte) (GroupCommit, error) {
	return unmarshalGroupCommit(buf, "disc-commit")
}

// Welcome admits a subject at the successful end of the connection
// protocol: join-ordered membership, group tuple, the agreed tuple (which
// each member's signed response inside Commit asserts), and the members'
// certificates. It carries evidence, never the state: the subject fetches
// the state through a transfer session (internal/xfer) from the sponsor —
// or any member, on failover — and verifies it against AgreedTuple.
type Welcome struct {
	RunID       string
	Sponsor     string
	Object      string
	Members     []string
	Group       tuple.Group
	AgreedTuple tuple.State
	MemberCerts []crypto.Certificate
	// Prekeys carries the members' signed relay-prekey publications
	// (marshalled Signed envelopes, kind KindRelayPrekey) so the joiner can
	// immediately seal relay deposits to every member. Each entry is
	// individually signed by the member it names; the joiner verifies them
	// one by one when learning them into its directory, so a malicious
	// sponsor cannot plant keys for other members.
	Prekeys [][]byte
	Commit  GroupCommit
}

// Welcome prekey bounds, checked before allocation on decode.
const (
	MaxWelcomePrekeys    = 4096
	MaxPrekeyPublication = 1024
)

// Marshal returns the canonical (signature input) bytes.
func (w Welcome) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("welcome")
	e.String(w.RunID)
	e.String(w.Sponsor)
	e.String(w.Object)
	e.Strings(w.Members)
	w.Group.Encode(e)
	w.AgreedTuple.Encode(e)
	e.List(len(w.MemberCerts))
	for _, c := range w.MemberCerts {
		c.Encode(e)
	}
	e.List(len(w.Prekeys))
	for _, pk := range w.Prekeys {
		e.Bytes(pk)
	}
	e.Bytes(w.Commit.MarshalConn())
	return e.Out()
}

// UnmarshalWelcome parses a Welcome.
func UnmarshalWelcome(buf []byte) (Welcome, error) {
	d := canon.NewDecoder(buf)
	d.Struct("welcome")
	w := Welcome{
		RunID:   d.String(),
		Sponsor: d.String(),
		Object:  d.String(),
	}
	w.Members = d.Strings()
	w.Group = tuple.DecodeGroup(d)
	w.AgreedTuple = tuple.DecodeState(d)
	n := d.List()
	if d.Err() == nil {
		for i := 0; i < n; i++ {
			w.MemberCerts = append(w.MemberCerts, crypto.DecodeCertificate(d))
			if d.Err() != nil {
				break
			}
		}
	}
	np := d.List()
	if d.Err() == nil {
		if np > MaxWelcomePrekeys {
			return Welcome{}, fmt.Errorf("wire: welcome carries %d prekeys (cap %d)", np, MaxWelcomePrekeys)
		}
		for i := 0; i < np; i++ {
			pk := d.Bytes()
			if d.Err() != nil {
				break
			}
			if len(pk) > MaxPrekeyPublication {
				return Welcome{}, fmt.Errorf("wire: welcome prekey %d is %d bytes (cap %d)", i, len(pk), MaxPrekeyPublication)
			}
			w.Prekeys = append(w.Prekeys, pk)
		}
	}
	commitRaw := d.Bytes()
	if err := d.Finish(); err != nil {
		return Welcome{}, err
	}
	c, err := UnmarshalConnCommit(commitRaw)
	if err != nil {
		return Welcome{}, err
	}
	w.Commit = c
	return w, nil
}

// Reject is the sponsor's signed refusal of a connection request. It is sent
// both on immediate rejection and on veto by a member: from the subject's
// perspective the two are indistinguishable (§4.5.3).
type Reject struct {
	ReqID   string
	Object  string
	Sponsor string
	Reason  string
}

// Marshal returns the canonical (signature input) bytes.
func (r Reject) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("reject")
	e.String(r.ReqID)
	e.String(r.Object)
	e.String(r.Sponsor)
	e.String(r.Reason)
	return e.Out()
}

// UnmarshalReject parses a Reject.
func UnmarshalReject(buf []byte) (Reject, error) {
	d := canon.NewDecoder(buf)
	d.Struct("reject")
	r := Reject{
		ReqID:   d.String(),
		Object:  d.String(),
		Sponsor: d.String(),
		Reason:  d.String(),
	}
	if err := d.Finish(); err != nil {
		return Reject{}, err
	}
	return r, nil
}

// DiscRequest initiates a disconnection (§4.5.4): voluntary when the subject
// itself is the proposer, eviction otherwise. Evictees may name a subset of
// members for subset eviction.
type DiscRequest struct {
	ReqID     string
	Object    string
	Proposer  string
	Voluntary bool
	Evictees  []string
	Nonce     []byte
}

// Marshal returns the canonical (signature input) bytes.
func (r DiscRequest) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("disc-request")
	e.String(r.ReqID)
	e.String(r.Object)
	e.String(r.Proposer)
	e.Bool(r.Voluntary)
	e.Strings(r.Evictees)
	e.Bytes(r.Nonce)
	return e.Out()
}

// UnmarshalDiscRequest parses a DiscRequest.
func UnmarshalDiscRequest(buf []byte) (DiscRequest, error) {
	d := canon.NewDecoder(buf)
	d.Struct("disc-request")
	r := DiscRequest{
		ReqID:    d.String(),
		Object:   d.String(),
		Proposer: d.String(),
	}
	r.Voluntary = d.Bool()
	r.Evictees = d.Strings()
	r.Nonce = d.Bytes()
	if err := d.Finish(); err != nil {
		return DiscRequest{}, err
	}
	return r, nil
}

// DiscPropose is the sponsor's relay of a disconnection/eviction request.
type DiscPropose struct {
	RunID      string
	Sponsor    string
	Object     string
	ReqID      string
	Request    Signed // the signed DiscRequest, as evidence
	CurGroup   tuple.Group
	NewGroup   tuple.Group
	NewMembers []string
	Evictees   []string
	Voluntary  bool
	AuthCommit [32]byte
}

// Marshal returns the canonical (signature input) bytes.
func (p DiscPropose) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("disc-propose")
	e.String(p.RunID)
	e.String(p.Sponsor)
	e.String(p.Object)
	e.String(p.ReqID)
	p.Request.Encode(e)
	p.CurGroup.Encode(e)
	p.NewGroup.Encode(e)
	e.Strings(p.NewMembers)
	e.Strings(p.Evictees)
	e.Bool(p.Voluntary)
	e.Bytes32(p.AuthCommit)
	return e.Out()
}

// UnmarshalDiscPropose parses a DiscPropose.
func UnmarshalDiscPropose(buf []byte) (DiscPropose, error) {
	d := canon.NewDecoder(buf)
	d.Struct("disc-propose")
	p := DiscPropose{
		RunID:   d.String(),
		Sponsor: d.String(),
		Object:  d.String(),
		ReqID:   d.String(),
	}
	p.Request = DecodeSigned(d)
	p.CurGroup = tuple.DecodeGroup(d)
	p.NewGroup = tuple.DecodeGroup(d)
	p.NewMembers = d.Strings()
	p.Evictees = d.Strings()
	p.Voluntary = d.Bool()
	p.AuthCommit = d.Bytes32()
	if err := d.Finish(); err != nil {
		return DiscPropose{}, err
	}
	return p, nil
}

// DiscNotice closes a voluntary disconnection: the sponsor's evidence to the
// departed subject of the group membership and agreed state at departure.
type DiscNotice struct {
	RunID       string
	Sponsor     string
	Object      string
	Members     []string
	Group       tuple.Group
	AgreedTuple tuple.State
}

// Marshal returns the canonical (signature input) bytes.
func (n DiscNotice) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("disc-notice")
	e.String(n.RunID)
	e.String(n.Sponsor)
	e.String(n.Object)
	e.Strings(n.Members)
	n.Group.Encode(e)
	n.AgreedTuple.Encode(e)
	return e.Out()
}

// UnmarshalDiscNotice parses a DiscNotice.
func UnmarshalDiscNotice(buf []byte) (DiscNotice, error) {
	d := canon.NewDecoder(buf)
	d.Struct("disc-notice")
	n := DiscNotice{
		RunID:   d.String(),
		Sponsor: d.String(),
		Object:  d.String(),
	}
	n.Members = d.Strings()
	n.Group = tuple.DecodeGroup(d)
	n.AgreedTuple = tuple.DecodeState(d)
	if err := d.Finish(); err != nil {
		return DiscNotice{}, err
	}
	return n, nil
}

// XferMode selects what a state-transfer session carries (see internal/xfer
// and docs/PROTOCOL.md §9): a chunked full snapshot, a delta suffix folded
// through the application's ApplyUpdate, or nothing because the requester is
// already current.
type XferMode uint8

// Transfer modes.
const (
	XferSnapshot XferMode = 1
	XferDeltas   XferMode = 2
	XferUpToDate XferMode = 3
)

// String names the transfer mode.
func (m XferMode) String() string {
	switch m {
	case XferSnapshot:
		return "snapshot"
	case XferDeltas:
		return "deltas"
	case XferUpToDate:
		return "up-to-date"
	default:
		return fmt.Sprintf("xfer-mode(%d)", uint8(m))
	}
}

// StateRequest opens (or resumes) a state-transfer session: the requester —
// a welcomed joiner fetching the agreed state, or a stale member catching up
// after a partition — names its last-known agreed tuple so the sponsor can
// serve the smallest sufficient payload (a delta suffix when its checkpoint
// chain still covers Have, a snapshot otherwise). Resume names the first
// chunk index still wanted, so a requester that lost connectivity mid-session
// re-enters without re-transferring the prefix it holds.
type StateRequest struct {
	SessionID string
	Requester string
	Object    string
	Have      tuple.State // zero: requester holds no state (joiner)
	Resume    uint64      // first chunk index wanted
	Window    uint64      // flow-control window override (0: sponsor default)
}

// Marshal returns the canonical (signature input) bytes.
func (r StateRequest) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("state-request")
	e.String(r.SessionID)
	e.String(r.Requester)
	e.String(r.Object)
	r.Have.Encode(e)
	e.Uint64(r.Resume)
	e.Uint64(r.Window)
	return e.Out()
}

// UnmarshalStateRequest parses a StateRequest.
func UnmarshalStateRequest(buf []byte) (StateRequest, error) {
	d := canon.NewDecoder(buf)
	d.Struct("state-request")
	r := StateRequest{
		SessionID: d.String(),
		Requester: d.String(),
		Object:    d.String(),
	}
	r.Have = tuple.DecodeState(d)
	r.Resume = d.Uint64()
	r.Window = d.Uint64()
	if err := d.Finish(); err != nil {
		return StateRequest{}, err
	}
	return r, nil
}

// StateOffer is the sponsor's signed description of the transfer it is about
// to stream: the agreed tuple the session converges to, the group view,
// transfer mode, chunk geometry and the hash of the whole reassembled
// payload.
//
// Snapshot offers additionally carry the state's Merkle unit-hash vector
// (PageSize, PageHashes; see pagestate.UnitSize): the requester first binds
// the vector to the agreed tuple's HashState — the paged Merkle root — and
// can then verify every arriving chunk unit by unit at receipt, rejecting a
// corrupted or forged chunk immediately instead of at the final whole-payload
// hash check. ChunkLen fixes the chunk geometry (a whole number of units) so
// chunk indexes map to unit indexes. Delta-suffix offers leave the vector
// empty: their payloads are small and remain covered by chunk CRCs plus the
// signed payload hash.
type StateOffer struct {
	SessionID   string
	Sponsor     string
	Object      string
	Group       tuple.Group
	Members     []string
	Agreed      tuple.State
	Mode        XferMode
	DeltaFrom   uint64 // sequence of the first delta step (deltas mode)
	Chunks      uint64
	ChunkLen    uint64 // payload bytes per chunk (last chunk may be short)
	TotalLen    uint64
	PayloadHash [32]byte
	PageSize    uint64     // the group's page size (snapshot mode)
	PageHashes  [][32]byte // leaf hashes of the snapshot's units
}

// Marshal returns the canonical (signature input) bytes.
func (o StateOffer) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("state-offer")
	e.String(o.SessionID)
	e.String(o.Sponsor)
	e.String(o.Object)
	o.Group.Encode(e)
	e.Strings(o.Members)
	o.Agreed.Encode(e)
	e.Uint64(uint64(o.Mode))
	e.Uint64(o.DeltaFrom)
	e.Uint64(o.Chunks)
	e.Uint64(o.ChunkLen)
	e.Uint64(o.TotalLen)
	e.Bytes32(o.PayloadHash)
	e.Uint64(o.PageSize)
	e.List(len(o.PageHashes))
	for _, h := range o.PageHashes {
		e.Bytes32(h)
	}
	return e.Out()
}

// UnmarshalStateOffer parses a StateOffer.
func UnmarshalStateOffer(buf []byte) (StateOffer, error) {
	d := canon.NewDecoder(buf)
	d.Struct("state-offer")
	o := StateOffer{
		SessionID: d.String(),
		Sponsor:   d.String(),
		Object:    d.String(),
	}
	o.Group = tuple.DecodeGroup(d)
	o.Members = d.Strings()
	o.Agreed = tuple.DecodeState(d)
	o.Mode = XferMode(d.Uint8())
	o.DeltaFrom = d.Uint64()
	o.Chunks = d.Uint64()
	o.ChunkLen = d.Uint64()
	o.TotalLen = d.Uint64()
	o.PayloadHash = d.Bytes32()
	o.PageSize = d.Uint64()
	n := d.List()
	// Each encoded hash costs 37 bytes; a count the input cannot hold is
	// corrupt — checked before preallocation (cf. Decoder.Strings).
	if d.Err() == nil && n > 0 {
		if n > d.Remaining()/37+1 {
			return StateOffer{}, fmt.Errorf("wire: implausible page-hash count %d", n)
		}
		o.PageHashes = make([][32]byte, 0, n)
		for i := 0; i < n; i++ {
			o.PageHashes = append(o.PageHashes, d.Bytes32())
			if d.Err() != nil {
				break
			}
		}
	}
	if err := d.Finish(); err != nil {
		return StateOffer{}, err
	}
	return o, nil
}

// StateChunk is one flow-controlled slice of the transfer payload. Chunks
// are unsigned — signing per chunk would put an asymmetric operation on
// every 256 KiB of bulk data — and carry a CRC-32C instead; end-to-end
// integrity rests on the payload hash inside the signed offer/done.
type StateChunk struct {
	SessionID string
	Object    string
	Index     uint64
	Payload   []byte
	CRC       uint32 // CRC-32C (Castagnoli) of Payload
}

// Marshal returns the canonical bytes.
func (c StateChunk) Marshal() []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("state-chunk")
		e.String(c.SessionID)
		e.String(c.Object)
		e.Uint64(c.Index)
		e.Bytes(c.Payload)
		e.Uint64(uint64(c.CRC))
	})
}

// UnmarshalStateChunk parses a StateChunk.
func UnmarshalStateChunk(buf []byte) (StateChunk, error) {
	d := canon.NewDecoder(buf)
	d.Struct("state-chunk")
	c := StateChunk{
		SessionID: d.String(),
		Object:    d.String(),
	}
	c.Index = d.Uint64()
	c.Payload = d.Bytes()
	crc := d.Uint64()
	if d.Err() == nil && crc > 0xffffffff {
		return StateChunk{}, fmt.Errorf("wire: chunk CRC out of range: %d", crc)
	}
	c.CRC = uint32(crc)
	if err := d.Finish(); err != nil {
		return StateChunk{}, err
	}
	return c, nil
}

// StateAck is the requester's cumulative flow-control acknowledgement: all
// chunks with index < Next have been received, and the sponsor may keep up
// to the session window unacknowledged beyond it. Cancel aborts the session.
type StateAck struct {
	SessionID string
	Object    string
	Next      uint64
	Cancel    bool
}

// Marshal returns the canonical bytes.
func (a StateAck) Marshal() []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("state-ack")
		e.String(a.SessionID)
		e.String(a.Object)
		e.Uint64(a.Next)
		e.Bool(a.Cancel)
	})
}

// UnmarshalStateAck parses a StateAck.
func UnmarshalStateAck(buf []byte) (StateAck, error) {
	d := canon.NewDecoder(buf)
	d.Struct("state-ack")
	a := StateAck{
		SessionID: d.String(),
		Object:    d.String(),
	}
	a.Next = d.Uint64()
	a.Cancel = d.Bool()
	if err := d.Finish(); err != nil {
		return StateAck{}, err
	}
	return a, nil
}

// StateDone closes a transfer session: the sponsor's signed assertion of the
// final agreed tuple, the expected state hash the reassembled (and, for
// deltas, folded) result must reach, and the payload geometry. A requester
// completes only when it holds every chunk, the payload hash matches, and
// the verification walk ends at StateHash.
type StateDone struct {
	SessionID   string
	Sponsor     string
	Object      string
	Agreed      tuple.State
	StateHash   [32]byte
	PayloadHash [32]byte
	Chunks      uint64
}

// Marshal returns the canonical (signature input) bytes.
func (dn StateDone) Marshal() []byte {
	e := canon.NewEncoder()
	e.Struct("state-done")
	e.String(dn.SessionID)
	e.String(dn.Sponsor)
	e.String(dn.Object)
	dn.Agreed.Encode(e)
	e.Bytes32(dn.StateHash)
	e.Bytes32(dn.PayloadHash)
	e.Uint64(dn.Chunks)
	return e.Out()
}

// UnmarshalStateDone parses a StateDone.
func UnmarshalStateDone(buf []byte) (StateDone, error) {
	d := canon.NewDecoder(buf)
	d.Struct("state-done")
	dn := StateDone{
		SessionID: d.String(),
		Sponsor:   d.String(),
		Object:    d.String(),
	}
	dn.Agreed = tuple.DecodeState(d)
	dn.StateHash = d.Bytes32()
	dn.PayloadHash = d.Bytes32()
	dn.Chunks = d.Uint64()
	if err := d.Finish(); err != nil {
		return StateDone{}, err
	}
	return dn, nil
}
