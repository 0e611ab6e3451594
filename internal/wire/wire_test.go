package wire

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"b2b/internal/canon"
	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/tuple"
)

type fixture struct {
	ca    *crypto.CA
	tsa   *crypto.TSA
	clk   *clock.Sim
	v     *crypto.Verifier
	alice *crypto.Identity
	bob   *crypto.Identity
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	clk := clock.NewSim(time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC))
	ca, err := crypto.NewCA("ca", clk, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := crypto.NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := crypto.NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := crypto.NewIdentity("bob")
	if err != nil {
		t.Fatal(err)
	}
	ca.Issue(alice)
	ca.Issue(bob)
	v := crypto.NewVerifier(ca, tsa)
	if err := v.AddCertificate(alice.Certificate()); err != nil {
		t.Fatal(err)
	}
	if err := v.AddCertificate(bob.Certificate()); err != nil {
		t.Fatal(err)
	}
	return &fixture{ca: ca, tsa: tsa, clk: clk, v: v, alice: alice, bob: bob}
}

func sampleProposal(proposer string) Propose {
	agreed := tuple.NewState(1, []byte("r1"), []byte("old"))
	proposed := tuple.NewState(2, []byte("r2"), []byte("new"))
	return Propose{
		RunID:      "run-1",
		Proposer:   proposer,
		Object:     "order",
		Group:      tuple.InitialGroup([]string{"alice", "bob"}),
		Agreed:     agreed,
		Proposed:   proposed,
		AuthCommit: crypto.Hash([]byte("authenticator")),
		Mode:       ModeOverwrite,
		NewState:   []byte("new"),
	}
}

func TestProposeRoundTrip(t *testing.T) {
	p := sampleProposal("alice")
	got, err := UnmarshalPropose(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestRespondRoundTrip(t *testing.T) {
	r := Respond{
		RunID:             "run-1",
		Responder:         "bob",
		Object:            "order",
		Group:             tuple.InitialGroup([]string{"alice", "bob"}),
		Proposed:          tuple.NewState(2, []byte("r2"), []byte("new")),
		Current:           tuple.NewState(1, []byte("r1"), []byte("old")),
		ReceivedStateHash: crypto.Hash([]byte("new")),
		Decision:          Rejected("price change not permitted"),
	}
	got, err := UnmarshalRespond(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestSignedVerify(t *testing.T) {
	fx := newFixture(t)
	p := sampleProposal("alice")
	s := Sign(KindPropose, p.Marshal(), fx.alice, fx.tsa)
	if err := s.Verify(fx.v); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if s.Signer() != "alice" {
		t.Fatalf("Signer = %q", s.Signer())
	}
}

// TestSignEncodedWritesBodyOnce: SignEncoded produces the signature Sign
// does over the marshalled body, raw is exactly Marshal's bytes, the body —
// a whole 1 MiB state here — lives inside raw, not beside it, and the
// digest it returns is the body digest the signature binds.
func TestSignEncodedWritesBodyOnce(t *testing.T) {
	fx := newFixture(t)
	p := sampleProposal("alice")
	p.NewState = bytes.Repeat([]byte{0x5a}, 1<<20)
	s, raw, d := SignEncoded(KindPropose, p.Encode, fx.alice, fx.tsa)
	if err := s.Verify(fx.v); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if d != s.BodyDigest() {
		t.Fatal("SignEncoded returned a digest other than the body's")
	}
	if !bytes.Equal(s.Body, p.Marshal()) {
		t.Fatal("signed body differs from the marshalled proposal")
	}
	if ref := Sign(KindPropose, p.Marshal(), fx.alice, fx.tsa); !bytes.Equal(s.Sig.Sig, ref.Sig.Sig) {
		t.Fatal("SignEncoded and Sign sign different inputs")
	}
	if !bytes.Equal(raw, s.Marshal()) {
		t.Fatal("raw differs from the signed wrapper's canonical bytes")
	}
	lo, at := reflect.ValueOf(raw).Pointer(), reflect.ValueOf(s.Body).Pointer()
	if at < lo || at+uintptr(len(s.Body)) > lo+uintptr(len(raw)) || cap(s.Body) != len(s.Body) {
		t.Fatal("the body is not a capacity-clipped sub-slice of raw")
	}
}

func TestSignedBodyTamperDetected(t *testing.T) {
	fx := newFixture(t)
	p := sampleProposal("alice")
	s := Sign(KindPropose, p.Marshal(), fx.alice, fx.tsa)
	s.Body[10] ^= 0xff
	if err := s.Verify(fx.v); err == nil {
		t.Fatal("tampered body verified")
	}
}

func TestSignedKindSubstitutionDetected(t *testing.T) {
	// A signed propose re-labelled as a respond must not verify: the kind is
	// part of the signature input.
	fx := newFixture(t)
	p := sampleProposal("alice")
	s := Sign(KindPropose, p.Marshal(), fx.alice, fx.tsa)
	s.Kind = KindRespond
	if err := s.Verify(fx.v); err == nil {
		t.Fatal("kind-substituted message verified")
	}
}

func TestSignedMissingTimestampRejected(t *testing.T) {
	fx := newFixture(t)
	p := sampleProposal("alice")
	s := Sign(KindPropose, p.Marshal(), fx.alice, nil /* no TSA */)
	if err := s.Verify(fx.v); err == nil {
		t.Fatal("unstamped evidence verified")
	}
}

func TestSignedRoundTrip(t *testing.T) {
	fx := newFixture(t)
	p := sampleProposal("alice")
	s := Sign(KindPropose, p.Marshal(), fx.alice, fx.tsa)
	got, err := UnmarshalSigned(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(fx.v); err != nil {
		t.Fatalf("decoded Signed failed verification: %v", err)
	}
	if !bytes.Equal(got.Body, s.Body) {
		t.Fatal("body mismatch after round-trip")
	}
}

func TestCommitRoundTrip(t *testing.T) {
	fx := newFixture(t)
	p := sampleProposal("alice")
	sp := Sign(KindPropose, p.Marshal(), fx.alice, fx.tsa)
	r := Respond{RunID: "run-1", Responder: "bob", Object: "order", Decision: Accepted}
	sr := Sign(KindRespond, r.Marshal(), fx.bob, fx.tsa)

	c := Commit{
		RunID:    "run-1",
		Proposer: "alice",
		Object:   "order",
		Auth:     []byte("authenticator"),
		Propose:  sp,
		Responds: []Signed{sr},
	}
	got, err := UnmarshalCommit(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != c.RunID || got.Proposer != c.Proposer || !bytes.Equal(got.Auth, c.Auth) {
		t.Fatal("commit header mismatch")
	}
	if len(got.Responds) != 1 {
		t.Fatalf("responds count = %d", len(got.Responds))
	}
	if err := got.Propose.Verify(fx.v); err != nil {
		t.Fatalf("embedded propose: %v", err)
	}
	if err := got.Responds[0].Verify(fx.v); err != nil {
		t.Fatalf("embedded respond: %v", err)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := Envelope{
		MsgID:   "m-123",
		From:    "alice",
		To:      "bob",
		Object:  "order",
		Kind:    KindPropose,
		Payload: []byte("payload"),
	}
	got, err := UnmarshalEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	// Segments concatenate to Marshal's bytes, and a large payload is
	// referenced, not copied.
	env.Payload = bytes.Repeat([]byte{7}, 1<<20)
	segs := env.Segments()
	if !bytes.Equal(bytes.Join(segs, nil), env.Marshal()) {
		t.Fatal("envelope segments differ from its canonical bytes")
	}
	if last := segs[len(segs)-1]; &last[0] != &env.Payload[0] {
		t.Fatal("envelope segments copied the payload")
	}
}

func TestConnRequestRoundTrip(t *testing.T) {
	fx := newFixture(t)
	r := ConnRequest{
		ReqID:       "req-9",
		Object:      "order",
		Subject:     "carol",
		SubjectCert: fx.alice.Certificate(),
		Nonce:       []byte("nonce"),
	}
	got, err := UnmarshalConnRequest(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqID != r.ReqID || got.Subject != r.Subject || !bytes.Equal(got.Nonce, r.Nonce) {
		t.Fatal("conn request mismatch")
	}
	if got.SubjectCert.Subject != r.SubjectCert.Subject {
		t.Fatal("certificate mismatch")
	}
}

func TestConnProposeRoundTrip(t *testing.T) {
	fx := newFixture(t)
	req := ConnRequest{ReqID: "req-9", Object: "order", Subject: "carol", SubjectCert: fx.bob.Certificate(), Nonce: []byte("n")}
	sreq := Sign(KindConnRequest, req.Marshal(), fx.bob, fx.tsa)
	p := ConnPropose{
		RunID:       "crun-1",
		Sponsor:     "bob",
		Object:      "order",
		ReqID:       "req-9",
		Request:     sreq,
		CurGroup:    tuple.InitialGroup([]string{"alice", "bob"}),
		NewGroup:    tuple.NewGroup(1, []byte("r"), []string{"alice", "bob", "carol"}),
		NewMembers:  []string{"alice", "bob", "carol"},
		Subject:     "carol",
		SubjectCert: fx.bob.Certificate(),
		AuthCommit:  crypto.Hash([]byte("a")),
	}
	got, err := UnmarshalConnPropose(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != p.RunID || got.Subject != p.Subject || got.NewGroup != p.NewGroup {
		t.Fatal("conn propose mismatch")
	}
	if len(got.NewMembers) != 3 || got.NewMembers[2] != "carol" {
		t.Fatalf("members = %v", got.NewMembers)
	}
	if err := got.Request.Verify(fx.v); err != nil {
		t.Fatalf("embedded request: %v", err)
	}
}

func TestGroupRespondStructNameSeparation(t *testing.T) {
	r := GroupRespond{RunID: "x", Responder: "bob", Object: "o", Decision: Accepted}
	// A conn-respond must not parse as a disc-respond.
	if _, err := UnmarshalDiscRespond(r.MarshalConn()); err == nil {
		t.Fatal("conn-respond parsed as disc-respond")
	}
	if _, err := UnmarshalConnRespond(r.MarshalConn()); err != nil {
		t.Fatal(err)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	fx := newFixture(t)
	commit := GroupCommit{RunID: "crun-1", Sponsor: "bob", Object: "order", Auth: []byte("a")}
	w := Welcome{
		RunID:       "crun-1",
		Sponsor:     "bob",
		Object:      "order",
		Members:     []string{"alice", "bob", "carol"},
		Group:       tuple.NewGroup(1, []byte("r"), []string{"alice", "bob", "carol"}),
		AgreedTuple: tuple.NewState(4, []byte("q"), []byte("state")),
		MemberCerts: []crypto.Certificate{fx.alice.Certificate(), fx.bob.Certificate()},
		Commit:      commit,
	}
	got, err := UnmarshalWelcome(w.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Group != w.Group || got.AgreedTuple != w.AgreedTuple || !slices.Equal(got.Members, w.Members) {
		t.Fatal("welcome mismatch")
	}
	if got.Commit.RunID != "crun-1" || len(got.MemberCerts) != 2 {
		t.Fatal("welcome embedded data mismatch")
	}
}

func TestDiscMessagesRoundTrip(t *testing.T) {
	fx := newFixture(t)
	req := DiscRequest{
		ReqID:     "d-1",
		Object:    "order",
		Proposer:  "alice",
		Voluntary: true,
		Nonce:     []byte("n"),
	}
	gotReq, err := UnmarshalDiscRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReq, req) {
		t.Fatalf("disc request mismatch: %+v", gotReq)
	}

	sreq := Sign(KindDiscRequest, req.Marshal(), fx.alice, fx.tsa)
	p := DiscPropose{
		RunID:      "drun-1",
		Sponsor:    "bob",
		Object:     "order",
		ReqID:      "d-1",
		Request:    sreq,
		CurGroup:   tuple.InitialGroup([]string{"alice", "bob"}),
		NewGroup:   tuple.NewGroup(1, []byte("r"), []string{"bob"}),
		NewMembers: []string{"bob"},
		Evictees:   []string{"alice"},
		Voluntary:  true,
		AuthCommit: crypto.Hash([]byte("a")),
	}
	gotP, err := UnmarshalDiscPropose(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if gotP.RunID != p.RunID || !gotP.Voluntary || len(gotP.Evictees) != 1 {
		t.Fatal("disc propose mismatch")
	}

	n := DiscNotice{
		RunID:       "drun-1",
		Sponsor:     "bob",
		Object:      "order",
		Members:     []string{"bob"},
		Group:       p.NewGroup,
		AgreedTuple: tuple.NewState(3, []byte("r"), []byte("s")),
	}
	gotN, err := UnmarshalDiscNotice(n.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotN, n) {
		t.Fatalf("disc notice mismatch: %+v", gotN)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	r := Reject{ReqID: "req-1", Object: "order", Sponsor: "bob", Reason: "not welcome"}
	got, err := UnmarshalReject(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("reject mismatch: %+v", got)
	}
}

func TestCrossMessageConfusionRejected(t *testing.T) {
	// Parsing one message type's bytes as another must fail cleanly thanks
	// to canonical struct names.
	p := sampleProposal("alice")
	if _, err := UnmarshalRespond(p.Marshal()); err == nil {
		t.Fatal("propose parsed as respond")
	}
	if _, err := UnmarshalCommit(p.Marshal()); err == nil {
		t.Fatal("propose parsed as commit")
	}
	if _, err := UnmarshalConnRequest(p.Marshal()); err == nil {
		t.Fatal("propose parsed as conn-request")
	}
}

func TestKindString(t *testing.T) {
	if KindPropose.String() != "propose" {
		t.Fatal(KindPropose.String())
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind produced empty string")
	}
	if ModeOverwrite.String() != "overwrite" || ModeUpdate.String() != "update" {
		t.Fatal("mode names")
	}
}

// TestKindNumbers pins every kind's number and name: kinds are wire format
// and evidence-log format, so renumbering one breaks every peer and log
// written before it. 15 and 16 (the removed §7 TTP abort) stay unnamed.
func TestKindNumbers(t *testing.T) {
	want := []struct {
		k    Kind
		n    uint8
		name string
	}{
		{KindPropose, 1, "propose"},
		{KindRespond, 2, "respond"},
		{KindCommit, 3, "commit"},
		{KindConnRequest, 4, "conn-request"},
		{KindConnPropose, 5, "conn-propose"},
		{KindConnRespond, 6, "conn-respond"},
		{KindConnCommit, 7, "conn-commit"},
		{KindWelcome, 8, "welcome"},
		{KindReject, 9, "reject"},
		{KindDiscRequest, 10, "disc-request"},
		{KindDiscPropose, 11, "disc-propose"},
		{KindDiscRespond, 12, "disc-respond"},
		{KindDiscCommit, 13, "disc-commit"},
		{KindDiscNotice, 14, "disc-notice"},
		{KindStateRequest, 17, "state-request"},
		{KindStateOffer, 18, "state-offer"},
		{KindStateChunk, 19, "state-chunk"},
		{KindStateAck, 20, "state-ack"},
		{KindStateDone, 21, "state-done"},
		{KindGossipDigest, 22, "gossip-digest"},
		{KindGossipDelta, 23, "gossip-delta"},
		{KindRelayDeposit, 24, "relay-deposit"},
		{KindRelayPoll, 25, "relay-poll"},
		{KindRelayBatch, 26, "relay-batch"},
		{KindRelayPrekey, 27, "relay-prekey"},
	}
	for _, w := range want {
		if uint8(w.k) != w.n || w.k.String() != w.name {
			t.Errorf("kind %q = %d, want %q = %d", w.k.String(), uint8(w.k), w.name, w.n)
		}
	}
	for _, n := range []uint8{15, 16} {
		if name, ok := kindNames[Kind(n)]; ok {
			t.Errorf("reserved kind %d is named %q", n, name)
		}
	}
	if len(kindNames) != len(want)+1 { // + KindInvalid
		t.Errorf("%d named kinds, want %d", len(kindNames), len(want)+1)
	}
}

func TestUpdateModeFields(t *testing.T) {
	upd := []byte(`{"op":"set-price","item":"widget1","price":10}`)
	p := sampleProposal("alice")
	p.Mode = ModeUpdate
	p.NewState = nil
	p.Update = upd
	p.UpdateHash = crypto.Hash(upd)
	got, err := UnmarshalPropose(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeUpdate || !bytes.Equal(got.Update, upd) || got.UpdateHash != crypto.Hash(upd) {
		t.Fatal("update round-trip mismatch")
	}
	if len(got.NewState) != 0 {
		t.Fatal("unexpected state payload in update mode")
	}
}

// Property: flipping any single byte of a marshalled Signed makes it either
// fail to parse or fail verification — no mutation yields a different valid
// message.
func TestSignedMutationProperty(t *testing.T) {
	fx := newFixture(t)
	p := sampleProposal("alice")
	s := Sign(KindPropose, p.Marshal(), fx.alice, fx.tsa)
	buf := s.Marshal()

	f := func(idx uint, bit uint8) bool {
		mutated := append([]byte(nil), buf...)
		mutated[idx%uint(len(mutated))] ^= 1 << (bit % 8)
		if bytesEqual(mutated, buf) {
			return true
		}
		got, err := UnmarshalSigned(mutated)
		if err != nil {
			return true // clean parse failure
		}
		return got.Verify(fx.v) != nil
	}
	if err := quickCheck(f, 200); err != nil {
		t.Fatal(err)
	}
}

// Property: unmarshalling random garbage never panics and (almost) always
// errors; the rare parse "success" must still fail verification.
func TestUnmarshalRobustnessProperty(t *testing.T) {
	fx := newFixture(t)
	f := func(garbage []byte) bool {
		if s, err := UnmarshalSigned(garbage); err == nil {
			if s.Verify(fx.v) == nil && len(garbage) > 0 {
				return false
			}
		}
		_, _ = UnmarshalPropose(garbage)
		_, _ = UnmarshalRespond(garbage)
		_, _ = UnmarshalCommit(garbage)
		_, _ = UnmarshalEnvelope(garbage)
		_, _ = UnmarshalConnPropose(garbage)
		_, _ = UnmarshalWelcome(garbage)
		return true
	}
	if err := quickCheck(f, 300); err != nil {
		t.Fatal(err)
	}
}

func bytesEqual(a, b []byte) bool {
	return bytes.Equal(a, b)
}

func quickCheck(f interface{}, max int) error {
	return quick.Check(f, &quick.Config{MaxCount: max})
}

func TestMultiRoundTrip(t *testing.T) {
	frames := [][]byte{[]byte("one"), {}, []byte("three")}
	got, err := UnmarshalMulti(MarshalMulti(frames))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("round trip returned %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if string(got[i]) != string(frames[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], frames[i])
		}
	}
	if _, err := UnmarshalMulti([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestMultiCorruptCountRejected(t *testing.T) {
	// A hostile multi-frame envelope claiming 2^30 frames but carrying none:
	// decoding must fail fast without ballooning allocations.
	e := canon.NewEncoder()
	e.Struct("multi")
	e.List(1 << 30)
	if _, err := UnmarshalMulti(e.Out()); err == nil {
		t.Fatal("corrupt frame count accepted")
	}
}

// TestCommitMarshalEmbedding: the embedded proposal body MarshalEmbedding
// reports is the payload's own memory, holding the proposal's bytes.
func TestCommitMarshalEmbedding(t *testing.T) {
	fx := newFixture(t)
	sp := Sign(KindPropose, sampleProposal("alice").Marshal(), fx.alice, fx.tsa)
	sr := Sign(KindRespond, Respond{RunID: "run-1", Responder: "bob", Object: "order"}.Marshal(), fx.bob, fx.tsa)
	c := Commit{RunID: "run-1", Proposer: "alice", Object: "order", Auth: []byte("authenticator"),
		Propose: sp, Responds: []Signed{sr}}

	payload, embedded := c.MarshalEmbedding()
	if !bytes.Equal(payload, c.Marshal()) {
		t.Fatal("MarshalEmbedding's payload differs from Marshal's")
	}
	if !bytes.Equal(embedded, sp.Body) {
		t.Fatal("the reported proposal is not the proposal's body")
	}
	got, err := UnmarshalCommit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if &embedded[0] != &got.Propose.Body[0] || cap(embedded) != len(embedded) {
		t.Fatal("the reported proposal is not the payload's sub-slice that holds the body")
	}
}
