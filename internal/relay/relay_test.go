package relay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/wire"
)

// ---- sealing ----

func TestSealRoundtrip(t *testing.T) {
	keys := mustKeys(t)
	epoch, pub := keys.Public()
	if epoch != 1 {
		t.Fatalf("fresh keys at epoch %d, want 1", epoch)
	}
	plain := []byte("end-to-end signed envelope bytes")
	sealed, err := Seal(pub, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, plain) {
		t.Fatal("sealed blob contains the plaintext")
	}
	got, err := keys.Open(epoch, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("roundtrip mismatch: %q", got)
	}
}

func TestSealRejectsTampering(t *testing.T) {
	keys := mustKeys(t)
	epoch, pub := keys.Public()
	sealed, err := Seal(pub, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, sealKeyLen, sealKeyLen + sealNonceLen, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x01
		if _, err := keys.Open(epoch, bad); err == nil {
			t.Fatalf("tampered byte %d still opened", i)
		}
	}
	if _, err := keys.Open(epoch, sealed[:sealKeyLen+sealNonceLen]); err == nil {
		t.Fatal("truncated blob opened")
	}
}

// TestSealRotationForwardSecrecy pins the forward-secrecy contract: after
// two rotations, a blob sealed under epoch 1 is unreadable to EVERYONE —
// including the recipient who once held the key.
func TestSealRotationForwardSecrecy(t *testing.T) {
	keys := mustKeys(t)
	e1, pub1 := keys.Public()
	sealed, err := Seal(pub1, []byte("old secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := keys.Rotate(); err != nil { // epoch 2: e1 is "previous", still readable
		t.Fatal(err)
	}
	if _, err := keys.Open(e1, sealed); err != nil {
		t.Fatalf("previous-epoch blob should still open: %v", err)
	}
	if _, _, err := keys.Rotate(); err != nil { // epoch 3: e1's key is discarded
		t.Fatal(err)
	}
	if _, err := keys.Open(e1, sealed); !errors.Is(err, ErrSealEpoch) {
		t.Fatalf("discarded-epoch blob opened (err=%v), forward secrecy broken", err)
	}
	if _, err := keys.Open(99, sealed); !errors.Is(err, ErrSealEpoch) {
		t.Fatalf("future epoch accepted: %v", err)
	}
}

// ---- prekey directory ----

func TestDirectoryLearn(t *testing.T) {
	fx := newFixture(t, "alice", "bob", "relay")
	dir := NewDirectory(fx.verifier())
	alice := fx.idents["alice"]
	keys := mustKeys(t)

	pub1 := publishRaw(t, fx, alice, keys)
	if adv, err := dir.Learn(pub1); err != nil || !adv {
		t.Fatalf("fresh publication: adv=%v err=%v", adv, err)
	}
	epoch, pub, ok := dir.Lookup("alice")
	if !ok || epoch != 1 {
		t.Fatalf("lookup: epoch=%d ok=%v", epoch, ok)
	}
	_, want := keys.Public()
	if !bytes.Equal(pub, want) {
		t.Fatal("directory holds a different key than published")
	}

	// Duplicate epoch: no advance, no error (gossip must terminate).
	if adv, err := dir.Learn(pub1); err != nil || adv {
		t.Fatalf("duplicate publication: adv=%v err=%v", adv, err)
	}

	// Rotation advances; replaying the stale epoch afterwards is a no-op.
	if _, _, err := keys.Rotate(); err != nil {
		t.Fatal(err)
	}
	pub2 := publishRaw(t, fx, alice, keys)
	if adv, err := dir.Learn(pub2); err != nil || !adv {
		t.Fatalf("rotated publication: adv=%v err=%v", adv, err)
	}
	if adv, err := dir.Learn(pub1); err != nil || adv {
		t.Fatalf("stale epoch re-admitted: adv=%v err=%v", adv, err)
	}
	if got := dir.Epoch("alice"); got != 2 {
		t.Fatalf("epoch after rotation: %d", got)
	}

	// Snapshot carries the raw signed publications verbatim.
	snap := dir.Snapshot()
	if len(snap) != 1 || !bytes.Equal(snap[0], pub2) {
		t.Fatalf("snapshot: %d entries", len(snap))
	}
}

func TestDirectoryRejectsForgery(t *testing.T) {
	fx := newFixture(t, "alice", "mallory")
	dir := NewDirectory(fx.verifier())
	keys := mustKeys(t)

	// Mallory signs a prekey publication CLAIMING to be alice's key: the
	// signer/member mismatch must be rejected, or mallory could read
	// traffic parked for alice.
	epoch, pub := keys.Public()
	pk := wire.RelayPrekey{Member: "alice", Epoch: epoch, Pub: pub}
	forged := wire.Sign(wire.KindRelayPrekey, pk.Marshal(), fx.idents["mallory"], fx.tsa).Marshal()
	if _, err := dir.Learn(forged); err == nil {
		t.Fatal("signer/member mismatch admitted")
	}

	// A flipped byte in the signed blob must fail verification.
	honest := publishRaw(t, fx, fx.idents["alice"], keys)
	bad := append([]byte(nil), honest...)
	bad[len(bad)-1] ^= 0x01
	if _, err := dir.Learn(bad); err == nil {
		t.Fatal("tampered publication admitted")
	}
	if _, _, ok := dir.Lookup("alice"); ok {
		t.Fatal("directory advanced on rejected input")
	}
}

// ---- server + client over a loopback conn ----

// loopNet is a zero-latency in-process network: Send unmarshals the
// envelope and hands it to the destination's registered sink.
type loopNet struct {
	mu    sync.Mutex
	sinks map[string]func(from string, env wire.Envelope)
}

func newLoopNet() *loopNet { return &loopNet{sinks: make(map[string]func(string, wire.Envelope))} }

func (n *loopNet) register(id string, sink func(string, wire.Envelope)) Conn {
	n.mu.Lock()
	n.sinks[id] = sink
	n.mu.Unlock()
	return &loopConn{net: n, id: id}
}

type loopConn struct {
	net *loopNet
	id  string
}

func (c *loopConn) ID() string { return c.id }

func (c *loopConn) Send(_ context.Context, to string, payload []byte) error {
	env, err := wire.UnmarshalEnvelope(payload)
	if err != nil {
		return err
	}
	c.net.mu.Lock()
	sink := c.net.sinks[to]
	c.net.mu.Unlock()
	if sink == nil {
		return fmt.Errorf("loop: no such peer %s", to)
	}
	sink(c.id, env)
	return nil
}

// fixture bundles the crypto scaffolding every relay test needs.
type fixture struct {
	t      *testing.T
	clk    clock.Clock
	ca     *crypto.CA
	tsa    *crypto.TSA
	idents map[string]*crypto.Identity
}

func newFixture(t *testing.T, ids ...string) *fixture {
	t.Helper()
	clk := clock.Wall{}
	ca, err := crypto.NewCA("ca", clk, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := crypto.NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{t: t, clk: clk, ca: ca, tsa: tsa, idents: make(map[string]*crypto.Identity)}
	for _, id := range ids {
		ident, err := crypto.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		ca.Issue(ident)
		fx.idents[id] = ident
	}
	return fx
}

func (fx *fixture) verifier() *crypto.Verifier {
	v := crypto.NewVerifier(fx.ca, fx.tsa)
	for _, ident := range fx.idents {
		if err := v.AddCertificate(ident.Certificate()); err != nil {
			fx.t.Fatal(err)
		}
	}
	return v
}

func mustKeys(t *testing.T) *SealKeys {
	t.Helper()
	keys, err := NewSealKeys()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func publishRaw(t *testing.T, fx *fixture, ident *crypto.Identity, keys *SealKeys) []byte {
	t.Helper()
	epoch, pub := keys.Public()
	pk := wire.RelayPrekey{Member: ident.ID(), Epoch: epoch, Pub: pub}
	return wire.Sign(wire.KindRelayPrekey, pk.Marshal(), ident, fx.tsa).Marshal()
}

// harness wires one relay server and a set of clients over a loopNet.
type harness struct {
	fx      *fixture
	net     *loopNet
	server  *Server
	clients map[string]*Client
	inbox   map[string]*inbox
}

type inbox struct {
	mu   sync.Mutex
	msgs [][]byte
	from []string
}

func (ib *inbox) inject(from string, envelope []byte) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.msgs = append(ib.msgs, append([]byte(nil), envelope...))
	ib.from = append(ib.from, from)
}

func (ib *inbox) count() int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.msgs)
}

func newHarness(t *testing.T, serverCfg ServerConfig, members ...string) *harness {
	t.Helper()
	ids := append([]string{"relay"}, members...)
	fx := newFixture(t, ids...)
	h := &harness{fx: fx, net: newLoopNet(), clients: make(map[string]*Client), inbox: make(map[string]*inbox)}

	serverCfg.Verifier = fx.verifier()
	srv, err := NewServer(serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	serverCfg.Conn = h.net.register("relay", srv.HandleEnvelope)
	srv.cfg.Conn = serverCfg.Conn
	h.server = srv
	t.Cleanup(func() { srv.Close() })

	for _, m := range members {
		ib := &inbox{}
		h.inbox[m] = ib
		var cl *Client
		conn := h.net.register(m, func(from string, env wire.Envelope) { cl.HandleEnvelope(from, env) })
		cl, err := NewClient(ClientConfig{
			Ident:  fx.idents[m],
			TSA:    fx.tsa,
			Conn:   conn,
			Relay:  "relay",
			Keys:   mustKeys(t),
			Dir:    NewDirectory(fx.verifier()),
			Inject: ib.inject,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.clients[m] = cl
	}
	// Everyone learns everyone's prekeys (the group plane's Welcome carries
	// these in production; here we shortcut the exchange).
	for _, m := range members {
		raw := publishRaw(t, fx, fx.idents[m], h.clients[m].cfg.Keys)
		for _, o := range members {
			if _, err := h.clients[o].cfg.Dir.Learn(raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h
}

// envelopeFor builds a marshalled protocol envelope from → to, as the core
// runtime would hand to the spill path.
func envelopeFor(from, to, payload string) []byte {
	env := wire.Envelope{MsgID: payload, From: from, To: to, Kind: wire.KindPropose, Payload: []byte(payload)}
	return env.Marshal()
}

func TestServerDepositPollDrain(t *testing.T) {
	h := newHarness(t, ServerConfig{}, "alice", "bob")
	ctx := context.Background()

	const n = 150 // more than one MaxRelayBatchEntries page
	for i := 0; i < n; i++ {
		if err := h.clients["alice"].Deposit(ctx, "bob", envelopeFor("alice", "bob", fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := h.server.Depth("bob"); d != n {
		t.Fatalf("depth after deposits: %d", d)
	}

	delivered, err := h.clients["bob"].Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != n {
		t.Fatalf("drained %d, want %d", delivered, n)
	}
	if got := h.inbox["bob"].count(); got != n {
		t.Fatalf("injected %d, want %d", got, n)
	}
	// Delivery is FIFO and addressed correctly.
	ib := h.inbox["bob"]
	for i, raw := range ib.msgs {
		env, err := wire.UnmarshalEnvelope(raw)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m%03d", i); string(env.Payload) != want {
			t.Fatalf("entry %d: got %q want %q", i, env.Payload, want)
		}
		if ib.from[i] != "alice" {
			t.Fatalf("entry %d from %q", i, ib.from[i])
		}
	}
	// The drain's cumulative acks emptied the mailbox.
	if d := h.server.Depth("bob"); d != 0 {
		t.Fatalf("mailbox depth after drain: %d", d)
	}
	// Draining again is a clean no-op.
	if again, err := h.clients["bob"].Drain(ctx); err != nil || again != 0 {
		t.Fatalf("re-drain: n=%d err=%v", again, err)
	}
}

// TestServerOpaqueToOperator pins the trust model: the operator's view of a
// mailbox (Entries) never contains deposit plaintext, and after the
// recipient rotates twice even the RECIPIENT's discarded key can't open
// what was parked under the old epoch.
func TestServerOpaqueToOperator(t *testing.T) {
	h := newHarness(t, ServerConfig{}, "alice", "bob")
	ctx := context.Background()

	secret := "the content of this proposal is confidential"
	if err := h.clients["alice"].Deposit(ctx, "bob", envelopeFor("alice", "bob", secret)); err != nil {
		t.Fatal(err)
	}
	ents := h.server.Entries("bob")
	if len(ents) != 1 {
		t.Fatalf("parked %d entries", len(ents))
	}
	if bytes.Contains(ents[0].Sealed, []byte(secret)) {
		t.Fatal("operator view exposes deposit plaintext")
	}

	// Bob rotates twice without draining: the epoch-1 key is discarded, so
	// the parked blob is now unreadable to everyone — a relay operator who
	// later compromises bob's current keys still cannot read it.
	bob := h.clients["bob"]
	if err := bob.Rotate(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := bob.Rotate(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.cfg.Keys.Open(ents[0].Epoch, ents[0].Sealed); !errors.Is(err, ErrSealEpoch) {
		t.Fatalf("prior-epoch deposit still opens: %v", err)
	}
	// Draining skips (and still acknowledges) the unreadable entry.
	delivered, err := bob.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d unreadable entries", delivered)
	}
	if d := h.server.Depth("bob"); d != 0 {
		t.Fatalf("unreadable entry left parked: depth %d", d)
	}
}

func TestServerEvictionUnderCaps(t *testing.T) {
	log := nrlog.NewMemory(clock.NewSim(time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)))
	h := newHarness(t, ServerConfig{MaxMailboxMsgs: 8, Log: log}, "alice", "bob")
	ctx := context.Background()

	for i := 0; i < 20; i++ {
		if err := h.clients["alice"].Deposit(ctx, "bob", envelopeFor("alice", "bob", fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := h.server.Depth("bob"); d != 8 {
		t.Fatalf("depth %d, want cap 8", d)
	}
	// The SURVIVORS are the newest deposits, in order.
	delivered, err := h.clients["bob"].Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 8 {
		t.Fatalf("drained %d", delivered)
	}
	env, err := wire.UnmarshalEnvelope(h.inbox["bob"].msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Payload) != "m12" {
		t.Fatalf("oldest survivor %q, want m12", env.Payload)
	}
	// Eviction left evidence.
	entries, err := log.Entries()
	if err != nil {
		t.Fatal(err)
	}
	evicted := 0
	for _, e := range entries {
		if e.Kind == "relay-evict" {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no relay-evict evidence recorded")
	}
}

func TestServerRejectsUnauthorizedPoll(t *testing.T) {
	h := newHarness(t, ServerConfig{}, "alice", "bob", "mallory")
	ctx := context.Background()
	if err := h.clients["alice"].Deposit(ctx, "bob", envelopeFor("alice", "bob", "for bob only")); err != nil {
		t.Fatal(err)
	}

	// Mallory polls for BOB's mailbox with a high ack bound — signed by
	// mallory, so the recipient/signer check must refuse to delete
	// anything (an unauthenticated deletion path would let anyone empty
	// any mailbox).
	poll := wire.RelayPoll{Recipient: "bob", AckThrough: 99, Max: 16}
	signed := wire.Sign(wire.KindRelayPoll, poll.Marshal(), h.fx.idents["mallory"], h.fx.tsa)
	mc := h.clients["mallory"]
	if err := sendEnvelope(ctx, mc.cfg.Conn, "relay", wire.KindRelayPoll, signed.Marshal()); err != nil {
		t.Fatal(err)
	}
	if d := h.server.Depth("bob"); d != 1 {
		t.Fatalf("forged poll deleted mail: depth %d", d)
	}
	// Bob still receives his message.
	if n, err := h.clients["bob"].Drain(ctx); err != nil || n != 1 {
		t.Fatalf("drain after forged poll: n=%d err=%v", n, err)
	}
}

func TestServerDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, ServerConfig{Dir: dir}, "alice", "bob")
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if err := h.clients["alice"].Deposit(ctx, "bob", envelopeFor("alice", "bob", fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if h.server.DiskUsage() <= 0 {
		t.Fatal("durable server reports no disk usage")
	}
	// Drain one page of 4, then "crash" the relay (bob keeps his keys —
	// only the relay restarts).
	pollPage(t, ctx, h, "bob", 4)
	if err := h.server.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen on the same directory: the replayed mailbox must hold exactly
	// the undelivered suffix, and sequence numbering must not regress.
	srv2, err := NewServer(ServerConfig{Dir: dir, Verifier: h.fx.verifier()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.cfg.Conn = h.net.register("relay", srv2.HandleEnvelope)
	h.server = srv2

	if d := srv2.Depth("bob"); d != 6 {
		t.Fatalf("depth after replay: %d, want 6", d)
	}
	n, err := h.clients["bob"].Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("post-restart drain delivered %d, want 6", n)
	}
	// No duplicates: bob saw each of the 10 messages exactly once.
	seen := map[string]int{}
	for _, raw := range h.inbox["bob"].msgs {
		env, err := wire.UnmarshalEnvelope(raw)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(env.Payload)]++
	}
	if len(seen) != 10 {
		t.Fatalf("saw %d distinct messages, want 10", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("message %s delivered %d times", k, c)
		}
	}
	// Fresh deposits continue the sequence; compaction keeps the live set.
	if err := h.clients["alice"].Deposit(ctx, "bob", envelopeFor("alice", "bob", "m10")); err != nil {
		t.Fatal(err)
	}
	if d := srv2.Depth("bob"); d != 1 {
		t.Fatalf("depth after fresh deposit: %d", d)
	}
}

// pollPage drains exactly one bounded page without finishing the loop, to
// leave a partially-acknowledged mailbox behind.
func pollPage(t *testing.T, ctx context.Context, h *harness, member string, max uint64) {
	t.Helper()
	c := h.clients[member]
	c.mu.Lock()
	acked := c.acked
	c.mu.Unlock()
	ch := make(chan wire.RelayBatch, 1)
	c.mu.Lock()
	c.pending = ch
	c.mu.Unlock()
	poll := wire.RelayPoll{Recipient: member, AckThrough: acked, Max: max}
	signed := wire.Sign(wire.KindRelayPoll, poll.Marshal(), h.fx.idents[member], h.fx.tsa)
	if err := sendEnvelope(ctx, c.cfg.Conn, "relay", wire.KindRelayPoll, signed.Marshal()); err != nil {
		t.Fatal(err)
	}
	batch := <-ch
	for _, en := range batch.Entries {
		c.mu.Lock()
		if en.Seq > c.acked {
			c.acked = en.Seq
		}
		c.mu.Unlock()
		plain, err := c.cfg.Keys.Open(en.Epoch, en.Sealed)
		if err != nil {
			t.Fatal(err)
		}
		c.cfg.Inject(member, plain)
	}
	// Push the ack bound to the server so the page is really deleted.
	ack := wire.RelayPoll{Recipient: member, AckThrough: c.acked, Max: 0}
	signedAck := wire.Sign(wire.KindRelayPoll, ack.Marshal(), h.fx.idents[member], h.fx.tsa)
	c.mu.Lock()
	c.pending = ch
	c.mu.Unlock()
	if err := sendEnvelope(ctx, c.cfg.Conn, "relay", wire.KindRelayPoll, signedAck.Marshal()); err != nil {
		t.Fatal(err)
	}
	<-ch
}

func TestClientDepositRequiresPrekey(t *testing.T) {
	h := newHarness(t, ServerConfig{}, "alice")
	if err := h.clients["alice"].Deposit(context.Background(), "stranger", []byte("x")); !errors.Is(err, ErrNoPrekey) {
		t.Fatalf("deposit without prekey: %v", err)
	}

	fx := newFixture(t, "solo")
	cl, err := NewClient(ClientConfig{
		Ident: fx.idents["solo"],
		TSA:   fx.tsa,
		Conn:  &loopConn{net: newLoopNet(), id: "solo"},
		Keys:  mustKeys(t),
		Dir:   NewDirectory(fx.verifier()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Deposit(context.Background(), "anyone", []byte("x")); !errors.Is(err, ErrNoRelay) {
		t.Fatalf("deposit without relay: %v", err)
	}
	if n, err := cl.Drain(context.Background()); err != nil || n != 0 {
		t.Fatalf("drain without relay: n=%d err=%v", n, err)
	}
}

// recordConn counts the frames sent to each peer.
type recordConn struct {
	id   string
	sent map[string]int
}

func (c *recordConn) ID() string { return c.id }

func (c *recordConn) Send(_ context.Context, to string, _ []byte) error {
	c.sent[to]++
	return nil
}

// TestPublishPrekeySendsEachTargetOnce: a relay host that is also listed
// among the peers gets one copy of the publication, not two, and the
// publisher sends none to itself.
func TestPublishPrekeySendsEachTargetOnce(t *testing.T) {
	fx := newFixture(t, "alice")
	conn := &recordConn{id: "alice", sent: make(map[string]int)}
	cl, err := NewClient(ClientConfig{
		Ident: fx.idents["alice"],
		TSA:   fx.tsa,
		Conn:  conn,
		Relay: "hub",
		Keys:  mustKeys(t),
		Dir:   NewDirectory(fx.verifier()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PublishPrekey(context.Background(), []string{"hub", "alice", "bob", "bob"}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"hub": 1, "bob": 1}
	if fmt.Sprint(conn.sent) != fmt.Sprint(want) {
		t.Fatalf("frames sent per peer = %v, want %v", conn.sent, want)
	}
}
