package core

// White-box tests for the relay plane's integration: the outbound spill path
// (spillConn) and inbound relay-kind routing. Below the MaxPendingToPeer
// bound sends pass through; above it they are parked at the relay when the
// participant has a relay client that can seal to the recipient, or shed
// with evidence when it has none or cannot — and in neither case does the
// transport outbox grow. Deposits and polls reach the hosted mailbox
// service, batches and prekeys the member's client.

import (
	"context"
	"sync"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/relay"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

// spillFakeConn is a Conn + pendingPeers stub with a settable backlog. It
// records every send with its destination; with loop set, a send addressed
// to the participant itself is handed back to loop asynchronously, as a
// network would deliver it.
type spillFakeConn struct {
	mu      sync.Mutex
	sent    []sentFrame
	backlog map[string]int
	loop    func(payload []byte)
}

type sentFrame struct {
	to      string
	payload []byte
}

func (c *spillFakeConn) ID() string { return "self" }

func (c *spillFakeConn) Send(_ context.Context, to string, payload []byte) error {
	c.mu.Lock()
	c.sent = append(c.sent, sentFrame{to: to, payload: append([]byte(nil), payload...)})
	loop := c.loop
	c.mu.Unlock()
	if loop != nil && to == c.ID() {
		go loop(payload)
	}
	return nil
}

func (c *spillFakeConn) SetHandler(transport.Handler) {}
func (c *spillFakeConn) Close() error                 { return nil }

func (c *spillFakeConn) PendingTo(to string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backlog[to]
}

func (c *spillFakeConn) sentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sent)
}

// sentTo returns the payloads sent to one destination, in order.
func (c *spillFakeConn) sentTo(to string) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	for _, f := range c.sent {
		if f.to == to {
			out = append(out, f.payload)
		}
	}
	return out
}

// newSpillParticipant builds participant "self" over conn from cfg's
// policies. Its verifier also knows a certified "peer", whose signed prekey
// publication is returned for the relay client to learn.
func newSpillParticipant(t *testing.T, conn Conn, cfg Config) (*Participant, []byte) {
	t.Helper()
	clk := clock.Wall{}
	ca, err := crypto.NewCA("ca", clk, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := crypto.NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	v := crypto.NewVerifier(ca, tsa)
	idents := make(map[string]*crypto.Identity)
	for _, id := range []string{"self", "peer"} {
		ident, err := crypto.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		ca.Issue(ident)
		if err := v.AddCertificate(ident.Certificate()); err != nil {
			t.Fatal(err)
		}
		idents[id] = ident
	}
	keys, err := relay.NewSealKeys()
	if err != nil {
		t.Fatal(err)
	}
	epoch, pub := keys.Public()
	prekey := wire.Sign(wire.KindRelayPrekey, wire.RelayPrekey{Member: "peer", Epoch: epoch, Pub: pub}.Marshal(), idents["peer"], tsa).Marshal()

	cfg.Ident, cfg.Verifier, cfg.TSA, cfg.Conn, cfg.Clock = idents["self"], v, tsa, conn, clk
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, prekey
}

func countEvidence(t *testing.T, log nrlog.Log, kind string) int {
	t.Helper()
	entries, err := log.Entries()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func spillPayload(object string) []byte {
	return wire.Envelope{MsgID: "m1", From: "self", To: "peer", Object: object, Kind: wire.KindPropose}.Marshal()
}

func TestSpillPassthroughUnderBound(t *testing.T) {
	conn := &spillFakeConn{backlog: map[string]int{"peer": 3}}
	p, _ := newSpillParticipant(t, conn, Config{Quotas: QuotaPolicy{MaxPendingToPeer: 4}})

	if err := p.sendConn.Send(context.Background(), "peer", spillPayload("obj")); err != nil {
		t.Fatal(err)
	}
	if got := conn.sentCount(); got != 1 {
		t.Fatalf("send under bound not passed through: %d sends", got)
	}

	// Zero quota: never consults backlog, always passes through.
	conn2 := &spillFakeConn{backlog: map[string]int{"peer": 1 << 20}}
	p2, _ := newSpillParticipant(t, conn2, Config{})
	if err := p2.sendConn.Send(context.Background(), "peer", spillPayload("obj")); err != nil {
		t.Fatal(err)
	}
	if got := conn2.sentCount(); got != 1 {
		t.Fatalf("send with zero quota not passed through: %d sends", got)
	}
}

func TestSpillShedsWithEvidenceWithoutRelay(t *testing.T) {
	conn := &spillFakeConn{backlog: map[string]int{"peer": 8}}
	p, _ := newSpillParticipant(t, conn, Config{Quotas: QuotaPolicy{MaxPendingToPeer: 8}})

	if err := p.sendConn.Send(context.Background(), "peer", spillPayload("obj")); err != nil {
		t.Fatal(err)
	}
	if got := conn.sentCount(); got != 0 {
		t.Fatalf("over-bound send reached the transport: %d sends", got)
	}
	if got := countEvidence(t, p.Log(), "pending-shed"); got != 1 {
		t.Fatalf("pending-shed evidence entries: %d", got)
	}
	// The evidence names the object so the shed is attributable per tenant.
	entries, _ := p.Log().Entries()
	for _, e := range entries {
		if e.Kind == "pending-shed" && e.Object != "obj" {
			t.Fatalf("shed evidence for object %q", e.Object)
		}
	}
}

func TestSpillParksToRelay(t *testing.T) {
	conn := &spillFakeConn{backlog: map[string]int{"peer": 8}}
	cfg := Config{Quotas: QuotaPolicy{MaxPendingToPeer: 8}, Relay: "hub"}
	p, prekey := newSpillParticipant(t, conn, cfg)
	if _, err := p.RelayClient().Directory().Learn(prekey); err != nil {
		t.Fatal(err)
	}

	payload := spillPayload("obj")
	if err := p.sendConn.Send(context.Background(), "peer", payload); err != nil {
		t.Fatal(err)
	}
	deposits := conn.sentTo("hub")
	if len(deposits) != 1 {
		t.Fatalf("deposits: %d", len(deposits))
	}
	env, err := wire.UnmarshalEnvelope(deposits[0])
	if err != nil || env.Kind != wire.KindRelayDeposit {
		t.Fatalf("relay received %v (err %v), want a deposit", env.Kind, err)
	}
	if dep, err := wire.UnmarshalRelayDeposit(env.Payload); err != nil || dep.Recipient != "peer" {
		t.Errorf("deposit addressed to %q (err %v)", dep.Recipient, err)
	}
	if len(conn.sentTo("peer")) != 0 {
		t.Fatal("parked send also reached the transport")
	}
	if got := countEvidence(t, p.Log(), "relay-park"); got != 1 {
		t.Fatalf("relay-park evidence entries: %d", got)
	}
	if got := countEvidence(t, p.Log(), "pending-shed"); got != 0 {
		t.Fatalf("unexpected pending-shed entries: %d", got)
	}

	// A failing deposit (no prekey known for the recipient) falls back to
	// shedding.
	conn2 := &spillFakeConn{backlog: map[string]int{"peer": 8}}
	p2, _ := newSpillParticipant(t, conn2, cfg)
	if err := p2.sendConn.Send(context.Background(), "peer", payload); err != nil {
		t.Fatal(err)
	}
	if got := countEvidence(t, p2.Log(), "pending-shed"); got != 1 {
		t.Fatalf("pending-shed after failed deposit: %d", got)
	}
	if got := conn2.sentCount(); got != 0 {
		t.Fatalf("failed deposit still sent %d frames", got)
	}
}

func TestDispatchRoutesRelayKinds(t *testing.T) {
	conn := &spillFakeConn{backlog: map[string]int{}}
	p, _ := newSpillParticipant(t, conn, Config{})

	env := wire.Envelope{MsgID: "m1", From: "peer", To: "self", Kind: wire.KindRelayBatch, Payload: []byte("x")}

	// Without a relay: dropped with evidence, not routed to bindings.
	p.dispatch("peer", env.Marshal())
	if got := countEvidence(t, p.Log(), "relay-unbound"); got != 1 {
		t.Fatalf("relay-unbound evidence entries: %d", got)
	}
	for _, k := range []wire.Kind{wire.KindRelayDeposit, wire.KindRelayPoll, wire.KindRelayPrekey} {
		e := env
		e.Kind = k
		p.dispatch("peer", e.Marshal())
	}
	if got := countEvidence(t, p.Log(), "relay-unbound"); got != 4 {
		t.Fatalf("relay-unbound evidence entries after all four kinds: %d", got)
	}
	// Protocol kinds still go to binding dispatch (here: unbound-object).
	p.dispatch("peer", spillPayload("nobody-bound-this"))
	if got := countEvidence(t, p.Log(), "unbound-object"); got != 1 {
		t.Fatalf("unbound-object evidence entries: %d", got)
	}

	// A host that is no member drops member-side kinds without evidence.
	host, _ := newSpillParticipant(t, &spillFakeConn{}, Config{RelayHost: &RelayHost{}})
	for _, k := range []wire.Kind{wire.KindRelayBatch, wire.KindRelayPrekey} {
		e := env
		e.Kind = k
		host.dispatch("peer", e.Marshal())
	}
	if got := countEvidence(t, host.Log(), "relay-unbound"); got != 0 {
		t.Fatalf("relay host logged %d relay-unbound entries", got)
	}
}

// TestRelayHostAndMemberRoutesBothWays: a party that hosts the relay and is
// also a member of it (its own relay) routes deposits and polls to its
// mailbox service and batches and prekeys to its client. The fake
// connection delivers self-addressed frames back into dispatch, so a deposit,
// the drain's polls and the mailbox's batches all take the inbound path.
func TestRelayHostAndMemberRoutesBothWays(t *testing.T) {
	conn := &spillFakeConn{backlog: map[string]int{}}
	p, prekey := newSpillParticipant(t, conn, Config{Relay: "self", RelayHost: &RelayHost{}})
	conn.mu.Lock()
	conn.loop = func(payload []byte) { p.dispatch("self", payload) }
	conn.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Prekey publication → client directory.
	p.dispatch("peer", wire.Envelope{MsgID: "pk", From: "peer", To: "self", Kind: wire.KindRelayPrekey, Payload: prekey}.Marshal())
	if _, _, ok := p.RelayClient().Directory().Lookup("peer"); !ok {
		t.Fatal("prekey publication did not reach the relay client")
	}

	// Deposit → hosted mailbox. Publishing learns self's own prekey (the
	// relay is self, so nothing is sent).
	if err := p.RelayClient().PublishPrekey(ctx, nil); err != nil {
		t.Fatal(err)
	}
	parked := wire.Envelope{MsgID: "m1", From: "peer", To: "self", Object: "obj", Kind: wire.KindPropose}.Marshal()
	if err := p.RelayClient().Deposit(ctx, "self", parked); err != nil {
		t.Fatal(err)
	}
	for p.RelayServer().Depth("self") != 1 {
		if ctx.Err() != nil {
			t.Fatal("deposit never reached the hosted mailbox")
		}
		time.Sleep(time.Millisecond)
	}

	// Polls → mailbox service, batches → client: the drain delivers the
	// parked envelope into binding dispatch.
	n, err := p.RelayClient().Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("drain delivered %d envelopes, want 1", n)
	}
	if got := p.RelayServer().Depth("self"); got != 0 {
		t.Fatalf("mailbox depth after drain: %d", got)
	}
	if got := countEvidence(t, p.Log(), "unbound-object"); got != 1 {
		t.Fatalf("drained envelope reached binding dispatch %d times, want 1", got)
	}
	if got := countEvidence(t, p.Log(), "relay-unbound"); got != 0 {
		t.Fatalf("relay-unbound evidence entries: %d", got)
	}
}
