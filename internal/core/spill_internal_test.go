package core

// White-box tests for the outbound spill path (spillConn): below the
// MaxPendingToPeer bound sends pass through; above it they are parked at
// the relay when a deposit function is installed, or shed with evidence
// when none is — and in neither case does the transport outbox grow.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

// spillFakeConn is a Conn + pendingPeers stub with a settable backlog.
type spillFakeConn struct {
	mu      sync.Mutex
	sent    [][]byte
	backlog map[string]int
}

func (c *spillFakeConn) ID() string { return "self" }

func (c *spillFakeConn) Send(_ context.Context, to string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent = append(c.sent, append([]byte(nil), payload...))
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

func newSpillParticipant(t *testing.T, conn Conn, log nrlog.Log, q QuotaPolicy) *Participant {
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
	ident, err := crypto.NewIdentity("self")
	if err != nil {
		t.Fatal(err)
	}
	ca.Issue(ident)
	p, err := New(Config{
		Ident:    ident,
		Verifier: crypto.NewVerifier(ca, tsa),
		TSA:      tsa,
		Conn:     conn,
		Log:      log,
		Store:    store.NewMemory(),
		Clock:    clk,
		Quotas:   q,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func countEvidence(t *testing.T, log *nrlog.Memory, kind string) int {
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
	log := nrlog.NewMemory(clock.NewSim(time.Unix(0, 0)))
	p := newSpillParticipant(t, conn, log, QuotaPolicy{MaxPendingToPeer: 4})

	if err := p.sendConn.Send(context.Background(), "peer", spillPayload("obj")); err != nil {
		t.Fatal(err)
	}
	if got := conn.sentCount(); got != 1 {
		t.Fatalf("send under bound not passed through: %d sends", got)
	}

	// Zero quota: never consults backlog, always passes through.
	conn2 := &spillFakeConn{backlog: map[string]int{"peer": 1 << 20}}
	p2 := newSpillParticipant(t, conn2, nrlog.NewMemory(clock.NewSim(time.Unix(0, 0))), QuotaPolicy{})
	if err := p2.sendConn.Send(context.Background(), "peer", spillPayload("obj")); err != nil {
		t.Fatal(err)
	}
	if got := conn2.sentCount(); got != 1 {
		t.Fatalf("send with zero quota not passed through: %d sends", got)
	}
}

func TestSpillShedsWithEvidenceWithoutRelay(t *testing.T) {
	conn := &spillFakeConn{backlog: map[string]int{"peer": 8}}
	log := nrlog.NewMemory(clock.NewSim(time.Unix(0, 0)))
	p := newSpillParticipant(t, conn, log, QuotaPolicy{MaxPendingToPeer: 8})

	if err := p.sendConn.Send(context.Background(), "peer", spillPayload("obj")); err != nil {
		t.Fatal(err)
	}
	if got := conn.sentCount(); got != 0 {
		t.Fatalf("over-bound send reached the transport: %d sends", got)
	}
	if got := countEvidence(t, log, "pending-shed"); got != 1 {
		t.Fatalf("pending-shed evidence entries: %d", got)
	}
	// The evidence names the object so the shed is attributable per tenant.
	entries, _ := log.Entries()
	for _, e := range entries {
		if e.Kind == "pending-shed" && e.Object != "obj" {
			t.Fatalf("shed evidence for object %q", e.Object)
		}
	}
}

func TestSpillParksToRelay(t *testing.T) {
	conn := &spillFakeConn{backlog: map[string]int{"peer": 8}}
	log := nrlog.NewMemory(clock.NewSim(time.Unix(0, 0)))
	p := newSpillParticipant(t, conn, log, QuotaPolicy{MaxPendingToPeer: 8})

	var mu sync.Mutex
	var deposits [][]byte
	p.SetRelayDeposit(func(_ context.Context, to string, envelope []byte) error {
		if to != "peer" {
			t.Errorf("deposit addressed to %q", to)
		}
		mu.Lock()
		deposits = append(deposits, envelope)
		mu.Unlock()
		return nil
	})
	payload := spillPayload("obj")
	if err := p.sendConn.Send(context.Background(), "peer", payload); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	nd := len(deposits)
	mu.Unlock()
	if nd != 1 {
		t.Fatalf("deposits: %d", nd)
	}
	if conn.sentCount() != 0 {
		t.Fatal("parked send also reached the transport")
	}
	if got := countEvidence(t, log, "relay-park"); got != 1 {
		t.Fatalf("relay-park evidence entries: %d", got)
	}
	if got := countEvidence(t, log, "pending-shed"); got != 0 {
		t.Fatalf("unexpected pending-shed entries: %d", got)
	}

	// A failing deposit (no prekey, relay gone) falls back to shedding.
	p.SetRelayDeposit(func(context.Context, string, []byte) error {
		return errors.New("relay: no prekey known for recipient")
	})
	if err := p.sendConn.Send(context.Background(), "peer", payload); err != nil {
		t.Fatal(err)
	}
	if got := countEvidence(t, log, "pending-shed"); got != 1 {
		t.Fatalf("pending-shed after failed deposit: %d", got)
	}
}

func TestDispatchRoutesRelayKinds(t *testing.T) {
	conn := &spillFakeConn{backlog: map[string]int{}}
	log := nrlog.NewMemory(clock.NewSim(time.Unix(0, 0)))
	p := newSpillParticipant(t, conn, log, QuotaPolicy{})

	env := wire.Envelope{MsgID: "m1", From: "peer", To: "self", Kind: wire.KindRelayBatch, Payload: []byte("x")}

	// Without a handler: dropped with evidence, not routed to bindings.
	p.dispatch("peer", env.Marshal())
	if got := countEvidence(t, log, "relay-unbound"); got != 1 {
		t.Fatalf("relay-unbound evidence entries: %d", got)
	}

	var mu sync.Mutex
	var got []wire.Envelope
	p.SetRelayHandler(func(from string, env wire.Envelope) {
		if from != "peer" {
			t.Errorf("relay envelope from %q", from)
		}
		mu.Lock()
		got = append(got, env)
		mu.Unlock()
	})
	for _, k := range []wire.Kind{wire.KindRelayDeposit, wire.KindRelayPoll, wire.KindRelayBatch, wire.KindRelayPrekey} {
		e := env
		e.Kind = k
		p.dispatch("peer", e.Marshal())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 {
		t.Fatalf("relay handler saw %d envelopes, want 4", len(got))
	}
	// Protocol kinds still go to binding dispatch (here: unbound-object).
	p.dispatch("peer", spillPayload("nobody-bound-this"))
	if got := countEvidence(t, log, "unbound-object"); got != 1 {
		t.Fatalf("unbound-object evidence entries: %d", got)
	}
}
