package lab

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/core"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

// These are the relay-plane end-to-end scenarios: a member of a majority-
// termination group sleeps through committed runs behind a partition, and
// the group's traffic toward it spills — once its transport backlog crosses
// the quota — into a sealed mailbox on an untrusted relay host. On
// reconnect the member drains the mailbox (normal inbound dispatch, full
// signature verification) and catch-up covers whatever the mailbox did not
// retain. The relay host is a plain party that is not a group member and
// never sees plaintext.

const relayObj = "ledger"

// proposeRelayRuns drives n update runs from party `from`, returning the
// expected appended state (AcceptAllValidator semantics).
func proposeRelayRuns(ctx context.Context, t *testing.T, w *World, from string, state []byte, n int) []byte {
	t.Helper()
	for i := 0; i < n; i++ {
		upd := []byte(fmt.Sprintf("update-%02d;secret-sauce;", i))
		state = append(state, upd...)
		if _, err := w.Party(from).Engine(relayObj).ProposeUpdate(ctx, upd); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	return state
}

// TestRelayOfflineMemberReconnectDrain: d sleeps behind a partition while
// the majority commits W runs; its share of the traffic parks sealed at the
// relay. The proposer (d's would-be serving sponsor) then dies, the
// partition heals, and d converges with only the relay drain and catch-up
// from the surviving minority — the mailbox is empty afterwards and the
// relay operator never saw plaintext.
func TestRelayOfflineMemberReconnectDrain(t *testing.T) {
	const runs = 8
	w, err := NewWorld(Options{
		Seed:             91,
		Termination:      coord.Majority,
		ResponseDeadline: 250 * time.Millisecond,
		Relay:            "hub",
		RelayMaxMsgs:     1024,
		Quotas:           core.QuotaPolicy{MaxPendingToPeer: 4},
		Transfer:         xfer.Policy{RequestTimeout: 150 * time.Millisecond},
	}, "a", "b", "c", "d", "hub")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(relayObj, func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	state := []byte("genesis;")
	if err := w.Bootstrap(relayObj, state, []string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// d goes dark; the relay stays reachable from the majority side.
	w.Net.Partition([]string{"a", "b", "c", "hub"}, []string{"d"})
	state = proposeRelayRuns(ctx, t, w, "a", state, runs)
	if err := w.WaitAgreed(relayObj, []string{"a", "b", "c"}, state, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// The overflow of d's transport backlog must have parked at the relay,
	// within the mailbox bound, and sealed: the operator's view of the
	// mailbox must not contain the update plaintext (nor even the envelope
	// metadata — the whole envelope is sealed).
	hub := w.Party("hub").RelayServer
	depth := hub.Depth("d")
	if depth == 0 {
		t.Fatal("no traffic parked for the offline member")
	}
	if depth > 1024 {
		t.Fatalf("mailbox depth %d exceeds cap", depth)
	}
	for _, e := range hub.Entries("d") {
		if bytes.Contains(e.Sealed, []byte("secret-sauce")) || bytes.Contains(e.Sealed, []byte(relayObj)) {
			t.Fatal("relay operator can read a parked envelope")
		}
	}

	// The proposer dies before d comes back: convergence may use only the
	// relay mailbox and catch-up served by the surviving members.
	w.Crash("a")
	w.Net.Heal()

	n, err := w.Party("d").Relay.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n == 0 {
		t.Fatal("drain delivered nothing")
	}
	// Catch-up covers the prefix the crashed proposer's outbox took with it
	// (frames under the spill quota were never parked).
	if _, err := w.Party("d").Xfer(relayObj).CatchUp(ctx); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if err := w.WaitAgreed(relayObj, []string{"b", "c", "d"}, state, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := hub.Depth("d"); got != 0 {
		t.Fatalf("mailbox not empty after convergence: depth %d", got)
	}
}

// TestRelayDrainAmplification is the reconnect drain's byte bar: a sealed
// backlog parks at the relay for a cut-off member, the partition heals, and
// the member drains it. Every byte the network delivers during the drain —
// batches, polls, transport acks and any retransmissions — counts against
// the parked bytes, so a retransmit storm shows up as amplification. Bars:
// every deposit is drained, the mailbox ends empty, and the drain delivers
// at most twice the parked bytes.
func TestRelayDrainAmplification(t *testing.T) {
	const (
		backlog          = 1024
		payloadBytes     = 512
		maxAmplification = 2.0
	)
	ids := []string{"a", "b", "c", "d"}
	// The backlog fills d's mailbox to the default cap without evicting.
	w, err := NewWorld(Options{Seed: 220, Relay: "hub"}, append(ids, "hub")...)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(relayObj, func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(relayObj, []byte("genesis;"), ids); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Prekey publications ride the network like any other frame: a must
	// know d's sealing key before d is cut off.
	for {
		if _, _, ok := w.Party("a").Relay.Directory().Lookup("d"); ok {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("d's prekey never reached a")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// d goes dark; a parks the backlog. Each deposit is a well-formed
	// envelope addressed to d, whose inbound dispatch rejects the opaque
	// payload like any unverifiable frame.
	w.Net.Partition([]string{"a", "b", "c", "hub"}, []string{"d"})
	pad := bytes.Repeat([]byte{0x5a}, payloadBytes)
	for i := 0; i < backlog; i++ {
		env := wire.Envelope{
			MsgID:   fmt.Sprintf("backlog-%04d", i),
			From:    "a",
			To:      "d",
			Object:  relayObj,
			Kind:    wire.KindPropose,
			Payload: pad,
		}
		if err := w.Party("a").Relay.Deposit(ctx, "d", env.Marshal()); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
	// Deposits ride the reliable transport: wait until every one has landed
	// and a holds every ack, so the drain window measures only the drain.
	hub := w.Party("hub").RelayServer
	for hub.Depth("d") < backlog || w.Party("a").Rel.PendingTo("hub") > 0 {
		if ctx.Err() != nil {
			t.Fatalf("only %d of %d deposits landed", hub.Depth("d"), backlog)
		}
		time.Sleep(5 * time.Millisecond)
	}
	parkedMsgs, parkedBytes := hub.TotalParked()

	w.Net.Heal()
	w.Net.ResetStats()
	drained, err := w.Party("d").Relay.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	delivered := w.Net.Stats().DeliveredBytes
	amp := float64(delivered) / float64(parkedBytes)
	t.Logf("parked %d msgs (%d B), drained %d, delivered %d B: amplification %.2fx", parkedMsgs, parkedBytes, drained, delivered, amp)
	if drained != parkedMsgs {
		t.Errorf("drained %d of %d parked deposits", drained, parkedMsgs)
	}
	if depth := hub.Depth("d"); depth != 0 {
		t.Errorf("mailbox depth %d after the drain, want 0", depth)
	}
	if amp > maxAmplification {
		t.Errorf("drain delivered %.2fx the parked bytes, want <= %.0fx", amp, maxAmplification)
	}
}

// TestRelayMailboxBoundedEvictsWithEvidence: a tight mailbox cap holds the
// relay's storage constant no matter how long the member sleeps — the
// oldest deposits are evicted with evidence, the drained tail is applied,
// and catch-up restores the evicted prefix.
func TestRelayMailboxBoundedEvictsWithEvidence(t *testing.T) {
	const runs, cap = 12, 8
	w, err := NewWorld(Options{
		Seed:             92,
		Termination:      coord.Majority,
		ResponseDeadline: 250 * time.Millisecond,
		Relay:            "hub",
		RelayMaxMsgs:     cap,
		StorageDir:       t.TempDir(),
		Quotas:           core.QuotaPolicy{MaxPendingToPeer: 2},
		Transfer:         xfer.Policy{RequestTimeout: 150 * time.Millisecond},
	}, "a", "b", "c", "d", "hub")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(relayObj, func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	state := []byte("genesis;")
	if err := w.Bootstrap(relayObj, state, []string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	w.Net.Partition([]string{"a", "b", "c", "hub"}, []string{"d"})
	state = proposeRelayRuns(ctx, t, w, "a", state, runs)
	if err := w.WaitAgreed(relayObj, []string{"a", "b", "c"}, state, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Far more traffic headed for d than the mailbox holds: the depth must
	// sit at the cap, the hosted plane must be on disk, and each eviction
	// must have left evidence in the relay's log.
	hub := w.Party("hub").RelayServer
	if got := hub.Depth("d"); got != cap {
		t.Fatalf("mailbox depth %d, want the cap %d", got, cap)
	}
	if hub.DiskUsage() == 0 {
		t.Fatal("durable relay host reports no disk usage")
	}
	entries, err := w.Party("hub").Log.Entries()
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

	w.Net.Heal()
	if _, err := w.Party("d").Relay.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := w.Party("d").Xfer(relayObj).CatchUp(ctx); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if err := w.WaitAgreed(relayObj, []string{"a", "b", "c", "d"}, state, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// The still-live proposer's backed-off retransmissions can spill a few
	// more frames after the first drain; a reconnected member polls until
	// its mailbox stays empty, so mirror that here.
	deadline := time.Now().Add(10 * time.Second)
	for hub.Depth("d") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("mailbox not empty after convergence: depth %d", hub.Depth("d"))
		}
		if _, err := w.Party("d").Relay.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
