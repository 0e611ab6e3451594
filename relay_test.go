package b2b_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	b2b "b2b"
	"b2b/internal/clock"
	"b2b/internal/crypto"
)

// TestRelayParksForPartitionedMember drives the relay wiring a deployment
// runs, through the public API only: hub hosts the mailbox service
// (WithRelayHost) and is no group member; a, b and c use it (WithRelay).
// While c is cut off, the majority commits under the §7 deadline, a's
// backlog toward c crosses its per-peer bound and the overflow parks at the
// hub with relay-park evidence. After the heal, RelayDrain delivers it and
// c converges.
func TestRelayParksForPartitionedMember(t *testing.T) {
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	net := b2b.NewMemoryNetwork(11)
	t.Cleanup(net.Close)

	members := []string{"a", "b", "c"}
	ids := append(append([]string(nil), members...), "hub")
	idents := make(map[string]*crypto.Identity)
	var certs []crypto.Certificate
	for _, id := range ids {
		ident, err := td.Issue(id)
		if err != nil {
			t.Fatal(err)
		}
		idents[id] = ident
		certs = append(certs, ident.Certificate())
	}
	parts := make(map[string]*b2b.Participant)
	ctrls := make(map[string]*b2b.Controller)
	docs := make(map[string]*document)
	for _, id := range ids {
		conn, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		opts := []b2b.Option{
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(10 * time.Second),
		}
		if id == "hub" {
			opts = append(opts, b2b.WithRelayHost(""))
		} else {
			opts = append(opts,
				b2b.WithRelay("hub"),
				b2b.WithMajorityTermination(),
				b2b.WithResponseDeadline(250*time.Millisecond),
				b2b.WithQuotas(b2b.QuotaPolicy{MaxPendingToPeer: 4}))
		}
		part, err := b2b.NewParticipant(idents[id], td, conn, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = part.Close() })
		parts[id] = part
	}
	for _, id := range members {
		docs[id] = newDocument()
		ctrl, err := parts[id].Bind("document", docs[id], nil)
		if err != nil {
			t.Fatal(err)
		}
		ctrls[id] = ctrl
	}
	for _, id := range members {
		if err := ctrls[id].Bootstrap(members); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range members {
		if err := parts[id].RelayPublishPrekey(ctx, members...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := parts["hub"].RelayDrain(ctx); err != b2b.ErrNoRelay {
		t.Fatalf("RelayDrain on a host that is no member: %v, want ErrNoRelay", err)
	}

	// c goes dark; a keeps committing with b until its traffic for c parks.
	net.Underlying().Partition([]string{"a", "b", "hub"}, []string{"c"})
	parked := func() int {
		entries, err := parts["a"].Log().Entries()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if e.Kind == "relay-park" && e.Party == "c" {
				n++
			}
		}
		return n
	}
	var last string
	runs := 0
	for parked() == 0 {
		if runs == 30 {
			t.Fatal("no traffic for the partitioned member parked at the relay")
		}
		last = fmt.Sprintf("run-%02d", runs)
		ctrls["a"].Enter()
		ctrls["a"].Overwrite()
		docs["a"].Set("k", last)
		if err := ctrls["a"].Leave(); err != nil {
			t.Fatalf("%s: %v", last, err)
		}
		runs++
	}
	// The deposit rides the reliable transport to the hub.
	for {
		if msgs, _ := parts["hub"].RelayParked(); msgs > 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("hub holds no parked deposits")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := parts["hub"].MetricsSnapshot()["relay.deposits"]; got == 0 {
		t.Fatal("hub metrics count no deposits")
	}

	net.Underlying().Heal()
	n, err := parts["c"].RelayDrain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n == 0 {
		t.Fatal("drain delivered nothing")
	}
	t.Logf("traffic parked after %d runs; the drain delivered %d envelopes", runs, n)
	if got := parts["c"].MetricsSnapshot()["relay.drain_msgs"]; got != int64(n) {
		t.Fatalf("c's relay.drain_msgs = %d, want %d", got, n)
	}
	if err := ctrls["c"].CatchUp(ctx); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	for docs["c"].Get("k") != last {
		if ctx.Err() != nil {
			t.Fatalf("c holds %q, want %q", docs["c"].Get("k"), last)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
