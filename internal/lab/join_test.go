package lab

import (
	"bytes"
	"context"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

// inlineJoinHops is the latency, in one-way link delays, of the join in
// TestJoinSmallStateOneRoundTrip when a Welcome still carried small states
// inline (measured on that tree with this fixture): conn-request, the
// sponsor's conn-propose, the member's conn-respond, the Welcome.
const inlineJoinHops = 4

// TestJoinSmallStateOneRoundTrip is the join-latency bar of the single
// catch-up path: a 256 B object is no longer carried by the Welcome, so the
// joiner fetches it as one snapshot session from the sponsor, and that
// fetch costs at most one round trip (request; offer, chunk and done
// together) over the inline join it replaced.
func TestJoinSmallStateOneRoundTrip(t *testing.T) {
	const hop = 100 * time.Millisecond
	w, err := NewWorld(Options{Seed: 43}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(xferObj, func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := xferState(256)
	if err := w.Bootstrap(xferObj, initial, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	w.Net.SetDefaultFaults(transport.Faults{MinDelay: hop, MaxDelay: hop})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	// The sponsor of the join is the most recently joined member, "b".
	if err := w.Party("c").Manager(xferObj).Join(ctx, "b"); err != nil {
		t.Fatalf("join: %v", err)
	}
	elapsed := time.Since(start)
	hops := int(elapsed / hop)
	t.Logf("join took %v = %d hops of %v (inline join: %d)", elapsed, hops, hop, inlineJoinHops)
	if _, got := w.Party("c").Engine(xferObj).Agreed(); !bytes.Equal(got, initial) {
		t.Fatal("joiner did not adopt the agreed state")
	}
	if st := w.Party("b").Xfer(xferObj).Stats(); st.SnapshotSessions != 1 || st.SessionsServed != 1 {
		t.Fatalf("sponsor served %d sessions (%d snapshot), want exactly one snapshot session",
			st.SessionsServed, st.SnapshotSessions)
	}
	if hops > inlineJoinHops+2 {
		t.Fatalf("join took %d hops, want at most %d (inline join + one round trip)", hops, inlineJoinHops+2)
	}
}

// TestJoinEvidenceIndependentOfState: the Welcome is evidence only — the
// membership, the tuples, the certificates and the commit — so neither the
// sponsor's nor the joiner's welcome evidence entry grows with the state
// (here 32 KiB, which a Welcome once carried inline).
func TestJoinEvidenceIndependentOfState(t *testing.T) {
	w, err := NewWorld(Options{Seed: 44}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(xferObj, func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := xferState(32 << 10)
	if err := w.Bootstrap(xferObj, initial, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Party("c").Manager(xferObj).Join(ctx, "b"); err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, got := w.Party("c").Engine(xferObj).Agreed(); !bytes.Equal(got, initial) {
		t.Fatal("joiner did not adopt the agreed state")
	}
	for _, id := range []string{"b", "c"} {
		entries, err := w.Party(id).Log.Entries()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range entries {
			if e.Object != xferObj || e.Kind != wire.KindWelcome.String() {
				continue
			}
			found = true
			if len(e.Payload) >= 8<<10 {
				t.Errorf("%s: welcome evidence is %d B, want < 8 KiB for a %d B state", id, len(e.Payload), len(initial))
			}
		}
		if !found {
			t.Errorf("%s recorded no welcome evidence", id)
		}
	}
}
