package transport

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"b2b/internal/store"
)

// collector accumulates received messages behind a lock and lets tests wait
// for a count without polling raw state.
type collector struct {
	mu   sync.Mutex
	msgs []string
	from []string
}

func (c *collector) handler(from string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, string(payload))
	c.from = append(c.from, from)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) waitFor(t *testing.T, n int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if c.count() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages, have %d", n, c.count())
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func TestMemNetworkBasicDelivery(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	var got collector
	b.SetHandler(got.handler)

	if err := a.Send(context.Background(), "b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, time.Second)
	if got.snapshot()[0] != "hello" {
		t.Fatalf("got %q", got.snapshot()[0])
	}
}

func TestMemNetworkUnknownPeer(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	a := nw.Endpoint("a")
	if err := a.Send(context.Background(), "ghost", []byte("x")); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestMemNetworkDrop(t *testing.T) {
	nw := NewNetwork(42)
	defer nw.Close()
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	var got collector
	b.SetHandler(got.handler)
	nw.SetLinkFaults("a", "b", Faults{DropProb: 1.0})

	for i := 0; i < 10; i++ {
		if err := a.Send(context.Background(), "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got.count() != 0 {
		t.Fatalf("messages delivered through 100%% lossy link: %d", got.count())
	}
	st := nw.Stats()
	if st.Dropped != 10 || st.Sent != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemNetworkDuplicate(t *testing.T) {
	nw := NewNetwork(7)
	defer nw.Close()
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	var got collector
	b.SetHandler(got.handler)
	nw.SetLinkFaults("a", "b", Faults{DupProb: 1.0})

	if err := a.Send(context.Background(), "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 2, time.Second)
}

func TestMemNetworkPartitionAndHeal(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	var got collector
	b.SetHandler(got.handler)

	nw.Partition([]string{"a"}, []string{"b"})
	if err := a.Send(context.Background(), "b", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if got.count() != 0 {
		t.Fatal("message crossed a partition")
	}

	nw.Heal()
	if err := a.Send(context.Background(), "b", []byte("after-heal")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, time.Second)
	if got.snapshot()[0] != "after-heal" {
		t.Fatalf("got %q", got.snapshot()[0])
	}
}

func TestMemNetworkDelay(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	var got collector
	b.SetHandler(got.handler)
	nw.SetLinkFaults("a", "b", Faults{MinDelay: 30 * time.Millisecond, MaxDelay: 40 * time.Millisecond})

	start := time.Now()
	if err := a.Send(context.Background(), "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, time.Second)
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", el)
	}
}

func TestMemEndpointHandlerMaySend(t *testing.T) {
	// A handler that sends must not deadlock (dispatch runs outside locks).
	nw := NewNetwork(1)
	defer nw.Close()
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	var got collector
	a.SetHandler(got.handler)
	b.SetHandler(func(from string, payload []byte) {
		_ = b.Send(context.Background(), from, append([]byte("echo:"), payload...))
	})
	if err := a.Send(context.Background(), "b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, time.Second)
	if got.snapshot()[0] != "echo:ping" {
		t.Fatalf("got %q", got.snapshot()[0])
	}
}

func TestReliableBasic(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ra.Close() }()
	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rb.Close() }()

	var got collector
	rb.SetHandler(got.handler)
	if err := ra.Send(context.Background(), "b", []byte("m1")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, time.Second)

	// The ack should eventually clear the outbox.
	deadline := time.Now().Add(time.Second)
	for ra.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ra.Pending() != 0 {
		t.Fatalf("outbox not drained: %d pending", ra.Pending())
	}
}

func TestReliableOnceOnlyUnderLossAndDuplication(t *testing.T) {
	// 60% loss + 30% duplication on both directions: every message must
	// still arrive exactly once.
	nw := NewNetwork(1234)
	defer nw.Close()
	nw.SetDefaultFaults(Faults{DropProb: 0.6, DupProb: 0.3})

	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ra.Close() }()
	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rb.Close() }()

	var got collector
	rb.SetHandler(got.handler)

	const n = 40
	for i := 0; i < n; i++ {
		if err := ra.Send(context.Background(), "b", []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got.waitFor(t, n, 10*time.Second)
	waitFor(t, 10*time.Second, func() bool { return ra.Pending() == 0 }, "acks under loss")
	time.Sleep(50 * time.Millisecond) // allow duplicates to surface, if any

	msgs := got.snapshot()
	seen := make(map[string]int)
	for _, m := range msgs {
		seen[m]++
	}
	if len(seen) != n {
		t.Fatalf("distinct messages = %d, want %d", len(seen), n)
	}
	for m, c := range seen {
		if c != 1 {
			t.Fatalf("message %q delivered %d times", m, c)
		}
	}
}

// openJournal opens the file journal at dir and closes it when the test ends
// (Close is idempotent, so a test that crashes a party may close it early).
func openJournal(t testing.TB, dir string) *store.Plane {
	t.Helper()
	j, err := OpenFileJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

func TestReliableCrashRecoveryResumesRetransmission(t *testing.T) {
	// A sender crashes after queueing (receiver partitioned); the sender
	// restarted under the same id from the same journal must deliver every
	// queued message exactly once after the partition heals.
	dir := t.TempDir()
	nw := NewNetwork(9)
	defer nw.Close()

	nw.Partition([]string{"a"}, []string{"b"})
	j1 := openJournal(t, dir)
	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(j1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ra.Send(context.Background(), "b", []byte(fmt.Sprintf("survives-crash-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = ra.Close() // crash
	_ = j1.Close()

	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rb.Close() }()
	rec := newRecorder()
	rb.SetHandler(rec.handler)

	nw.Heal()
	ra2, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(openJournal(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ra2.Close() }()

	waitFor(t, 5*time.Second, func() bool { return ra2.Pending() == 0 && rec.total() == 3 }, "recovered drain")
	for i := 0; i < 3; i++ {
		if got := rec.count(fmt.Sprintf("survives-crash-%d", i)); got != 1 {
			t.Fatalf("survives-crash-%d delivered %d times, want 1", i, got)
		}
	}
}

func TestReliableDedupSurvivesRestart(t *testing.T) {
	// Receiver restarts from its journal: a retransmitted message it already
	// delivered must not be delivered again.
	dir := t.TempDir()
	nw := NewNetwork(11)
	defer nw.Close()

	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(time.Hour)) // manual retransmit only
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ra.Close() }()

	j1 := openJournal(t, dir)
	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(time.Hour), WithJournal(j1))
	if err != nil {
		t.Fatal(err)
	}
	var got collector
	rb.SetHandler(got.handler)
	if err := ra.Send(context.Background(), "b", []byte("m")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, time.Second)
	var msgID string
	rb.mu.Lock()
	for key := range rb.seen {
		msgID = strings.TrimPrefix(key, "a/")
	}
	rb.mu.Unlock()
	_ = rb.Close() // restart receiver
	_ = j1.Close()

	rb2, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(time.Hour), WithJournal(openJournal(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rb2.Close() }()
	var got2 collector
	rb2.SetHandler(got2.handler)

	// Simulate the sender retransmitting the same message id to the revived
	// receiver: dedup state restored from the journal must suppress it.
	rb2.onRaw("a", encodeRel(relData, msgID, []byte("m")).bytes())
	time.Sleep(10 * time.Millisecond)
	if got2.count() != 0 {
		t.Fatal("duplicate delivered after receiver restart")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())

	var got collector
	b.SetHandler(got.handler)
	if err := a.Send(context.Background(), "b", []byte("over-tcp")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, 2*time.Second)
	if got.snapshot()[0] != "over-tcp" {
		t.Fatalf("got %q", got.snapshot()[0])
	}
	if got.from[0] != "a" {
		t.Fatalf("attributed to %q", got.from[0])
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())

	var gotA, gotB collector
	a.SetHandler(gotA.handler)
	b.SetHandler(gotB.handler)

	if err := a.Send(context.Background(), "b", []byte("a->b")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(context.Background(), "a", []byte("b->a")); err != nil {
		t.Fatal(err)
	}
	gotA.waitFor(t, 1, 2*time.Second)
	gotB.waitFor(t, 1, 2*time.Second)
}

// TestTCPHelloCannotCaptureConfiguredPeer: a dialer whose hello claims the
// id of a peer this endpoint has an address for gets that peer's inbound
// attribution, but never its replies: they go over the connection this
// endpoint dials to the configured address.
func TestTCPHelloCannotCaptureConfiguredPeer(t *testing.T) {
	alice, err := ListenTCP("alice", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = alice.Close() }()
	bob, err := ListenTCP("bob", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = bob.Close() }()
	alice.AddPeer("bob", bob.Addr())
	var gotAlice, gotBob collector
	alice.SetHandler(gotAlice.handler)
	bob.SetHandler(gotBob.handler)

	raw, err := net.Dial("tcp", alice.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	impostor := &lockedConn{Conn: raw}
	if err := impostor.writeFrames([][]byte{[]byte("bob"), []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	// alice has read the hello once the frame after it is delivered.
	gotAlice.waitFor(t, 1, 2*time.Second)

	if err := alice.Send(context.Background(), "bob", []byte("for-bob")); err != nil {
		t.Fatal(err)
	}
	gotBob.waitFor(t, 1, 2*time.Second)
	if m := gotBob.snapshot(); m[0] != "for-bob" {
		t.Fatalf("bob got %q", m)
	}
	_ = raw.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if frame, err := readFrame(raw); err == nil {
		t.Fatalf("impostor read alice's reply %q", frame)
	}
}

func TestTCPPeerRestart(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := b.Addr()
	a.AddPeer("b", addrB)

	var got collector
	b.SetHandler(got.handler)
	if err := a.Send(context.Background(), "b", []byte("one")); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, 2*time.Second)

	_ = b.Close() // peer crashes

	// Sends fail (possibly after one stale-connection write) until restart.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(context.Background(), "b", []byte("down")); err != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	b2, err := ListenTCP("b", addrB) // reuse the concrete port
	if err != nil {
		t.Fatalf("restart listener: %v", err)
	}
	defer func() { _ = b2.Close() }()
	var got2 collector
	b2.SetHandler(got2.handler)

	// The cached conn may be stale; retry until the re-dial lands.
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && got2.count() == 0 {
		_ = a.Send(context.Background(), "b", []byte("two"))
		time.Sleep(10 * time.Millisecond)
	}
	if got2.count() == 0 {
		t.Fatal("no delivery after peer restart")
	}
}

func TestReliableOverTCP(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())

	ra, err := NewReliable(a, WithRetryInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ra.Close() }()
	rb, err := NewReliable(b, WithRetryInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rb.Close() }()

	var got collector
	rb.SetHandler(got.handler)
	const n = 20
	for i := 0; i < n; i++ {
		if err := ra.Send(context.Background(), "b", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got.waitFor(t, n, 5*time.Second)
	seen := make(map[string]bool)
	for _, m := range got.snapshot() {
		if seen[m] {
			t.Fatalf("duplicate %q", m)
		}
		seen[m] = true
	}
}
