package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// recorder counts deliveries per payload, for once-only assertions.
type recorder struct {
	mu     sync.Mutex
	counts map[string]int
}

func newRecorder() *recorder { return &recorder{counts: make(map[string]int)} }

func (rec *recorder) handler(_ string, payload []byte) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.counts[string(payload)]++
}

func (rec *recorder) count(payload string) int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.counts[payload]
}

func (rec *recorder) total() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	n := 0
	for _, c := range rec.counts {
		n += c
	}
	return n
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func newBatchedPair(t *testing.T, net *Network, opts ...ReliableOption) (*Reliable, *Reliable) {
	t.Helper()
	base := []ReliableOption{
		WithRetryInterval(5 * time.Millisecond),
		WithBatching(500*time.Microsecond, 8<<10),
	}
	a, err := NewReliable(net.Endpoint("a"), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReliable(net.Endpoint("b"), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

// TestBatchedOnceOnlyUnderDropDup: once-only delivery must survive batching
// under message loss and duplication.
func TestBatchedOnceOnlyUnderDropDup(t *testing.T) {
	net := NewNetwork(7)
	defer net.Close()
	a, b := newBatchedPair(t, net)
	rec := newRecorder()
	b.SetHandler(rec.handler)

	net.SetDefaultFaults(Faults{DropProb: 0.3, DupProb: 0.2})
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return a.Pending() == 0 && rec.total() >= n }, "drain under faults")
	for i := 0; i < n; i++ {
		if got := rec.count(fmt.Sprintf("m%03d", i)); got != 1 {
			t.Fatalf("payload m%03d delivered %d times, want exactly 1", i, got)
		}
	}
}

// TestBatchedPartitionHeal: frames queued mid-batch during a partition are
// delivered exactly once after healing.
func TestBatchedPartitionHeal(t *testing.T) {
	net := NewNetwork(3)
	defer net.Close()
	a, b := newBatchedPair(t, net)
	rec := newRecorder()
	b.SetHandler(rec.handler)

	net.Partition([]string{"a"}, []string{"b"})
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", []byte(fmt.Sprintf("p%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // flush windows close into the partition
	if rec.total() != 0 {
		t.Fatalf("delivery across partition: %d", rec.total())
	}
	net.Heal()
	waitFor(t, 10*time.Second, func() bool { return a.Pending() == 0 }, "drain after heal")
	for i := 0; i < n; i++ {
		if got := rec.count(fmt.Sprintf("p%02d", i)); got != 1 {
			t.Fatalf("payload p%02d delivered %d times, want exactly 1", i, got)
		}
	}
}

// TestBatchingReducesDatagrams: the acceptance property — the same traffic
// takes measurably fewer datagrams with batching than without.
func TestBatchingReducesDatagrams(t *testing.T) {
	const n = 100
	run := func(batching bool) uint64 {
		net := NewNetwork(1)
		defer net.Close()
		opts := []ReliableOption{WithRetryInterval(time.Second)} // no retransmit noise
		if batching {
			opts = append(opts, WithBatching(2*time.Millisecond, 32<<10))
		}
		a, err := NewReliable(net.Endpoint("a"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		b, err := NewReliable(net.Endpoint("b"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()
		rec := newRecorder()
		b.SetHandler(rec.handler)
		for i := 0; i < n; i++ {
			if err := a.Send(context.Background(), "b", []byte(fmt.Sprintf("d%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 10*time.Second, func() bool { return a.Pending() == 0 && rec.total() == n }, "drain")
		return net.Stats().Sent
	}

	plain := run(false)
	batched := run(true)
	if plain < 2*n {
		t.Fatalf("unbatched run sent %d datagrams, expected at least %d (frame+ack each)", plain, 2*n)
	}
	if batched*2 > plain {
		t.Fatalf("batching sent %d datagrams vs %d unbatched — expected at least a 2x reduction", batched, plain)
	}
}

// TestSendBatchChunking: a burst of Sends larger than the size cap splits
// into several datagrams, and every payload still arrives exactly once.
func TestSendBatchChunking(t *testing.T) {
	net := NewNetwork(5)
	defer net.Close()
	a, b := newBatchedPair(t, net)
	rec := newRecorder()
	b.SetHandler(rec.handler)

	payloads := make([][]byte, 6)
	for i := range payloads {
		p := make([]byte, 3<<10) // 6 x 3KB against an 8KB cap -> >= 3 chunks
		for j := range p {
			p[j] = byte(i)
		}
		p[0] = byte('A' + i)
		payloads[i] = p
		if err := a.Send(context.Background(), "b", p); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return a.Pending() == 0 }, "drain")
	for i, p := range payloads {
		if got := rec.count(string(p)); got != 1 {
			t.Fatalf("chunked payload %d delivered %d times, want exactly 1", i, got)
		}
	}
}

// TestBatchCrashRecoveryFileJournal drives the crash/recover cycle with
// batching on: some messages are acked, some are stranded mid-batch by a
// one-way partition, both sides "crash" (close), and the same ids restart
// from their journals. The recovered sender must retransmit exactly the
// unacked set and the recovered receiver's dedup set must suppress the
// duplicates it already delivered.
func TestBatchCrashRecoveryFileJournal(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	jA, jB := openJournal(t, dirA), openJournal(t, dirB)
	net1 := NewNetwork(11)
	batch := WithBatching(500*time.Microsecond, 8<<10)
	retry := WithRetryInterval(5 * time.Millisecond)
	a1, err := NewReliable(net1.Endpoint("a"), retry, batch, WithJournal(jA))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewReliable(net1.Endpoint("b"), retry, batch, WithJournal(jB))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	b1.SetHandler(rec.handler)

	// Phase 1: 10 messages fully acknowledged.
	for i := 0; i < 10; i++ {
		if err := a1.Send(context.Background(), "b", []byte(fmt.Sprintf("acked-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return a1.Pending() == 0 }, "phase-1 acks")

	// Phase 2: acks (b->a) are partitioned away, so 5 more messages reach b
	// — which delivers and journals them as seen — but stay unacked at a.
	net1.SetLinkFaults("b", "a", Faults{Partitioned: true})
	for i := 0; i < 5; i++ {
		if err := a1.Send(context.Background(), "b", []byte(fmt.Sprintf("stranded-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return rec.total() == 15 }, "phase-2 one-way delivery")
	if a1.Pending() != 5 {
		t.Fatalf("unacked outbox = %d, want 5", a1.Pending())
	}

	// Crash both sides: close the journals and replay them from disk.
	_ = a1.Close()
	_ = b1.Close()
	net1.Close()
	_ = jA.Close()
	_ = jB.Close()

	net2 := NewNetwork(12)
	defer net2.Close()
	b2, err := NewReliable(net2.Endpoint("b"), retry, batch, WithJournal(openJournal(t, dirB)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()
	b2.SetHandler(rec.handler)
	jA2 := openJournal(t, dirA)
	a2, err := NewReliable(net2.Endpoint("a"), retry, batch, WithJournal(jA2))
	if err != nil {
		t.Fatal(err)
	}
	if got := a2.Pending(); got != 5 {
		t.Fatalf("recovered outbox = %d, want exactly the 5 unacked", got)
	}

	// The recovered sender retransmits; the recovered dedup set suppresses.
	waitFor(t, 10*time.Second, func() bool { return a2.Pending() == 0 }, "post-recovery drain")
	time.Sleep(20 * time.Millisecond) // window for any spurious duplicate delivery
	for i := 0; i < 10; i++ {
		if got := rec.count(fmt.Sprintf("acked-%02d", i)); got != 1 {
			t.Fatalf("acked-%02d delivered %d times across crash, want exactly 1", i, got)
		}
	}
	for i := 0; i < 5; i++ {
		if got := rec.count(fmt.Sprintf("stranded-%d", i)); got != 1 {
			t.Fatalf("stranded-%d delivered %d times across crash, want exactly 1", i, got)
		}
	}

	// The acknowledgements are durable too: a third start finds no outbox.
	_ = a2.Close()
	_ = jA2.Close()
	a3, err := NewReliable(net2.Endpoint("a"), retry, batch, WithJournal(openJournal(t, dirA)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a3.Close() }()
	if got := a3.Pending(); got != 0 {
		t.Fatalf("journal still holds %d outgoing records after full acknowledgement", got)
	}
}

// TestBatchedTCP: the batched reliable layer over the real TCP transport,
// exercising the vectored multi-frame write path end to end.
func TestBatchedTCP(t *testing.T) {
	epA, err := ListenTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epA.AddPeer("b", epB.Addr())
	epB.AddPeer("a", epA.Addr())

	batch := WithBatching(500*time.Microsecond, 8<<10)
	retry := WithRetryInterval(10 * time.Millisecond)
	a, err := NewReliable(epA, retry, batch)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewReliable(epB, retry, batch)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	rec := newRecorder()
	b.SetHandler(rec.handler)

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", []byte(fmt.Sprintf("tcp-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A burst of large frames that must chunk across several TCP frames.
	for i := 0; i < 5; i++ {
		p := make([]byte, 3<<10)
		p[0] = byte('a' + i)
		if err := a.Send(context.Background(), "b", p); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, func() bool { return a.Pending() == 0 && rec.total() == n+5 }, "tcp drain")
	for i := 0; i < n; i++ {
		if got := rec.count(fmt.Sprintf("tcp-%03d", i)); got != 1 {
			t.Fatalf("tcp-%03d delivered %d times, want exactly 1", i, got)
		}
	}
}
