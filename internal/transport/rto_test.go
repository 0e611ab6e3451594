package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// countingEndpoint counts the datagrams its owner puts on the wire and can
// drop the next one before it reaches the network.
type countingEndpoint struct {
	*MemEndpoint
	mu       sync.Mutex
	sent     int
	dropNext bool
}

func (c *countingEndpoint) Send(ctx context.Context, to string, payload []byte) error {
	return c.SendFrame(ctx, to, [][]byte{payload})
}

func (c *countingEndpoint) SendFrame(ctx context.Context, to string, segs [][]byte) error {
	c.mu.Lock()
	c.sent++
	drop := c.dropNext
	c.dropNext = false
	c.mu.Unlock()
	if drop {
		return nil
	}
	return c.MemEndpoint.SendFrame(ctx, to, segs)
}

func (c *countingEndpoint) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// delayedPair is a sender a (behind a countingEndpoint) and a receiver b
// over links delayed by oneWay in each direction.
type delayedPair struct {
	nw            *Network
	ea            *countingEndpoint
	ra            *Reliable
	oneWay, floor time.Duration
}

func newDelayedPair(t *testing.T, oneWay, floor time.Duration) *delayedPair {
	t.Helper()
	nw := NewNetwork(7)
	t.Cleanup(nw.Close)
	nw.SetLinkFaults("a", "b", Faults{MinDelay: oneWay})
	nw.SetLinkFaults("b", "a", Faults{MinDelay: oneWay})
	ea := &countingEndpoint{MemEndpoint: nw.Endpoint("a")}
	ra, err := NewReliable(ea, WithRetryInterval(floor))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ra.Close() })
	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(floor))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rb.Close() })
	return &delayedPair{nw: nw, ea: ea, ra: ra, oneWay: oneWay, floor: floor}
}

// send sends one message from a to b and waits for its ack. It returns
// the datagrams a put on the wire for it, and whether the path excuses a
// resend: the ack took longer than the link's round trip plus the floor —
// on a loaded host the delayed deliveries themselves run late — so even a
// timeout a floor above the true round trip had expired.
func (d *delayedPair) send(t *testing.T, i int) (copies int, slow bool) {
	t.Helper()
	before, start := d.ea.count(), time.Now()
	if err := d.ra.Send(context.Background(), "b", []byte(fmt.Sprintf("m%03d", i))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return d.ra.Pending() == 0 }, "ack")
	return d.ea.count() - before, time.Since(start) > 2*d.oneWay+d.floor
}

// sendOnce sends message i and fails the test if it went out more than
// once without the path excusing it.
func (d *delayedPair) sendOnce(t *testing.T, i int) {
	t.Helper()
	copies, slow := d.send(t, i)
	if copies == 1 {
		return
	}
	p := d.ra.link("b")
	if !slow {
		t.Fatalf("message %d went out %d times though its ack came back within the round trip plus the floor; srtt %v rttvar %v rto %v",
			i, copies, p.srtt, p.rttvar, p.rto)
	}
	t.Logf("message %d went out %d times: its ack was later than the round trip plus the floor (srtt %v rto %v)", i, copies, p.srtt, p.rto)
}

func (r *Reliable) sweepCount() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweeps
}

func (r *Reliable) link(to string) peerLink {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[to]; p != nil {
		return *p
	}
	return peerLink{}
}

// TestIdleReliableSleeps: once every message is acknowledged the
// retransmit loop has nothing to do, and it does nothing — no sweep for 20
// floor intervals. A loop ticking at the floor sweeps on every tick.
func TestIdleReliableSleeps(t *testing.T) {
	const floor = 2 * time.Millisecond
	nw := NewNetwork(3)
	defer nw.Close()
	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(floor))
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(floor))
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	var got collector
	rb.SetHandler(got.handler)
	ra.SetHandler(got.handler)
	for i := 0; i < 5; i++ {
		if err := ra.Send(context.Background(), "b", []byte("to b")); err != nil {
			t.Fatal(err)
		}
		if err := rb.Send(context.Background(), "a", []byte("to a")); err != nil {
			t.Fatal(err)
		}
	}
	got.waitFor(t, 10, 5*time.Second)
	waitFor(t, 5*time.Second, func() bool { return ra.Pending() == 0 && rb.Pending() == 0 }, "acks")

	sa, sb := ra.sweepCount(), rb.sweepCount()
	time.Sleep(20 * floor)
	if da, db := ra.sweepCount()-sa, rb.sweepCount()-sb; da != 0 || db != 0 {
		t.Fatalf("idle endpoints swept %d and %d times over 20 floor intervals, want 0", da, db)
	}
}

// TestRetransmitWaitsForMeasuredRTT: on a path whose round trip (40 ms)
// is eight times the floor (5 ms), a warmed-up sender waits out the
// measured round trip: 50 sequential messages cost exactly 50 data and 50
// ack datagrams. A sender that resends at the floor puts each frame on the
// wire about eight times. A message whose own ack the path delivered later
// than the round trip plus the floor is excused a resend, and logged, up to
// five resends in all.
func TestRetransmitWaitsForMeasuredRTT(t *testing.T) {
	d := newDelayedPair(t, 20*time.Millisecond, 5*time.Millisecond)
	for i := 0; i < 5; i++ {
		d.send(t, i)
	}
	time.Sleep(2 * d.oneWay) // late copies of the warm-up frames and their acks land
	d.nw.ResetStats()
	excused := 0
	for i := 0; i < 50; i++ {
		if copies, slow := d.send(t, i); copies != 1 {
			if !slow {
				p := d.ra.link("b")
				t.Fatalf("message %d went out %d times though its ack came back within the round trip plus the floor; srtt %v rttvar %v rto %v",
					i, copies, p.srtt, p.rttvar, p.rto)
			}
			excused += copies - 1
		}
	}
	// A late delivery now and then is the host's doing; one resend in ten
	// messages is the estimator's.
	if excused > 5 {
		t.Fatalf("%d of 50 messages were resent after a late ack, want at most 5", excused)
	}
	time.Sleep(2 * d.oneWay)
	if st := d.nw.Stats(); st.Sent != uint64(100+2*excused) || st.Dropped != 0 {
		t.Fatalf("50 messages put %d datagrams on the network (%d dropped), want 50 data + 50 acks and %d excused resends with their acks",
			st.Sent, st.Dropped, excused)
	}
	if excused > 0 {
		t.Logf("%d resends excused by late deliveries", excused)
	}
}

// TestRetransmitLearnsPastBackoff: from a cold start on a path whose round
// trip is eight times the floor, the first frame is resent before its ack
// can return. The ack of its first copy, and failing that the backed-off
// timeout carried from one frame to the next, teach the estimate the
// round trip: from the fifth message on nothing is retransmitted.
func TestRetransmitLearnsPastBackoff(t *testing.T) {
	const floor = 5 * time.Millisecond
	d := newDelayedPair(t, 4*floor, floor)
	if copies, _ := d.send(t, 0); copies < 2 {
		t.Fatal("the cold-start frame was not retransmitted: the test does not exercise backoff")
	}
	for i := 1; i < 4; i++ {
		d.send(t, i)
	}
	for i := 4; i < 10; i++ {
		d.sendOnce(t, i)
	}
	if p := d.ra.link("b"); !p.sampled || p.rto < 8*floor {
		t.Fatalf("estimate after learning: sampled %t rto %v, want a timeout of at least the %v round trip", p.sampled, p.rto, 8*floor)
	}
}

// TestRetransmitSamplesFirstCopiesOnly: the first copy of one frame is
// lost. Its ack answers the retransmitted copy, so it says nothing about
// the round trip and leaves the estimate alone (Karn's rule) — taken
// against the first copy it would add the whole timeout to the sample. The
// frames after it are each sent once.
func TestRetransmitSamplesFirstCopiesOnly(t *testing.T) {
	d := newDelayedPair(t, 10*time.Millisecond, 5*time.Millisecond)
	for i := 0; i < 10; i++ {
		d.send(t, i)
	}
	before := d.ra.link("b")
	if !before.sampled {
		t.Fatal("no round trip sampled during warm-up")
	}

	d.ea.mu.Lock()
	d.ea.dropNext = true
	d.ea.mu.Unlock()
	if copies, _ := d.send(t, 10); copies < 2 {
		t.Fatalf("the frame whose first copy was lost went out %d times", copies)
	}
	if after := d.ra.link("b"); after.srtt != before.srtt || after.rttvar != before.rttvar {
		t.Fatalf("the ack of a retransmitted frame moved the estimate: srtt %v -> %v, rttvar %v -> %v",
			before.srtt, after.srtt, before.rttvar, after.rttvar)
	}
	for i := 11; i < 21; i++ {
		d.sendOnce(t, i)
	}
}

// TestRetransmitLearnsFromSpuriousResend: the path's round trip grows
// from 20 ms to 80 ms, past the warmed-up timeout, so the next frame is
// resent although its first copy arrives. That copy's ack comes back under
// the first copy's id, so it is a round-trip sample although the frame was
// resent, and from it the estimate learns the longer path. Were every ack
// of a resent frame passed over, no later frame would outwait its ack and
// the estimate would never move.
func TestRetransmitLearnsFromSpuriousResend(t *testing.T) {
	d := newDelayedPair(t, 10*time.Millisecond, 5*time.Millisecond)
	for i := 0; i < 10; i++ {
		d.send(t, i)
	}
	before := d.ra.link("b")
	d.oneWay = 40 * time.Millisecond
	d.nw.SetLinkFaults("a", "b", Faults{MinDelay: d.oneWay})
	d.nw.SetLinkFaults("b", "a", Faults{MinDelay: d.oneWay})
	if copies, _ := d.send(t, 10); copies < 2 {
		t.Fatalf("the first frame on the longer path went out %d times, want a resend: the test does not exercise a spurious retransmission", copies)
	}
	waitFor(t, 5*time.Second, func() bool { return d.ra.link("b").srtt > before.srtt }, "a sample from the second ack")
	for i := 11; i < 16; i++ {
		d.sendOnce(t, i)
	}
	if p := d.ra.link("b"); p.rto < 2*d.oneWay {
		t.Fatalf("estimate on the longer path: srtt %v rto %v, want a timeout of at least the %v round trip", p.srtt, p.rto, 2*d.oneWay)
	}
}

// TestReliableBackoffBoundedForLongSilence: a peer that never gave a clean
// sample comes back after many silent rounds. Its timeout resumes from the
// backoff its silence reached, which stops at the cap — doubling the floor
// once per round would overflow a time.Duration after about 40 rounds, and
// a negative or zero timeout would resend every frame at once.
func TestReliableBackoffBoundedForLongSilence(t *testing.T) {
	const floor, ceiling = 50 * time.Millisecond, time.Second
	nw := NewNetwork(9)
	defer nw.Close()
	r, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(floor), WithRetryBackoff(ceiling))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, c := range []struct {
		rounds int
		want   time.Duration
	}{{1, 2 * floor}, {4, 16 * floor}, {5, ceiling}, {38, ceiling}, {64, ceiling}, {70, ceiling}} {
		r.mu.Lock()
		r.peers["b"] = &peerLink{rto: floor, attempts: c.rounds}
		r.mu.Unlock()
		r.resetBackoff("b")
		if p := r.link("b"); p.rto != c.want || p.attempts != 0 {
			t.Fatalf("after %d silent rounds: rto %v attempts %d, want rto %v and the backoff ended", c.rounds, p.rto, p.attempts, c.want)
		}
		if d := r.backoffInterval(floor, c.rounds); d < floor || d > ceiling+ceiling/4 {
			t.Fatalf("backoff interval after %d rounds = %v, want within [%v, %v]", c.rounds, d, floor, ceiling+ceiling/4)
		}
	}
}
