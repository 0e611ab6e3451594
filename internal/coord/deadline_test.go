package coord

import (
	"errors"
	"testing"
	"time"

	"b2b/internal/clock"
)

// These tests pin the §7 response-deadline semantics: under majority
// termination a proposer that has waited ResponseDeadline concludes the run
// with the responses at hand — provided they form a strict majority with the
// proposer — and recipients accept the resulting partial commit. Unanimous
// termination and minority proposers are unaffected.

func withResponseDeadline(d time.Duration) clusterOpt {
	return func(c *Config) { c.ResponseDeadline = d }
}

func TestResponseDeadlineConcludesWithMajority(t *testing.T) {
	c := newCluster(t, []string{"a", "b", "c", "d"}, []byte("v0"),
		withTermination(Majority), withResponseDeadline(100*time.Millisecond))
	defer c.close()

	// d is unreachable; a, b and c are a strict majority of four.
	c.net.Partition([]string{"a", "b", "c"}, []string{"d"})

	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()
	out, err := c.node("a").engine.Propose(ctx, []byte("v1"))
	if err != nil {
		t.Fatalf("Propose with an unreachable minority: %v", err)
	}
	if !out.Valid {
		t.Fatalf("majority outcome invalid: %+v", out)
	}

	// The commit legitimately omits d's response. Once the partition heals,
	// the transport retransmits the run to d, whose verifyCommit must accept
	// the partial response set and install the same state.
	c.net.Heal()
	if err := c.waitAgreed([]byte("v1"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestResponseDeadlineIgnoredUnderUnanimous(t *testing.T) {
	// Unanimous termination cannot conclude without the full response set;
	// the deadline must not override that.
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"),
		withResponseDeadline(50*time.Millisecond))
	defer c.close()
	c.net.Partition([]string{"alice"}, []string{"bob"})

	ctx, cancel := ctxTO(300 * time.Millisecond)
	defer cancel()
	_, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
}

func TestResponseDeadlineMinorityCannotConclude(t *testing.T) {
	// A proposer cut off with less than a strict majority keeps waiting: the
	// deadline only relaxes *which* responses are required, never the
	// majority itself.
	c := newCluster(t, []string{"a", "b", "c", "d"}, []byte("v0"),
		withTermination(Majority), withResponseDeadline(50*time.Millisecond))
	defer c.close()
	c.net.Partition([]string{"a"}, []string{"b", "c", "d"})

	ctx, cancel := ctxTO(400 * time.Millisecond)
	defer cancel()
	_, err := c.node("a").engine.Propose(ctx, []byte("v1"))
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
}

// TestEngineTimersFollowClock: the retry round and the §7 response deadline
// run on the engine's configured clock. On a simulated clock that never
// moves, a majority-termination run with a silent recipient waits however
// long the process clock runs; it concludes once the clock is advanced
// past the deadline.
func TestEngineTimersFollowClock(t *testing.T) {
	sim := clock.NewSim(time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC))
	c := newCluster(t, []string{"a", "b", "c"}, []byte("v0"),
		withTermination(Majority), withResponseDeadline(100*time.Millisecond),
		func(cfg *Config) { cfg.Clock = sim })
	defer c.close()
	// c is silent; a and b are a strict majority of three.
	c.net.Partition([]string{"a", "b"}, []string{"c"})

	ctx, cancel := ctxTO(10 * time.Second)
	defer cancel()
	type result struct {
		out Outcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := c.node("a").engine.Propose(ctx, []byte("v1"))
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("run concluded before the engine's clock moved: %+v, %v", r.out, r.err)
	case <-time.After(200 * time.Millisecond):
	}
	sim.Advance(150 * time.Millisecond)
	select {
	case r := <-done:
		if r.err != nil || !r.out.Valid {
			t.Fatalf("majority outcome after the deadline: %+v, %v", r.out, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not conclude after the clock passed the response deadline")
	}
}
