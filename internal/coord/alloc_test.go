package coord

import (
	"fmt"
	"testing"
	"time"
)

// TestProposerCommitAllocs bounds the allocations of one complete 2-party
// overwrite run: propose, respond, commit and install on both parties. The
// proposer builds its commit's evidence hint from the sub-slice the
// commit's marshal reports and its checkpoint from the proposal it decoded
// at signing, so finalization decodes nothing it encoded itself: 228
// allocations. Decoding its own commit and proposal again, as finalization
// once did, makes it 236.
func TestProposerCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const bar = 230
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	alice, bob := c.node("alice").engine, c.node("bob").engine
	i := 0
	run := func() {
		i++
		ctx, cancel := ctxTO(5 * time.Second)
		defer cancel()
		out, err := alice.Propose(ctx, []byte(fmt.Sprintf("state %08d", i)))
		if err != nil || !out.Valid {
			t.Fatalf("run %d: %v %+v", i, err, out)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			if a, _ := bob.Agreed(); a.Seq == uint64(i) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("bob did not install run %d", i)
			}
		}
	}
	for j := 0; j < 5; j++ {
		run()
	}
	allocs := testing.AllocsPerRun(100, run)
	if allocs > bar {
		t.Fatalf("a 2-party run made %.0f allocations, want at most %d", allocs, bar)
	}
	t.Logf("allocations per 2-party run: %.0f", allocs)
}
