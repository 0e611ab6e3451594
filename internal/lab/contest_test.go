package lab

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/faults"
	"b2b/internal/wire"
)

// TestDuelingProposersConverge reproduces the dueling-proposer divergence
// the contest plane exists to close, then proves it heals.
//
// Under majority termination two proposers can both assemble vote-valid
// runs over the same predecessor tuple when their commits cross in the
// propagation window: each proposer installs its own outcome, every other
// party installs whichever commit reaches it first, and the refused rival
// commit used to be dropped on the floor ("predecessor state no longer
// agreed"). Without the evidence-gossip contest plane the two sides of the
// split never reconcile — this exact scenario ended with {a,b} and {c,d}
// disagreeing forever.
//
// The window is manufactured deterministically: both proposers' commit
// messages are swallowed in transit (captured by the interceptor), so run
// 1 (proposer a) and run 2 (proposer c) both complete against predecessor
// tuple 0. Replaying the captured commits then delivers every party the
// rival evidence; the contest plane must gossip the full evidence set,
// apply the deterministic tie-break, roll the losers back and leave all
// four parties on one branch.
func TestDuelingProposersConverge(t *testing.T) {
	const obj = "contract"
	ids := []string{"a", "b", "c", "d"}
	w, err := NewWorld(Options{
		Seed:          902,
		Termination:   coord.Majority,
		RetryInterval: 5 * time.Millisecond,
	}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind(obj, func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(obj, []byte("v0"), ids); err != nil {
		t.Fatal(err)
	}

	// Swallow (but capture) both proposers' commit broadcasts: proposes and
	// responds still flow, so both runs go vote-valid, but no other party
	// learns either outcome yet — the commit-propagation window, held open.
	pa, pc := w.Party("a"), w.Party("c")
	dropCommits := faults.DropEnvelopeKinds("", wire.KindCommit)
	pa.Interceptor.SetOnSend(dropCommits)
	pc.Interceptor.SetOnSend(dropCommits)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	h1, err := pa.Engine(obj).ProposeAsync(ctx, []byte("alpha"))
	if err != nil {
		t.Fatalf("propose run 1: %v", err)
	}
	// c must answer run 1 before proposing run 2, so run 2 extends the same
	// predecessor (tuple 0) at sequence 2 — the dueling shape.
	deadline := time.Now().Add(10 * time.Second)
	for len(pc.Engine(obj).ActiveRuns()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("c never answered run 1")
		}
		time.Sleep(time.Millisecond)
	}
	out1, err := h1.Await(ctx)
	if err != nil || !out1.Valid {
		t.Fatalf("run 1 outcome: valid=%v err=%v", out1.Valid, err)
	}
	out2, err := pc.Engine(obj).Propose(ctx, []byte("omega"))
	if err != nil || !out2.Valid {
		t.Fatalf("run 2 outcome: valid=%v err=%v (needs majority 3-of-4: c, b, d)", out2.Valid, err)
	}

	// The divergent window is real: each proposer installed its own run.
	ta := pa.Engine(obj).AgreedTuple()
	tc := pc.Engine(obj).AgreedTuple()
	if ta == tc {
		t.Fatalf("expected divergence between proposers, both agreed on %v", ta)
	}

	// Heal the network and deliver every swallowed commit. Pre-fix this is
	// where the run ended: a and b on alpha, c and d on omega, the rival
	// commits refused with "predecessor state no longer agreed" and no
	// mechanism left to reconcile.
	pa.Interceptor.SetOnSend(nil)
	pc.Interceptor.SetOnSend(nil)
	replayCommits := func(ic *faults.Interceptor) {
		for i, cap := range ic.Captured() {
			env, err := wire.UnmarshalEnvelope(cap.Payload)
			if err == nil && env.Kind == wire.KindCommit {
				if err := ic.Replay(ctx, i); err != nil {
					t.Fatalf("replay commit to %s: %v", cap.To, err)
				}
			}
		}
	}
	replayCommits(pa.Interceptor)
	replayCommits(pc.Interceptor)

	final, err := w.WaitConverged(obj, ids, 15*time.Second)
	if err != nil {
		t.Fatalf("contest plane did not converge the split: %v", err)
	}
	if !bytes.Equal(final, []byte("alpha")) && !bytes.Equal(final, []byte("omega")) {
		t.Fatalf("converged on neither contested run's state: %q", final)
	}

	// The refusal is evidence, not silence: at least one party must hold a
	// signed "contested-commit-refused" entry in its non-repudiation log,
	// and every log must still verify as a chain.
	refused := 0
	for _, id := range ids {
		entries, err := w.Party(id).Log.Entries()
		if err != nil {
			t.Fatalf("%s: log entries: %v", id, err)
		}
		for _, e := range entries {
			if e.Kind == "contested-commit-refused" {
				refused++
				break
			}
		}
		if err := w.Party(id).Log.Verify(); err != nil {
			t.Fatalf("%s: evidence log no longer verifies: %v", id, err)
		}
	}
	if refused == 0 {
		t.Fatal("no party logged contested-commit-refused evidence")
	}
}

// TestLeaseSerializesContention is the proposer lease's bar. Four parties
// under majority termination all propose a distinct overwrite of one object
// at the same instant, round after round: every round is a head-on 4-way
// collision on one predecessor. Once contention is observed the lease
// rotation serializes the group (non-holders defer, each commit hands the
// slot to the next holder), so nearly every proposal commits instead of
// being burned on the tie-break. Bars: at least 3.5 commits per round, and
// afterwards every party converges on one branch.
func TestLeaseSerializesContention(t *testing.T) {
	const (
		obj            = "contested"
		rounds         = 30
		minCommitsPerR = 3.5
	)
	ids := []string{"org00", "org01", "org02", "org03"}
	// The lab's default 25 ms retry interval bounds a lease wait at 100 ms,
	// enough for the three runs ahead in the rotation to commit even under
	// the race detector.
	w, err := NewWorld(Options{Seed: 21, Termination: coord.Majority}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind(obj, func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(obj, []byte("v0"), ids); err != nil {
		t.Fatal(err)
	}

	var commits atomic.Int64
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				out, err := w.Party(id).Engine(obj).Propose(ctx, []byte(fmt.Sprintf("%s round %d", id, r)))
				if err == nil && out.Valid {
					commits.Add(1)
				}
			}(id)
		}
		wg.Wait()
	}
	perRound := float64(commits.Load()) / rounds
	t.Logf("%d commits in %d rounds of %d proposers: %.2f per round", commits.Load(), rounds, len(ids), perRound)
	if perRound < minCommitsPerR {
		t.Errorf("%.2f commits per contention round, want >= %.1f", perRound, minCommitsPerR)
	}

	// Quiesce: the contest plane (and catch-up for anyone structurally
	// behind) must drive every replica onto one branch.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		if _, err := w.WaitConverged(obj, ids, time.Second); err == nil {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("replicas did not converge after the contention rounds")
		}
		for _, id := range ids {
			cctx, ccancel := context.WithTimeout(ctx, time.Second)
			_, _ = w.Party(id).Xfer(obj).CatchUp(cctx)
			ccancel()
		}
	}
}
