package coord

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// mkTuple builds a deterministic state tuple for forged-record tests.
func mkTuple(seq uint64, seed string) tuple.State {
	return tuple.NewState(seq, []byte("rand-"+seed), []byte("state-"+seed))
}

// storeRunRecord converts a crafted proposal into its proposer RunRecord.
func storeRunRecord(prop wire.Propose, signed wire.Signed) store.RunRecord {
	return store.RunRecord{
		RunID:    prop.RunID,
		Object:   prop.Object,
		Role:     "proposer",
		Proposed: prop.Proposed,
		Pred:     prop.Pred,
		State:    prop.NewState,
		Auth:     []byte("auth"),
		Raw:      signed.Marshal(),
	}
}

// drive pushes n overwrite proposals through en with the given pipeline
// window, awaiting outcomes in initiation order, and returns them.
func drive(t *testing.T, en *Engine, window, n int, state func(i int) []byte) []Outcome {
	t.Helper()
	en.SetWindow(window)
	ctx, cancel := ctxTO(60 * time.Second)
	defer cancel()

	var outs []Outcome
	var handles []*RunHandle
	collect := func() {
		h := handles[0]
		handles = handles[1:]
		out, err := h.Await(ctx)
		if err != nil && !errors.Is(err, ErrVetoed) {
			t.Fatalf("await: %v", err)
		}
		outs = append(outs, out)
	}
	for i := 0; i < n; i++ {
		for {
			h, err := en.ProposeAsync(ctx, state(i))
			if errors.Is(err, ErrRunInFlight) {
				// Window full or pipeline unwinding: drain the oldest.
				if len(handles) == 0 {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				collect()
				continue
			}
			if err != nil {
				t.Fatalf("propose %d: %v", i, err)
			}
			handles = append(handles, h)
			break
		}
	}
	for len(handles) > 0 {
		collect()
	}
	return outs
}

func TestPipelinedRunsCommitInOrder(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob", "carol"}, []byte("v0"))
	en := c.node("alice").engine

	const runs = 8
	outs := drive(t, en, 4, runs, func(i int) []byte { return []byte(fmt.Sprintf("v%d", i+1)) })

	if len(outs) != runs {
		t.Fatalf("outcomes = %d, want %d", len(outs), runs)
	}
	for i, out := range outs {
		if !out.Valid {
			t.Fatalf("run %d invalid: %s", i, out.Diagnostic)
		}
	}
	want := []byte(fmt.Sprintf("v%d", runs))
	if err := c.waitAgreed(want, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	agreed, _ := en.Agreed()
	if agreed.Seq != runs {
		t.Fatalf("agreed seq = %d, want %d", agreed.Seq, runs)
	}
	// No run may be left open anywhere.
	for _, id := range c.order {
		if active := c.node(id).engine.ActiveRuns(); len(active) != 0 {
			t.Fatalf("%s still holds active runs: %v", id, active)
		}
		pending, err := c.node(id).store.PendingRuns()
		if err != nil || len(pending) != 0 {
			t.Fatalf("%s pending runs = %v (%v)", id, pending, err)
		}
	}
}

func TestPipelineVetoRollsBackSuffix(t *testing.T) {
	// The veto-mid-pipeline rule: run k of a pipeline of 3 is vetoed, so
	// runs k+1 and k+2 — already in flight, chained to k's proposed state —
	// roll back at every party, and all replicas converge to run k-1's
	// state.
	c := newCluster(t, []string{"alice", "bob", "carol"}, []byte("v0"))
	for _, id := range []string{"bob", "carol"} {
		v := c.node(id).val
		v.mu.Lock()
		v.validate = func(_, proposed []byte) wire.Decision {
			if bytes.Contains(proposed, []byte("bad")) {
				return wire.Rejected("content policy veto")
			}
			return wire.Accepted
		}
		v.mu.Unlock()
	}
	en := c.node("alice").engine
	en.SetWindow(3)
	ctx, cancel := ctxTO(30 * time.Second)
	defer cancel()

	states := [][]byte{[]byte("ok1"), []byte("bad2"), []byte("ok3")}
	var handles []*RunHandle
	for _, s := range states {
		h, err := en.ProposeAsync(ctx, s)
		if err != nil {
			t.Fatalf("propose %q: %v", s, err)
		}
		handles = append(handles, h)
	}

	out1, err1 := handles[0].Await(ctx)
	if err1 != nil || !out1.Valid {
		t.Fatalf("run 1: valid=%t err=%v", out1.Valid, err1)
	}
	out2, err2 := handles[1].Await(ctx)
	if !errors.Is(err2, ErrVetoed) || out2.Valid {
		t.Fatalf("run 2: valid=%t err=%v, want veto", out2.Valid, err2)
	}
	out3, err3 := handles[2].Await(ctx)
	if !errors.Is(err3, ErrVetoed) || out3.Valid {
		t.Fatalf("run 3: valid=%t err=%v, want suffix rollback", out3.Valid, err3)
	}

	// Every party converges to run 1's state; the suffix left no residue.
	// A rolled-back run's store record is deleted after the engine lock is
	// released (finishRollbacks), so it may outlive the active-run entry
	// briefly: wait for both under the one deadline.
	if err := c.waitAgreed([]byte("ok1"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range c.order {
		for len(c.node(id).engine.ActiveRuns()) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s still holds active runs: %v", id, c.node(id).engine.ActiveRuns())
			}
			time.Sleep(2 * time.Millisecond)
		}
		for {
			pending, err := c.node(id).store.PendingRuns()
			if err == nil && len(pending) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s pending runs = %v (%v)", id, pending, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The recipients recorded the suffix rollback as their own verdicts.
	out, ok := c.node("bob").engine.Outcome(handles[2].RunID())
	if !ok || out.Valid {
		t.Fatalf("bob's outcome for run 3 = %+v ok=%t, want recorded invalid", out, ok)
	}
	// Evidence for each pipeline position is indexed per sequence.
	for seq := uint64(1); seq <= 3; seq++ {
		entries, err := nrlog.BySeq(c.node("alice").log, "obj", seq)
		if err != nil || len(entries) == 0 {
			t.Fatalf("no per-sequence evidence for seq %d (err=%v)", seq, err)
		}
	}
}

func TestPipelineUnderDelayAndLoss(t *testing.T) {
	// Reordered and lost datagrams exercise the recipient's chain buffers:
	// a successor proposal or commit that overtakes its predecessor must
	// wait, not be wrongly rejected.
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	c.net.SetDefaultFaults(transport.Faults{
		DropProb: 0.15,
		MinDelay: 200 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
	})
	en := c.node("alice").engine

	const runs = 20
	outs := drive(t, en, 4, runs, func(i int) []byte { return []byte(fmt.Sprintf("s%d", i+1)) })
	for i, out := range outs {
		if !out.Valid {
			t.Fatalf("run %d invalid under delay/loss: %s", i, out.Diagnostic)
		}
	}
	c.net.SetDefaultFaults(transport.Faults{})
	if err := c.waitAgreed([]byte(fmt.Sprintf("s%d", runs)), 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineVetoAfterProposerCrashRecovery(t *testing.T) {
	// A pipeline of 3 is in flight (no responses yet) when the proposer
	// crashes. Recovery re-enters all three runs from their RunRecords in
	// chain order; the middle run is vetoed, and the suffix rolls back on
	// every party — the multi-RunRecord recovery path.
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	bv := c.node("bob").val
	bv.mu.Lock()
	bv.validate = func(_, proposed []byte) wire.Decision {
		if bytes.Contains(proposed, []byte("bad")) {
			return wire.Rejected("content policy veto")
		}
		return wire.Accepted
	}
	bv.mu.Unlock()

	// Cut bob off, then open the pipeline: proposals are queued but never
	// answered, leaving three proposer RunRecords in the store.
	c.net.Partition([]string{"alice"}, []string{"bob"})
	en := c.node("alice").engine
	en.SetWindow(3)
	ctx, cancel := ctxTO(30 * time.Second)
	defer cancel()
	for _, s := range []string{"ok1", "bad2", "ok3"} {
		if _, err := en.ProposeAsync(ctx, []byte(s)); err != nil {
			t.Fatalf("propose %q: %v", s, err)
		}
	}
	pending, err := c.node("alice").store.PendingRuns()
	if err != nil || len(pending) != 3 {
		t.Fatalf("pending runs before crash = %d (%v), want 3", len(pending), err)
	}

	// Crash alice: a fresh engine over the same store and connection.
	alice := c.node("alice")
	v := crypto.NewVerifier(c.ca, c.tsa)
	for _, id := range []string{"alice", "bob"} {
		if err := v.AddCertificate(c.node(id).ident.Certificate()); err != nil {
			t.Fatal(err)
		}
	}
	en2, err := New(Config{
		Ident: alice.ident, Object: "obj", Verifier: v, TSA: c.tsa, Conn: alice.rel,
		Log: alice.log, Store: alice.store, Clock: c.clk, Validator: alice.val,
		RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := en2.Restore(); err != nil {
		t.Fatal(err)
	}
	alice.rel.SetHandler(func(from string, payload []byte) {
		env, err := wire.UnmarshalEnvelope(payload)
		if err != nil {
			return
		}
		en2.HandleEnvelope(from, env)
	})

	c.net.Heal()
	rctx, rcancel := ctxTO(30 * time.Second)
	defer rcancel()
	outs, err := en2.RecoverPendingRuns(rctx)
	if err != nil {
		t.Fatalf("RecoverPendingRuns: %v", err)
	}
	if len(outs) != 3 {
		t.Fatalf("recovered outcomes = %d, want 3", len(outs))
	}
	if !outs[0].Valid || outs[1].Valid || outs[2].Valid {
		t.Fatalf("recovered validity = %t/%t/%t, want true/false/false (%s | %s)",
			outs[0].Valid, outs[1].Valid, outs[2].Valid, outs[1].Diagnostic, outs[2].Diagnostic)
	}

	// Both parties converge on the surviving prefix.
	_, state := en2.Agreed()
	if !bytes.Equal(state, []byte("ok1")) {
		t.Fatalf("alice recovered agreed state = %q, want ok1", state)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, s := c.node("bob").engine.Agreed()
		if bytes.Equal(s, []byte("ok1")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bob agreed state = %q, want ok1", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for len(c.node("bob").engine.ActiveRuns()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("bob still holds active runs: %v", c.node("bob").engine.ActiveRuns())
		}
		time.Sleep(5 * time.Millisecond)
	}
	pending, err = c.node("alice").store.PendingRuns()
	if err != nil || len(pending) != 0 {
		t.Fatalf("pending runs after recovery = %v (%v)", pending, err)
	}
}

func TestRecoveryDropsOrphanedSuffix(t *testing.T) {
	// Recovery's suffix rollback: if the stored chain does not connect to
	// the recovered agreed state (its base was decided without us), the
	// orphaned records are rolled back, not replayed.
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	alice := c.node("alice")

	// Forge two chained records whose base is not the agreed state.
	bogus := func(runID string, seq uint64, pred string) {
		prop := wire.Propose{
			RunID:    runID,
			Proposer: "alice",
			Object:   "obj",
			Agreed:   mkTuple(seq-1, pred),
			Pred:     mkTuple(seq-1, pred),
			Proposed: mkTuple(seq, runID),
			Mode:     wire.ModeOverwrite,
			NewState: []byte(runID),
		}
		signed := wire.Sign(wire.KindPropose, prop.Marshal(), alice.ident, c.tsa)
		if err := alice.store.SaveRun(storeRunRecord(prop, signed)); err != nil {
			t.Fatal(err)
		}
	}
	bogus("orphan-1", 7, "nowhere")
	bogus("orphan-2", 8, "orphan-1")

	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()
	outs, err := alice.engine.RecoverPendingRuns(ctx)
	if err != nil {
		t.Fatalf("RecoverPendingRuns: %v", err)
	}
	if len(outs) != 0 {
		t.Fatalf("recovered outcomes = %+v, want none", outs)
	}
	pending, err := alice.store.PendingRuns()
	if err != nil || len(pending) != 0 {
		t.Fatalf("pending runs = %v (%v), want none", pending, err)
	}
}
