package ttp_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/lab"
	"b2b/internal/ttp"
	"b2b/internal/wire"
)

// terminatorWorld builds a 3-party group plus a TTP party named "ttp" whose
// abort certificates all engines honour.
func terminatorWorld(t *testing.T) (*lab.World, *ttp.Terminator) {
	t.Helper()
	w, err := lab.NewWorld(lab.Options{Seed: 21, TTP: "ttp"}, "alice", "bob", "carol", "ttp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind("obj", func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap("obj", []byte("v0"), []string{"alice", "bob", "carol"}); err != nil {
		t.Fatal(err)
	}

	tp := w.Party("ttp")
	term := ttp.NewTerminator(tp.Ident, w.TSA, tp.Verifier, w.Clk, tp.Log)
	term.RegisterGroup("obj", []string{"alice", "bob", "carol"})
	// The TTP party takes over its own connection with the terminator server.
	term.Serve(tp.Rel, tp.Rel.SetHandler)
	return w, term
}

func TestCertifiedAbortUnblocksRun(t *testing.T) {
	w, _ := terminatorWorld(t)

	// Partition carol: alice's run blocks with 1 of 2 responses.
	w.Net.Partition([]string{"alice", "bob", "ttp"}, []string{"carol"})

	type result struct {
		out coord.Outcome
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		out, err := w.Party("alice").Engine("obj").Propose(ctx, []byte("v1"))
		resCh <- result{out, err}
	}()
	time.Sleep(150 * time.Millisecond)

	// Alice gives up waiting (deadline passed) and asks the TTP to certify
	// abort, submitting the evidence she holds.
	entries, err := w.Party("alice").Log.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var evidence []wire.Signed
	var runID string
	for _, e := range entries {
		if e.Kind == wire.KindPropose.String() {
			if sp, err := wire.UnmarshalSigned(e.Payload); err == nil {
				evidence = append(evidence, sp)
				prop, _ := wire.UnmarshalPropose(sp.Body)
				runID = prop.RunID
			}
		}
	}
	if runID == "" {
		t.Fatal("no propose evidence at alice")
	}
	alice := w.Party("alice")
	if err := ttp.RequestAbort(context.Background(), alice.Rel, alice.Ident, w.TSA,
		"ttp", "obj", runID, evidence); err != nil {
		t.Fatal(err)
	}

	res := <-resCh
	if !errors.Is(res.err, coord.ErrAborted) {
		t.Fatalf("proposer result = %v, want ErrAborted", res.err)
	}
	if res.out.Valid {
		t.Fatal("aborted run reported valid")
	}

	// Alice rolled back; bob's active run cleared by its own certificate
	// copy; all honest reachable parties agree nothing changed.
	_, cur := w.Party("alice").Engine("obj").Current()
	if !bytes.Equal(cur, []byte("v0")) {
		t.Fatalf("alice current after abort = %q", cur)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(w.Party("bob").Engine("obj").ActiveRuns()) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(w.Party("bob").Engine("obj").ActiveRuns()); n != 0 {
		t.Fatalf("bob still holds %d active runs after certified abort", n)
	}

	// After healing, honest coordination resumes.
	w.Net.Heal()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := w.Party("bob").Engine("obj").Propose(ctx, []byte("v2"))
	if err != nil || !out.Valid {
		t.Fatalf("run after abort: %v", err)
	}
}

func TestTerminatorAnswersAreStable(t *testing.T) {
	w, term := terminatorWorld(t)
	_ = w

	// Craft an abort request with propose evidence only.
	alice := w.Party("alice")
	prop := wire.Propose{
		RunID:    "run-stable",
		Proposer: "alice",
		Object:   "obj",
	}
	sp := wire.Sign(wire.KindPropose, prop.Marshal(), alice.Ident, w.TSA)
	req := wire.AbortRequest{RunID: "run-stable", Object: "obj", Requester: "alice", Evidence: []wire.Signed{sp}}

	first, err := term.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := term.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Marshal(), second.Marshal()) {
		t.Fatal("terminator gave different answers for the same run")
	}
	cert, err := wire.UnmarshalAbortCert(first.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Aborted {
		t.Fatal("incomplete evidence must yield certified abort")
	}
}

func TestTerminatorCertifiedDecisionWithCompleteEvidence(t *testing.T) {
	w, term := terminatorWorld(t)

	alice := w.Party("alice")
	bob := w.Party("bob")
	carol := w.Party("carol")
	prop := wire.Propose{RunID: "run-full", Proposer: "alice", Object: "obj"}
	sp := wire.Sign(wire.KindPropose, prop.Marshal(), alice.Ident, w.TSA)
	mkResp := func(p *lab.Party, accept bool) wire.Signed {
		r := wire.Respond{RunID: "run-full", Responder: p.ID, Object: "obj", Decision: wire.Decision{Accept: accept}}
		return wire.Sign(wire.KindRespond, r.Marshal(), p.Ident, w.TSA)
	}
	req := wire.AbortRequest{
		RunID: "run-full", Object: "obj", Requester: "alice",
		Evidence: []wire.Signed{sp, mkResp(bob, true), mkResp(carol, true)},
	}
	signed, err := term.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := wire.UnmarshalAbortCert(signed.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Aborted {
		t.Fatal("complete response set must yield certified decision, not abort")
	}
	if !cert.Decision.Accept {
		t.Fatal("unanimous responses must certify acceptance")
	}
}

func TestTerminatorRejectsUnknownObject(t *testing.T) {
	w, term := terminatorWorld(t)
	alice := w.Party("alice")
	prop := wire.Propose{RunID: "r", Proposer: "alice", Object: "ghost"}
	sp := wire.Sign(wire.KindPropose, prop.Marshal(), alice.Ident, w.TSA)
	_, err := term.Resolve(wire.AbortRequest{RunID: "r", Object: "ghost", Requester: "alice", Evidence: []wire.Signed{sp}})
	if !errors.Is(err, ttp.ErrUnknownGroup) {
		t.Fatalf("err = %v", err)
	}
}

func TestTerminatorRequiresEvidence(t *testing.T) {
	w, term := terminatorWorld(t)
	_ = w
	_, err := term.Resolve(wire.AbortRequest{RunID: "r2", Object: "obj", Requester: "alice"})
	if !errors.Is(err, ttp.ErrNoEvidence) {
		t.Fatalf("err = %v", err)
	}
}
