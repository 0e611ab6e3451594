package coord

import (
	"errors"
	"strings"
	"testing"
	"time"

	"b2b/internal/crypto"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// appendTwice is an update fold that disagrees with the proposer's append:
// applying the update yields a state whose root is not the proposed one.
func appendTwice(current *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	out := current.Clone()
	if err := out.Append(append(append([]byte(nil), update...), update...)); err != nil {
		return nil, err
	}
	return out, nil
}

// signedUpdate builds a's signed update proposal extending b's agreed state,
// proposing the state base+update — what a's append fold would produce — at
// sequence number seq (each evaluation observes its tuple, so every call
// needs a fresh, higher one).
func signedUpdate(t *testing.T, c *cluster, runID string, seq uint64, update []byte) (wire.Signed, wire.Propose) {
	t.Helper()
	b := c.node("b").engine
	agreed, base := b.AgreedPaged()
	group, _ := b.Group()
	next := base.Clone()
	if err := next.Append(update); err != nil {
		t.Fatal(err)
	}
	rnd, err := crypto.Nonce()
	if err != nil {
		t.Fatal(err)
	}
	prop := wire.Propose{
		RunID:      runID,
		Proposer:   "a",
		Object:     "obj",
		Group:      group,
		Agreed:     agreed,
		Pred:       agreed,
		Proposed:   tuple.NewStateRoot(seq, rnd, next.Root()),
		AuthCommit: crypto.Hash(rnd),
		Mode:       wire.ModeUpdate,
		Update:     update,
		UpdateHash: crypto.Hash(update),
	}
	return wire.Sign(wire.KindPropose, prop.Marshal(), c.node("a").ident, c.tsa), prop
}

// TestStructuralRejectWinsOverValidation: a recipient asks the application
// first and applies after, but an update that is inapplicable, or whose
// applied root mismatches the proposed tuple, is still rejected for that
// structural reason with no candidate state — although ValidateUpdate
// accepted it. An application veto of a structurally valid update keeps the
// candidate (a vetoing minority still installs under §7 Majority).
func TestStructuralRejectWinsOverValidation(t *testing.T) {
	c := newCluster(t, []string{"a", "b", "c"}, []byte("base|"), withTermination(Majority))
	b := c.node("b")
	cases := []struct {
		name     string
		apply    func(*pagestate.Paged, []byte) (*pagestate.Paged, error)
		veto     bool
		diag     string
		newState bool
	}{
		{"inapplicable", func(*pagestate.Paged, []byte) (*pagestate.Paged, error) {
			return nil, errors.New("cannot fold")
		}, false, "update not applicable: cannot fold", false},
		{"root mismatch", appendTwice, false, "applied update does not yield the proposed state", false},
		{"application veto", nil, true, "policy says no", true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b.val.mu.Lock()
			b.val.apply = tc.apply
			b.val.validate = nil
			if tc.veto {
				b.val.validate = func(_, _ []byte) wire.Decision { return wire.Rejected("policy says no") }
			}
			before := b.val.validated
			b.val.mu.Unlock()

			signed, prop := signedUpdate(t, c, "structural-"+tc.name, uint64(10+i), []byte("delta"))
			decision, newState := b.engine.evaluatePropose("a", signed, prop,
				received{digest: signed.BodyDigest(), hash: crypto.Hash(prop.Update)})

			b.val.mu.Lock()
			validated := b.val.validated - before
			b.val.mu.Unlock()
			if validated != 1 {
				t.Fatalf("ValidateUpdate called %d times, want 1 (decision %+v)", validated, decision)
			}
			if decision.Accept || decision.Diagnostic != tc.diag {
				t.Fatalf("decision = %+v, want rejection %q", decision, tc.diag)
			}
			if got := newState != nil; got != tc.newState {
				t.Fatalf("newState present = %v, want %v", got, tc.newState)
			}
			if newState != nil && !prop.Proposed.MatchesRoot(newState.Root()) {
				t.Fatal("kept candidate is not the proposed state")
			}
		})
	}
}

// TestStructuralRejectInvalidatesMajorityRun: both recipients accept the
// update at the application but reject it structurally — one cannot apply
// it, the other's fold yields another state — so under §7 Majority the run
// is invalid and every party keeps the base state.
func TestStructuralRejectInvalidatesMajorityRun(t *testing.T) {
	c := newCluster(t, []string{"a", "b", "c"}, []byte("base|"), withTermination(Majority))
	c.node("b").val.apply = func(*pagestate.Paged, []byte) (*pagestate.Paged, error) {
		return nil, errors.New("cannot fold")
	}
	c.node("c").val.apply = appendTwice
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	out, err := c.node("a").engine.ProposeUpdate(ctx, []byte("delta"))
	if !errors.Is(err, ErrVetoed) || out.Valid {
		t.Fatalf("err = %v, valid = %v; want an invalid run", err, out.Valid)
	}
	for id, want := range map[string]string{"b": "update not applicable", "c": "applied update does not yield the proposed state"} {
		if d := out.Decisions[id]; d.Accept || !strings.Contains(d.Diagnostic, want) {
			t.Errorf("%s decided %+v, want a rejection containing %q", id, d, want)
		}
		n := c.node(id)
		n.val.mu.Lock()
		validated := n.val.validated
		n.val.mu.Unlock()
		if validated != 1 {
			t.Errorf("%s: ValidateUpdate called %d times, want 1", id, validated)
		}
	}
	if err := c.waitAgreed([]byte("base|"), time.Second); err != nil {
		t.Fatal(err)
	}
}
