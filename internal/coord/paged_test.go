package coord

import (
	"bytes"
	"errors"
	"go/ast"
	"go/types"
	"testing"
	"time"

	"b2b/internal/analysis"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
)

// TestBytesMaterialisationSites keeps flat round trips out of the engine:
// the replica is paged end to end, the Validator receives pages, and a flat
// copy of a state ((*pagestate.Paged).Bytes, O(S)) is made only where a
// caller asks for flat bytes — the Agreed and Current accessors and the full
// snapshot checkpoint. The scan type-checks the package's non-test files, so
// a Bytes method of any other type does not count.
func TestBytesMaterialisationSites(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/coord")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	allowed := map[string]bool{"Agreed": true, "Current": true, "snapshotLocked": true}
	found := map[string]bool{}
	analysis.InspectFuncs(pkg.Files, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pkg.Info, call)
			if fn == nil || fn.Name() != "Bytes" {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !analysis.IsNamed(recv.Type(), "Paged", "pagestate") {
				return true
			}
			if !allowed[fd.Name.Name] {
				t.Errorf("%s: %s materialises a paged state; only %v may", pkg.Fset.Position(call.Pos()), fd.Name.Name, allowed)
			}
			found[fd.Name.Name] = true
			return true
		})
	})
	for site := range allowed {
		if !found[site] {
			t.Errorf("expected a Paged.Bytes call in %s, found none (scan broken?)", site)
		}
	}
}

// TestUpdateOverwriteEquivalence: coordinating an update and overwriting
// with the state it produces must yield the same HashState — the paged
// Merkle root is a pure function of content, not of how the content was
// reached. The update is sized to straddle a page boundary, the case where
// an incremental root rebind could plausibly diverge from a flat rebuild.
func TestUpdateOverwriteEquivalence(t *testing.T) {
	// Initial state ends 10 bytes before a page boundary; the 50-byte
	// append crosses it.
	initial := make([]byte, 2*pagestate.DefaultPageSize-10)
	for i := range initial {
		initial[i] = byte(i * 13)
	}
	update := bytes.Repeat([]byte("u"), 50)
	expected := append(append([]byte(nil), initial...), update...)

	c := newCluster(t, []string{"alice", "bob"}, initial)
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	out, err := c.node("alice").engine.ProposeUpdate(ctx, update)
	if err != nil {
		t.Fatalf("ProposeUpdate: %v", err)
	}
	if !out.Valid {
		t.Fatalf("outcome invalid: %+v", out)
	}
	if err := c.waitAgreed(expected, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice", "bob"} {
		agreed, state := c.node(id).engine.Agreed()
		if !bytes.Equal(state, expected) {
			t.Fatalf("%s: state diverged", id)
		}
		// The update-built identity equals the overwrite identity of the
		// same content, flat-hashed from scratch...
		if want := pagestate.Root(expected, pagestate.DefaultPageSize); agreed.HashState != want {
			t.Fatalf("%s: update-built HashState differs from flat rebuild", id)
		}
		// ... and what an overwrite proposal of the same bytes would bind.
		if ov := tuple.NewState(agreed.Seq+1, []byte("r"), expected); ov.HashState != agreed.HashState {
			t.Fatalf("%s: overwrite tuple binds a different HashState", id)
		}
	}

	// Because the identities coincide, overwriting with the identical
	// content is detectably the null transition of §4.4.
	_, err = c.node("alice").engine.Propose(ctx, expected)
	if err == nil || !errors.Is(err, ErrVetoed) {
		t.Fatalf("identical overwrite after update: err = %v, want veto (null transition)", err)
	}
}

// TestSigMemoSkipsCommitReverification: the recipient's own signed respond
// reappears inside every commit's aggregated evidence; the verified-
// signature memo must absorb those verifications instead of redoing the
// ed25519 work.
func TestSigMemoSkipsCommitReverification(t *testing.T) {
	const runs = 8
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := ctxTO(10 * time.Second)
	defer cancel()

	for i := 0; i < runs; i++ {
		out, err := c.node("alice").engine.Propose(ctx, []byte{byte(i + 1)})
		if err != nil || !out.Valid {
			t.Fatalf("run %d: out=%+v err=%v", i, out, err)
		}
	}
	if err := c.waitAgreed([]byte{runs}, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	st := c.node("bob").engine.Stats()
	if st.RunsCommitted != runs {
		t.Fatalf("bob committed %d runs, want %d", st.RunsCommitted, runs)
	}
	// Every commit bob handled embeds exactly one respond — his own, seeded
	// into the memo at signing time. All of them must be memo hits.
	if st.SigMemoHits < runs {
		t.Fatalf("bob's memo hits = %d, want >= %d (one own-respond per commit)", st.SigMemoHits, runs)
	}
	// The propose per run still verifies for real (first sight).
	if st.SigVerifies < runs {
		t.Fatalf("bob's real verifies = %d, want >= %d", st.SigVerifies, runs)
	}
}

// TestStaleCatchUpPagesNothing: InstallCatchUp refuses an offer that is not
// newer than the agreed state before it pages the offered bytes, so a stale
// offer costs no hashing or copying under the lock every handler waits on.
func TestStaleCatchUpPagesNothing(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, make([]byte, 1<<20))
	en := c.node("bob").engine
	agreed, state := en.Agreed()
	hashed0, copied0 := pagestate.Stats()
	if err := en.InstallCatchUp(agreed, state); !errors.Is(err, ErrStaleCatchUp) {
		t.Fatalf("stale catch-up: err = %v, want ErrStaleCatchUp", err)
	}
	if hashed, copied := pagestate.Stats(); hashed != hashed0 || copied != copied0 {
		t.Fatalf("refused offer hashed %d and copied %d bytes, want 0", hashed-hashed0, copied-copied0)
	}
}
