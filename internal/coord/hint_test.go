package coord

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// hintLog records how many hints each appended entry was given.
type hintLog struct {
	*nrlog.Memory
	mu    sync.Mutex
	hints map[string][]int // kind -> hint count per append, in order
}

func (l *hintLog) AppendSeq(runID string, runSeq uint64, object, kind, party string, dir nrlog.Direction, payload []byte, hints ...nrlog.Hint) (nrlog.Entry, error) {
	l.record(kind, dir, hints)
	return l.Memory.AppendSeq(runID, runSeq, object, kind, party, dir, payload, hints...)
}

func (l *hintLog) AppendDeferred(runID string, runSeq uint64, object, kind, party string, dir nrlog.Direction, payload []byte, hints ...nrlog.Hint) (nrlog.Entry, error) {
	l.record(kind, dir, hints)
	return l.Memory.AppendDeferred(runID, runSeq, object, kind, party, dir, payload, hints...)
}

func (l *hintLog) record(kind string, dir nrlog.Direction, hints []nrlog.Hint) {
	l.mu.Lock()
	l.hints[kind+"/"+string(dir)] = append(l.hints[kind+"/"+string(dir)], len(hints))
	l.mu.Unlock()
}

func (l *hintLog) counts(kind string, dir nrlog.Direction) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.hints[kind+"/"+string(dir)]...)
}

// TestForgedCommitLoggedWithoutHint: a recipient hints a commit's embedded
// proposal to its evidence log only once the embedded bytes equal the
// proposal it answered. A commit embedding a different proposal of the same
// length is refused as before and logged with no hint — its proposal is
// hashed from the received bytes — and both members' logs still verify. The
// genuine commit that follows is logged with the hint and installs.
func TestForgedCommitLoggedWithoutHint(t *testing.T) {
	const size = 64 << 10
	initial := bytes.Repeat([]byte{0x42}, size)
	logs := map[string]*hintLog{}
	c := newCluster(t, []string{"a", "b"}, initial, func(cfg *Config) {
		l := &hintLog{Memory: cfg.Log.(*nrlog.Memory), hints: map[string][]int{}}
		logs[cfg.Ident.ID()] = l
		cfg.Log = l
	})
	b := c.node("b")
	agreed, _ := b.engine.AgreedPaged()
	group, _ := b.engine.Group()

	auth := crypto.MustNonce()
	overwrite := func(flip int) wire.Signed {
		next := bytes.Clone(initial)
		next[flip] ^= 0xff
		prop := wire.Propose{
			RunID:      "run-hint",
			Proposer:   "a",
			Object:     "obj",
			Group:      group,
			Agreed:     agreed,
			Pred:       agreed,
			Proposed:   tuple.NewStateRoot(agreed.Seq+1, crypto.MustNonce(), b.engine.pageState(next).Root()),
			AuthCommit: crypto.Hash(auth),
			Mode:       wire.ModeOverwrite,
			NewState:   next,
		}
		return wire.Sign(wire.KindPropose, prop.Marshal(), c.node("a").ident, c.tsa)
	}
	genuine := overwrite(100)
	b.engine.HandleEnvelope("a", wire.Envelope{Kind: wire.KindPropose, Payload: genuine.Marshal()})
	if got := logs["b"].counts("propose", nrlog.DirReceived); len(got) != 1 || got[0] != 1 {
		t.Fatalf("propose evidence hints = %v, want one entry with one hint", got)
	}
	var respond wire.Signed
	entries, err := b.log.ByRun("run-hint")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Kind == "respond" && e.Direction == nrlog.DirSent {
			if respond, err = wire.UnmarshalSigned(e.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if respond.Body == nil {
		t.Fatal("b logged no respond")
	}

	forged := overwrite(200)
	if len(forged.Body) != len(genuine.Body) || bytes.Equal(forged.Body, genuine.Body) {
		t.Fatal("the forged proposal must differ from the genuine one at equal length")
	}
	commit := func(p wire.Signed) []byte {
		return wire.Commit{RunID: "run-hint", Proposer: "a", Object: "obj", Auth: auth,
			Propose: p, Responds: []wire.Signed{respond}}.Marshal()
	}
	b.engine.HandleEnvelope("a", wire.Envelope{Kind: wire.KindCommit, Payload: commit(forged)})
	if got := logs["b"].counts("commit", nrlog.DirReceived); len(got) != 1 || got[0] != 0 {
		t.Fatalf("forged commit evidence hints = %v, want one entry with no hint", got)
	}
	if got := b.engine.ActiveRuns(); len(got) != 1 || got[0] != "run-hint" {
		t.Fatalf("active runs after the forged commit = %v, want the run still open", got)
	}
	rejected := false
	entries, _ = b.log.ByRun("run-hint")
	for _, e := range entries {
		rejected = rejected || e.Kind == "commit-rejected" &&
			string(e.Payload) == "commit embeds a different proposal than was answered"
	}
	if !rejected {
		t.Fatal("the forged commit was not refused as a different proposal")
	}

	b.engine.HandleEnvelope("a", wire.Envelope{Kind: wire.KindCommit, Payload: commit(genuine)})
	if got := logs["b"].counts("commit", nrlog.DirReceived); len(got) != 2 || got[1] != 1 {
		t.Fatalf("genuine commit evidence hints = %v, want the second entry hinted once", got)
	}
	want := bytes.Clone(initial)
	want[100] ^= 0xff
	deadline := time.Now().Add(5 * time.Second)
	for _, s := b.engine.Agreed(); !bytes.Equal(s, want); _, s = b.engine.Agreed() {
		if time.Now().After(deadline) {
			t.Fatal("b did not install the genuine commit")
		}
		time.Sleep(time.Millisecond)
	}
	for id, n := range c.nodes {
		if err := n.log.Verify(); err != nil {
			t.Fatalf("%s evidence log: %v", id, err)
		}
	}
}

// TestOverwriteEvidenceHinted: in an honest overwrite run every evidence
// entry that carries the state — propose and commit, sent and received —
// binds it by the digest its party's signature step took, and the logs
// verify from the stored bytes alone.
func TestOverwriteEvidenceHinted(t *testing.T) {
	const size = 64 << 10
	logs := map[string]*hintLog{}
	c := newCluster(t, []string{"a", "b"}, bytes.Repeat([]byte{0x42}, size), func(cfg *Config) {
		l := &hintLog{Memory: cfg.Log.(*nrlog.Memory), hints: map[string][]int{}}
		logs[cfg.Ident.ID()] = l
		cfg.Log = l
	})
	next := bytes.Repeat([]byte{0x43}, size)
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()
	if out, err := c.node("a").engine.Propose(ctx, next); err != nil || !out.Valid {
		t.Fatalf("propose: %+v %v", out, err)
	}
	if err := c.waitAgreed(next, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		id, kind string
		dir      nrlog.Direction
	}{
		{"a", "propose", nrlog.DirSent}, {"a", "commit", nrlog.DirSent},
		{"b", "propose", nrlog.DirReceived}, {"b", "commit", nrlog.DirReceived},
	} {
		if got := logs[w.id].counts(w.kind, w.dir); len(got) != 1 || got[0] != 1 {
			t.Errorf("%s %s/%s evidence hints = %v, want one entry with one hint", w.id, w.kind, w.dir, got)
		}
	}
	for id, n := range c.nodes {
		if err := n.log.Verify(); err != nil {
			t.Fatalf("%s evidence log: %v", id, err)
		}
	}
}
