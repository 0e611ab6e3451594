package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// appValidator is a configurable test Validator. The zero value accepts
// everything and treats updates as appends.
type appValidator struct {
	mu       sync.Mutex
	validate func(current, proposed []byte) wire.Decision
	// apply, when set, replaces ApplyUpdate's append fold.
	apply      func(current *pagestate.Paged, update []byte) (*pagestate.Paged, error)
	validated  int // ValidateUpdate calls
	installs   int
	rollbacks  int
	lastState  []byte
	lastTuple  tuple.State
	lastRolled []byte
}

func (v *appValidator) ValidateState(_ string, current *pagestate.Paged, proposed []byte) wire.Decision {
	v.mu.Lock()
	f := v.validate
	v.mu.Unlock()
	if f != nil {
		return f(current.Bytes(), proposed)
	}
	return wire.Accepted
}

func (v *appValidator) ValidateUpdate(_ string, current *pagestate.Paged, update []byte) wire.Decision {
	v.mu.Lock()
	f := v.validate
	v.validated++
	v.mu.Unlock()
	if f != nil {
		flat := current.Bytes()
		return f(flat, append(flat, update...))
	}
	return wire.Accepted
}

func (v *appValidator) ApplyUpdate(current *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	v.mu.Lock()
	f := v.apply
	v.mu.Unlock()
	if f != nil {
		return f(current, update)
	}
	if bytes.HasPrefix(update, []byte("BAD")) {
		return nil, errors.New("inapplicable update")
	}
	out := current.Clone()
	if err := out.Append(update); err != nil {
		return nil, err
	}
	return out, nil
}

func (v *appValidator) Installed(state *pagestate.Paged, t tuple.State) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.installs++
	v.lastState = state.Bytes()
	v.lastTuple = t
}

func (v *appValidator) RolledBack(state *pagestate.Paged, t tuple.State) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.rollbacks++
	v.lastRolled = state.Bytes()
}

func (v *appValidator) counts() (installs, rollbacks int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.installs, v.rollbacks
}

// node bundles one party's engine and its dependencies.
type node struct {
	id     string
	engine *Engine
	val    *appValidator
	log    *nrlog.Memory
	store  *store.Memory
	rel    *transport.Reliable
	ident  *crypto.Identity
}

// cluster is a set of parties sharing an in-memory network.
type cluster struct {
	t     *testing.T
	net   *transport.Network
	clk   clock.Clock
	ca    *crypto.CA
	tsa   *crypto.TSA
	nodes map[string]*node
	order []string
}

type clusterOpt func(*Config)

func withTermination(m Termination) clusterOpt {
	return func(c *Config) { c.Termination = m }
}

func newCluster(t *testing.T, ids []string, initial []byte, opts ...clusterOpt) *cluster {
	t.Helper()
	clk := clock.Wall{}
	ca, err := crypto.NewCA("ca", clk, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := crypto.NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		t:     t,
		net:   transport.NewNetwork(7),
		clk:   clk,
		ca:    ca,
		tsa:   tsa,
		nodes: make(map[string]*node),
		order: ids,
	}
	t.Cleanup(c.close)

	idents := make(map[string]*crypto.Identity, len(ids))
	for _, id := range ids {
		ident, err := crypto.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		ca.Issue(ident)
		idents[id] = ident
	}
	for _, id := range ids {
		v := crypto.NewVerifier(ca, tsa)
		for _, other := range ids {
			if err := v.AddCertificate(idents[other].Certificate()); err != nil {
				t.Fatal(err)
			}
		}
		rel, err := transport.NewReliable(c.net.Endpoint(id), transport.WithRetryInterval(5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		n := &node{
			id:    id,
			val:   &appValidator{},
			log:   nrlog.NewMemory(clk),
			store: store.NewMemory(),
			rel:   rel,
			ident: idents[id],
		}
		cfg := Config{
			Ident:         idents[id],
			Object:        "obj",
			Verifier:      v,
			TSA:           tsa,
			Conn:          rel,
			Log:           n.log,
			Store:         n.store,
			Clock:         clk,
			Validator:     n.val,
			RetryInterval: 20 * time.Millisecond,
		}
		for _, o := range opts {
			o(&cfg)
		}
		en, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.engine = en
		c.nodes[id] = n
		rel.SetHandler(func(from string, payload []byte) {
			env, err := wire.UnmarshalEnvelope(payload)
			if err != nil {
				return
			}
			en.HandleEnvelope(from, env)
		})
	}
	for _, id := range ids {
		if err := c.nodes[id].engine.Bootstrap(initial, ids); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		_ = n.rel.Close()
	}
	c.net.Close()
}

func (c *cluster) node(id string) *node { return c.nodes[id] }

// waitAgreed waits until every party's agreed state equals want.
func (c *cluster) waitAgreed(want []byte, d time.Duration) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range c.nodes {
			_, s := n.engine.Agreed()
			if !bytes.Equal(s, want) {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("replicas did not converge to %q", want)
}

func ctxTO(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func TestTwoPartyAgreedOverwrite(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	out, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !out.Valid {
		t.Fatalf("outcome invalid: %+v", out)
	}
	if err := c.waitAgreed([]byte("v1"), 3*time.Second); err != nil {
		t.Fatal(err)
	}

	// Both parties hold evidence of the run.
	for _, id := range []string{"alice", "bob"} {
		entries, err := c.node(id).log.ByRun(out.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) < 3 {
			t.Fatalf("%s holds %d evidence entries, want >= 3", id, len(entries))
		}
		if err := c.node(id).log.Verify(); err != nil {
			t.Fatalf("%s evidence chain: %v", id, err)
		}
	}

	// Recipient received an Installed upcall; checkpoints recorded.
	installs, _ := c.node("bob").val.counts()
	if installs != 1 {
		t.Fatalf("bob installs = %d", installs)
	}
	cp, err := c.node("bob").store.Latest("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp.State, []byte("v1")) {
		t.Fatalf("bob checkpoint = %q", cp.State)
	}
}

func TestVetoRollsBackProposer(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	c.node("bob").val.validate = func(current, proposed []byte) wire.Decision {
		return wire.Rejected("policy forbids this change")
	}
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	out, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("err = %v, want ErrVetoed", err)
	}
	if out.Valid {
		t.Fatal("vetoed run reported valid")
	}
	if d := out.Decisions["bob"]; d.Accept || d.Diagnostic != "policy forbids this change" {
		t.Fatalf("bob's decision = %+v", d)
	}

	// Both replicas remain at the agreed state.
	if err := c.waitAgreed([]byte("v0"), time.Second); err != nil {
		t.Fatal(err)
	}
	_, cur := c.node("alice").engine.Current()
	if !bytes.Equal(cur, []byte("v0")) {
		t.Fatalf("proposer current = %q, want rollback to v0", cur)
	}
	_, rollbacks := c.node("alice").val.counts()
	if rollbacks != 1 {
		t.Fatalf("alice rollbacks = %d", rollbacks)
	}
	// The veto itself is evidenced at the proposer.
	entries, _ := c.node("alice").log.ByRun(out.RunID)
	if len(entries) == 0 {
		t.Fatal("no evidence of vetoed run")
	}
}

func TestThreePartyUnanimityRequired(t *testing.T) {
	c := newCluster(t, []string{"a", "b", "c"}, []byte("v0"))
	c.node("c").val.validate = func(current, proposed []byte) wire.Decision {
		return wire.Rejected("c vetoes")
	}
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	out, err := c.node("a").engine.Propose(ctx, []byte("v1"))
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("err = %v", err)
	}
	if out.Decisions["b"].Accept != true || out.Decisions["c"].Accept != false {
		t.Fatalf("decisions = %+v", out.Decisions)
	}
	if err := c.waitAgreed([]byte("v0"), time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMajorityTermination(t *testing.T) {
	// Same veto pattern as above, but majority policy: 2-of-3 accept wins.
	c := newCluster(t, []string{"a", "b", "c"}, []byte("v0"), withTermination(Majority))
	c.node("c").val.validate = func(current, proposed []byte) wire.Decision {
		return wire.Rejected("c vetoes")
	}
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	out, err := c.node("a").engine.Propose(ctx, []byte("v1"))
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if !out.Valid {
		t.Fatalf("majority outcome invalid: %+v", out)
	}
	// a and b converge to v1; the vetoing c also installs (it computes the
	// same majority verdict from the commit evidence).
	if err := c.waitAgreed([]byte("v1"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMode(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("base|"))
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	out, err := c.node("alice").engine.ProposeUpdate(ctx, []byte("delta1"))
	if err != nil {
		t.Fatalf("ProposeUpdate: %v", err)
	}
	if !out.Valid {
		t.Fatalf("outcome: %+v", out)
	}
	if err := c.waitAgreed([]byte("base|delta1"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateModeInapplicableUpdateVetoed(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("base|"))
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	// The proposer cannot even form the proposal if its own update fails.
	if _, err := c.node("alice").engine.ProposeUpdate(ctx, []byte("BAD-delta")); err == nil {
		t.Fatal("inapplicable update accepted by proposer")
	}
}

// TestSequentialRunsAdvanceSequence is Fig 2's shape: four organisations
// share one logical object, the proposer rotates through every member, and
// after every run each replica holds the byte-equal agreed tuple and state.
func TestSequentialRunsAdvanceSequence(t *testing.T) {
	ids := []string{"alice", "bob", "carol", "dave"}
	c := newCluster(t, ids, []byte("v0"))
	const runs = 12
	for i := 1; i <= runs; i++ {
		proposer := ids[(i-1)%len(ids)]
		want := []byte(fmt.Sprintf("v%d-from-%s", i, proposer))
		ctx, cancel := ctxTO(5 * time.Second)
		out, err := c.node(proposer).engine.Propose(ctx, want)
		cancel()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !out.Valid {
			t.Fatalf("run %d invalid", i)
		}
		if err := c.waitAgreed(want, 3*time.Second); err != nil {
			t.Fatal(err)
		}
		ref, refState := c.node(proposer).engine.Agreed()
		if ref.Seq != uint64(i) {
			t.Fatalf("run %d: agreed seq = %d", i, ref.Seq)
		}
		for _, id := range ids {
			if tup, s := c.node(id).engine.Agreed(); tup != ref || !bytes.Equal(s, refState) {
				t.Fatalf("run %d: %s holds (%v, %q), proposer %s holds (%v, %q)", i, id, tup, s, proposer, ref, refState)
			}
		}
	}
}

func TestProposerBlockedWhileRunInFlight(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	// Cut bob off so alice's run blocks.
	c.net.Partition([]string{"alice"}, []string{"bob"})

	ctx, cancel := ctxTO(100 * time.Millisecond)
	defer cancel()
	_, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}

	// A second proposal while the first is unresolved must be refused.
	ctx2, cancel2 := ctxTO(100 * time.Millisecond)
	defer cancel2()
	_, err = c.node("alice").engine.Propose(ctx2, []byte("v2"))
	if !errors.Is(err, ErrRunInFlight) {
		t.Fatalf("err = %v, want ErrRunInFlight", err)
	}
}

func TestBlockedRunCompletesAfterHeal(t *testing.T) {
	// Liveness: the run blocks during a partition and completes after heal
	// because the reliable layer and protocol retries mask the outage.
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	c.net.Partition([]string{"alice"}, []string{"bob"})

	type result struct {
		out Outcome
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		ctx, cancel := ctxTO(10 * time.Second)
		defer cancel()
		out, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
		resCh <- result{out: out, err: err}
	}()

	time.Sleep(50 * time.Millisecond) // run is blocked
	c.net.Heal()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("run did not complete after heal: %v", res.err)
	}
	if err := c.waitAgreed([]byte("v1"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestLivenessUnderMessageLoss is §4.1's liveness claim: under bounded
// temporary failures (here every datagram dropped with probability p and
// duplicated with p/3) every run still completes.
func TestLivenessUnderMessageLoss(t *testing.T) {
	for _, drop := range []float64{0.3, 0.5} {
		t.Run(fmt.Sprintf("drop=%.1f", drop), func(t *testing.T) {
			c := newCluster(t, []string{"alice", "bob", "carol"}, []byte("v0"))
			c.net.SetDefaultFaults(transport.Faults{DropProb: drop, DupProb: drop / 3})

			for i := 1; i <= 5; i++ {
				want := []byte(fmt.Sprintf("v%d", i))
				ctx, cancel := ctxTO(20 * time.Second)
				out, err := c.node("alice").engine.Propose(ctx, want)
				cancel()
				if err != nil {
					t.Fatalf("run %d under loss: %v", i, err)
				}
				if !out.Valid {
					t.Fatalf("run %d invalid", i)
				}
				if err := c.waitAgreed(want, 20*time.Second); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestConcurrentProposalsNeverDiverge(t *testing.T) {
	// Two parties propose simultaneously. Safety: replicas never install
	// different states; at most one run is valid per sequence number.
	for trial := 0; trial < 5; trial++ {
		c := newCluster(t, []string{"alice", "bob", "carol"}, []byte("v0"))
		var wg sync.WaitGroup
		outs := make([]Outcome, 2)
		errs := make([]error, 2)
		proposals := [][]byte{[]byte("from-alice"), []byte("from-bob")}
		for i, id := range []string{"alice", "bob"} {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				ctx, cancel := ctxTO(10 * time.Second)
				defer cancel()
				outs[i], errs[i] = c.nodes[id].engine.Propose(ctx, proposals[i])
			}(i, id)
		}
		wg.Wait()

		validCount := 0
		for i := range outs {
			if errs[i] == nil && outs[i].Valid {
				validCount++
			}
		}
		// Truly simultaneous proposals at the same sequence number can agree
		// on at most one; the grace wait may instead serialise them into two
		// sequential agreed runs. Either way the safety property is that all
		// replicas converge to one state whose sequence number equals the
		// number of agreed runs.
		deadline := time.Now().Add(10 * time.Second)
		for {
			agreed, ref := c.node("alice").engine.Agreed()
			consistent := agreed.Seq == uint64(validCount) &&
				(validCount == 0) == bytes.Equal(ref, []byte("v0"))
			for _, id := range []string{"bob", "carol"} {
				tup, s := c.node(id).engine.Agreed()
				if !bytes.Equal(s, ref) || tup != agreed {
					consistent = false
				}
			}
			if consistent {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("trial %d: replicas inconsistent: valid=%d state=%q seq=%d",
					trial, validCount, ref, agreed.Seq)
			}
			time.Sleep(5 * time.Millisecond)
		}
		c.close()
	}
}

func TestSoleMemberCannotCoordinate(t *testing.T) {
	c := newCluster(t, []string{"solo"}, []byte("v0"))
	ctx, cancel := ctxTO(time.Second)
	defer cancel()
	if _, err := c.node("solo").engine.Propose(ctx, []byte("v1")); !errors.Is(err, ErrSoleMember) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrozenEngineRejectsProposals(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	c.node("alice").engine.Freeze()
	ctx, cancel := ctxTO(time.Second)
	defer cancel()
	if _, err := c.node("alice").engine.Propose(ctx, []byte("v1")); !errors.Is(err, ErrFrozen) {
		t.Fatalf("err = %v", err)
	}
	c.node("alice").engine.Unfreeze()

	// Frozen recipients veto.
	c.node("bob").engine.Freeze()
	ctx2, cancel2 := ctxTO(5 * time.Second)
	defer cancel2()
	_, err := c.node("alice").engine.Propose(ctx2, []byte("v1"))
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("err = %v, want veto from frozen recipient", err)
	}
}

func TestNotBootstrappedErrors(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	ca, _ := crypto.NewCA("ca", clk, time.Hour)
	tsa, _ := crypto.NewTSA("tsa", clk)
	ident, _ := crypto.NewIdentity("x")
	ca.Issue(ident)
	v := crypto.NewVerifier(ca, tsa)
	_ = v.AddCertificate(ident.Certificate())
	nw := transport.NewNetwork(1)
	defer nw.Close()
	rel, err := transport.NewReliable(nw.Endpoint("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rel.Close() }()

	en, err := New(Config{
		Ident: ident, Object: "obj", Verifier: v, TSA: tsa, Conn: rel,
		Log: nrlog.NewMemory(clk), Store: store.NewMemory(), Clock: clk, Validator: &appValidator{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := ctxTO(time.Second)
	defer cancel()
	if _, err := en.Propose(ctx, []byte("v")); !errors.Is(err, ErrNotBootstrapd) {
		t.Fatalf("err = %v", err)
	}
	if err := en.Restore(); err == nil {
		t.Fatal("Restore with empty store succeeded")
	}
}

func TestRestoreFromCheckpoint(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := ctxTO(5 * time.Second)
	out, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
	cancel()
	if err != nil || !out.Valid {
		t.Fatalf("setup run failed: %v", err)
	}
	if err := c.waitAgreed([]byte("v1"), 3*time.Second); err != nil {
		t.Fatal(err)
	}

	// Build a fresh engine over bob's persisted store: it must restore v1.
	bob := c.node("bob")
	en2, err := New(Config{
		Ident: bob.ident, Object: "obj", Verifier: crypto.NewVerifier(c.ca, c.tsa),
		TSA: c.tsa, Conn: bob.rel, Log: bob.log, Store: bob.store, Clock: c.clk,
		Validator: bob.val,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := en2.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	agreed, state := en2.Agreed()
	if !bytes.Equal(state, []byte("v1")) {
		t.Fatalf("restored state = %q", state)
	}
	if agreed.Seq != 1 {
		t.Fatalf("restored seq = %d", agreed.Seq)
	}
	_, members := en2.Group()
	if len(members) != 2 {
		t.Fatalf("restored members = %v", members)
	}
}

func TestMessageComplexityIs3NMinus1(t *testing.T) {
	// §7: the protocol is O(n): 3(n-1) protocol messages per run.
	for _, n := range []int{2, 3, 5, 8, 12, 16} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("p%d", i)
		}
		c := newCluster(t, ids, []byte("v0"))
		ctx, cancel := ctxTO(10 * time.Second)
		out, err := c.node("p0").engine.Propose(ctx, []byte("v1"))
		cancel()
		if err != nil || !out.Valid {
			t.Fatalf("n=%d: run failed: %v", n, err)
		}
		if err := c.waitAgreed([]byte("v1"), 5*time.Second); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}

		st := c.node("p0").engine.Stats()
		sent := st.ProposesSent + st.CommitsSent
		var responds uint64
		for _, id := range ids[1:] {
			responds += c.node(id).engine.Stats().RespondsSent
		}
		total := sent + responds
		want := uint64(3 * (n - 1))
		if total != want {
			t.Fatalf("n=%d: %d protocol messages, want %d", n, total, want)
		}
		c.close()
	}
}

func TestActiveRunEvidenceWhileBlocked(t *testing.T) {
	// Recipient responds, proposer omits commit (simulated by partition
	// after responses): recipient holds evidence the run is active (§4.4).
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))

	// Run a successful round first so we know the machinery works, then
	// block the commit of a second run by partitioning after respond.
	// Simplest deterministic approach: bob's validator delays long enough
	// for us to partition before commit delivery.
	release := make(chan struct{})
	c.node("bob").val.validate = func(current, proposed []byte) wire.Decision {
		<-release
		return wire.Accepted
	}

	go func() {
		ctx, cancel := ctxTO(500 * time.Millisecond)
		defer cancel()
		_, _ = c.node("alice").engine.Propose(ctx, []byte("v1"))
	}()
	time.Sleep(30 * time.Millisecond)
	// Partition so bob's respond reaches nobody and no commit arrives.
	c.net.Partition([]string{"alice"}, []string{"bob"})
	close(release)
	time.Sleep(50 * time.Millisecond)

	active := c.node("bob").engine.ActiveRuns()
	if len(active) != 1 {
		t.Fatalf("active runs at bob = %v", active)
	}
	ev, err := c.node("bob").engine.BlockedEvidence(active[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 {
		t.Fatalf("evidence bundle size = %d, want propose+respond", len(ev))
	}
	if ev[0].Kind != wire.KindPropose || ev[1].Kind != wire.KindRespond {
		t.Fatalf("evidence kinds = %v, %v", ev[0].Kind, ev[1].Kind)
	}
}

func TestDuplicateCommitIdempotent(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	c.net.SetDefaultFaults(transport.Faults{DupProb: 0.9})
	ctx, cancel := ctxTO(10 * time.Second)
	defer cancel()
	out, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
	if err != nil || !out.Valid {
		t.Fatalf("run failed: %v", err)
	}
	if err := c.waitAgreed([]byte("v1"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	installs, _ := c.node("bob").val.counts()
	if installs != 1 {
		t.Fatalf("bob installs = %d, want exactly 1 despite duplication", installs)
	}
}

func TestOutcomeRecorded(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()
	out, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.node("alice").engine.Outcome(out.RunID)
	if !ok || !got.Valid {
		t.Fatalf("proposer outcome = %+v ok=%t", got, ok)
	}
	if err := c.waitAgreed([]byte("v1"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok = c.node("bob").engine.Outcome(out.RunID)
	if !ok || !got.Valid {
		t.Fatalf("recipient outcome = %+v ok=%t", got, ok)
	}
}

func TestAlternatingProposersUnderLoss(t *testing.T) {
	// Alternating proposers with message loss exercise the deferred-
	// proposal path: a proposal can reach a recipient before the previous
	// run's commit; the recipient must wait for the commit, not veto.
	c := newCluster(t, []string{"alice", "bob", "carol"}, []byte("v0"))
	c.net.SetDefaultFaults(transport.Faults{DropProb: 0.25, DupProb: 0.05})

	proposers := []string{"alice", "bob", "carol"}
	for i := 1; i <= 9; i++ {
		want := []byte(fmt.Sprintf("v%d", i))
		proposer := proposers[i%3]
		ctx, cancel := ctxTO(30 * time.Second)
		out, err := c.node(proposer).engine.Propose(ctx, want)
		cancel()
		if err != nil {
			t.Fatalf("run %d by %s: %v", i, proposer, err)
		}
		if !out.Valid {
			t.Fatalf("run %d invalid: %+v", i, out)
		}
		if err := c.waitAgreed(want, 30*time.Second); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	agreed, _ := c.node("alice").engine.Agreed()
	if agreed.Seq != 9 {
		t.Fatalf("final seq = %d, want 9", agreed.Seq)
	}
}

func TestUpdateModeVetoed(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("base|"))
	c.node("bob").val.validate = func(current, proposed []byte) wire.Decision {
		return wire.Rejected("updates not welcome")
	}
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()
	_, err := c.node("alice").engine.ProposeUpdate(ctx, []byte("delta"))
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("err = %v", err)
	}
	// Proposer rolled back to the base state.
	_, cur := c.node("alice").engine.Current()
	if !bytes.Equal(cur, []byte("base|")) {
		t.Fatalf("current after veto = %q", cur)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()
	if _, err := c.node("alice").engine.Propose(ctx, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	st := c.node("alice").engine.Stats()
	if st.RunsProposed != 1 || st.RunsValid != 1 || st.RunsInvalid != 0 {
		t.Fatalf("proposer stats = %+v", st)
	}
	if st.ProposesSent != 1 || st.CommitsSent != 1 {
		t.Fatalf("proposer messages = %+v", st)
	}
	if err := c.waitAgreed([]byte("v1"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	bst := c.node("bob").engine.Stats()
	if bst.RespondsSent != 1 || bst.RunsCommitted != 1 {
		t.Fatalf("recipient stats = %+v", bst)
	}
}

func TestRecoverPendingProposerRun(t *testing.T) {
	// The proposer crashes after sending its proposal; a new engine built
	// over the same store resumes the run and completes it (§4.2: nodes
	// eventually recover and resume participation in a protocol run).
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))

	// Block responses so alice's run is in flight when she "crashes".
	c.net.Partition([]string{"alice"}, []string{"bob"})
	ctx, cancel := ctxTO(150 * time.Millisecond)
	_, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
	cancel()
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("setup: %v", err)
	}
	pending, err := c.node("alice").store.PendingRuns()
	if err != nil || len(pending) != 1 {
		t.Fatalf("pending runs = %v (%v)", pending, err)
	}

	// Crash alice: new engine + reliable conn over the same store, bound to
	// a fresh endpoint id that bob can still reach via the old name? The
	// in-memory network routes by id, so rebind the same id by swapping the
	// handler to the new engine.
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
	rctx, rcancel := ctxTO(15 * time.Second)
	defer rcancel()
	outs, err := en2.RecoverPendingRuns(rctx)
	if err != nil {
		t.Fatalf("RecoverPendingRuns: %v", err)
	}
	if len(outs) != 1 || !outs[0].Valid {
		t.Fatalf("recovered outcomes = %+v", outs)
	}
	_, state := en2.Agreed()
	if !bytes.Equal(state, []byte("v1")) {
		t.Fatalf("recovered agreed state = %q", state)
	}
	// Bob converged too.
	if err := c.waitAgreed([]byte("v1"), 5*time.Second); err == nil {
		return
	}
	// waitAgreed checks the ORIGINAL alice engine as well, which is dead;
	// check bob directly instead.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, s := c.node("bob").engine.Agreed()
		if bytes.Equal(s, []byte("v1")) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("bob did not converge after proposer recovery")
}

func TestRecoverPendingRunsNoPending(t *testing.T) {
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()
	outs, err := c.node("alice").engine.RecoverPendingRuns(ctx)
	if err != nil || len(outs) != 0 {
		t.Fatalf("outs=%v err=%v", outs, err)
	}
}
