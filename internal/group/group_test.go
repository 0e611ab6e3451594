package group

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/tuple"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

// acceptValidator accepts every state change (coordination side).
type acceptValidator struct{}

func (acceptValidator) ValidateState(string, *pagestate.Paged, []byte) wire.Decision {
	return wire.Accepted
}
func (acceptValidator) ValidateUpdate(string, *pagestate.Paged, []byte) wire.Decision {
	return wire.Accepted
}
func (acceptValidator) ApplyUpdate(current *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	out := current.Clone()
	if err := out.Append(update); err != nil {
		return nil, err
	}
	return out, nil
}
func (acceptValidator) Installed(*pagestate.Paged, tuple.State)  {}
func (acceptValidator) RolledBack(*pagestate.Paged, tuple.State) {}

// memberValidator is a configurable membership validator.
type memberValidator struct {
	mu         sync.Mutex
	connect    func(subject string) wire.Decision
	disconnect func(subject string, voluntary bool) wire.Decision
}

func (v *memberValidator) ValidateConnect(subject string) wire.Decision {
	v.mu.Lock()
	f := v.connect
	v.mu.Unlock()
	if f != nil {
		return f(subject)
	}
	return wire.Accepted
}

func (v *memberValidator) ValidateDisconnect(subject string, voluntary bool) wire.Decision {
	v.mu.Lock()
	f := v.disconnect
	v.mu.Unlock()
	if f != nil {
		return f(subject, voluntary)
	}
	return wire.Accepted
}

// gnode is a full participant: coordination engine, membership manager and
// the transfer plane through which a joiner fetches the agreed state.
type gnode struct {
	id      string
	ident   *crypto.Identity
	engine  *coord.Engine
	manager *Manager
	xfer    *xfer.Manager
	mval    *memberValidator
	log     *nrlog.Memory
	rel     *transport.Reliable
}

type gcluster struct {
	t     *testing.T
	net   *transport.Network
	clk   clock.Clock
	ca    *crypto.CA
	tsa   *crypto.TSA
	nodes map[string]*gnode
}

// newGCluster creates nodes for ids; those in founding are bootstrapped as
// the founding group, the rest remain outsiders who may Join.
func newGCluster(t *testing.T, ids, founding []string, initial []byte) *gcluster {
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
	c := &gcluster{t: t, net: transport.NewNetwork(3), clk: clk, ca: ca, tsa: tsa, nodes: make(map[string]*gnode)}
	t.Cleanup(c.close)

	idents := make(map[string]*crypto.Identity)
	for _, id := range ids {
		ident, err := crypto.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		ca.Issue(ident)
		idents[id] = ident
	}
	for _, id := range ids {
		// Founding members know each other's certificates; outsiders know
		// only their own (they learn the rest from the Welcome).
		v := crypto.NewVerifier(ca, tsa)
		if contains(founding, id) {
			for _, other := range founding {
				if err := v.AddCertificate(idents[other].Certificate()); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			if err := v.AddCertificate(idents[id].Certificate()); err != nil {
				t.Fatal(err)
			}
		}
		rel, err := transport.NewReliable(c.net.Endpoint(id), transport.WithRetryInterval(5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		n := &gnode{
			id:    id,
			ident: idents[id],
			mval:  &memberValidator{},
			log:   nrlog.NewMemory(clk),
			rel:   rel,
		}
		en, err := coord.New(coord.Config{
			Ident: idents[id], Object: "obj", Verifier: v, TSA: tsa, Conn: rel,
			Log: n.log, Store: store.NewMemory(), Clock: clk, Validator: acceptValidator{},
			RetryInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		xm, err := xfer.New(xfer.Config{
			Ident: idents[id], Object: "obj", Verifier: v, TSA: tsa, Conn: rel,
			Log: n.log, Clock: clk, Engine: en,
			Policy: xfer.Policy{RequestTimeout: 150 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := New(Config{
			Ident: idents[id], Object: "obj", Verifier: v, TSA: tsa, Conn: rel,
			Log: n.log, Clock: clk, Engine: en, Validator: n.mval,
			ResponseTimeout: 5 * time.Second, Xfer: xm,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.engine = en
		n.manager = mgr
		n.xfer = xm
		c.nodes[id] = n
		rel.SetHandler(func(from string, payload []byte) {
			env, err := wire.UnmarshalEnvelope(payload)
			if err != nil {
				return
			}
			switch env.Kind {
			case wire.KindPropose, wire.KindRespond, wire.KindCommit:
				en.HandleEnvelope(from, env)
			case wire.KindStateRequest, wire.KindStateOffer, wire.KindStateChunk, wire.KindStateAck, wire.KindStateDone:
				xm.HandleEnvelope(from, env)
			default:
				mgr.HandleEnvelope(from, env)
			}
		})
	}
	for _, id := range founding {
		if err := c.nodes[id].engine.Bootstrap(initial, founding); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func (c *gcluster) close() {
	for _, n := range c.nodes {
		n.xfer.Close()
		_ = n.rel.Close()
	}
	c.net.Close()
}

func (c *gcluster) node(id string) *gnode { return c.nodes[id] }

// waitMembers waits until each named node reports exactly want members.
func (c *gcluster) waitMembers(nodes []string, want []string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		ok := true
		for _, id := range nodes {
			_, members := c.nodes[id].engine.Group()
			if !equalStrings(members, want) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range nodes {
		_, members := c.nodes[id].engine.Group()
		c.t.Logf("%s sees members %v", id, members)
	}
	return fmt.Errorf("membership did not converge to %v", want)
}

func TestSponsorOf(t *testing.T) {
	tests := []struct {
		name      string
		members   []string
		excluding []string
		want      string
		wantErr   bool
	}{
		{name: "most recently joined", members: []string{"a", "b", "c"}, want: "c"},
		{name: "subject excluded", members: []string{"a", "b", "c"}, excluding: []string{"c"}, want: "b"},
		{name: "multiple excluded", members: []string{"a", "b", "c"}, excluding: []string{"c", "b"}, want: "a"},
		{name: "single member", members: []string{"a"}, want: "a"},
		{name: "all excluded", members: []string{"a"}, excluding: []string{"a"}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := SponsorOf(tt.members, tt.excluding...)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v", err)
			}
			if got != tt.want {
				t.Fatalf("sponsor = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestNewRequiresTransferPlane(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob"}, []string{"alice", "bob"}, []byte("v0"))
	cfg := c.node("alice").manager.cfg
	if _, err := New(cfg); err != nil {
		t.Fatalf("complete config rejected: %v", err)
	}
	cfg.Xfer = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("a manager without a transfer plane was created")
	}
}

func TestConnectionAdmitsSubject(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob"}, []byte("v0"))

	// Carol contacts alice; alice is not the sponsor (bob joined last) and
	// redirects; Join retries transparently.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("carol").manager.Join(ctx, "alice"); err != nil {
		t.Fatalf("Join: %v", err)
	}

	want := []string{"alice", "bob", "carol"}
	if err := c.waitMembers(want, want, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Carol received the agreed state.
	_, state := c.node("carol").engine.Agreed()
	if !bytes.Equal(state, []byte("v0")) {
		t.Fatalf("carol's state = %q", state)
	}

	// Three-way coordination now works, proposed by the newcomer.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	out, err := c.node("carol").engine.Propose(ctx2, []byte("v1"))
	if err != nil || !out.Valid {
		t.Fatalf("carol's proposal: %v", err)
	}
}

func TestConnectionTransfersLatestState(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob"}, []byte("v0"))

	// Advance the state before carol joins.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	out, err := c.node("alice").engine.Propose(ctx, []byte("v5"))
	cancel()
	if err != nil || !out.Valid {
		t.Fatalf("setup proposal: %v", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := c.node("carol").manager.Join(ctx2, "bob"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	agreed, state := c.node("carol").engine.Agreed()
	if !bytes.Equal(state, []byte("v5")) {
		t.Fatalf("carol's state = %q, want v5", state)
	}
	if agreed.Seq != 1 {
		t.Fatalf("carol's agreed seq = %d", agreed.Seq)
	}
}

func TestConnectionVetoIndistinguishableFromRejection(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol", "dave"}, []string{"alice", "bob", "carol"}, []byte("v0"))

	// alice (a plain member) vetoes dave's admission.
	c.node("alice").mval.connect = func(subject string) wire.Decision {
		return wire.Rejected("alice distrusts " + subject)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.node("dave").manager.Join(ctx, "carol")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// The generic reason must not disclose alice's veto (§4.5.3).
	if msg := err.Error(); bytes.Contains([]byte(msg), []byte("alice")) {
		t.Fatalf("rejection leaks veto source: %q", msg)
	}
	// Membership unchanged.
	want := []string{"alice", "bob", "carol"}
	if err := c.waitMembers(want, want, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionImmediateRejectBySponsor(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob"}, []byte("v0"))
	c.node("bob").mval.connect = func(subject string) wire.Decision {
		return wire.Rejected("no new members today")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.node("carol").manager.Join(ctx, "bob")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestSponsorRotation(t *testing.T) {
	// After carol joins, she is the most recently joined member and must
	// sponsor the next connection (§4.5.1).
	c := newGCluster(t, []string{"alice", "bob", "carol", "dave"}, []string{"alice", "bob"}, []byte("v0"))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("carol").manager.Join(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	want3 := []string{"alice", "bob", "carol"}
	if err := c.waitMembers(want3, want3, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Dave contacts bob (the old sponsor): he must be redirected to carol,
	// and the join must still succeed.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := c.node("dave").manager.Join(ctx2, "bob"); err != nil {
		t.Fatalf("Join after rotation: %v", err)
	}
	want4 := []string{"alice", "bob", "carol", "dave"}
	if err := c.waitMembers(want4, want4, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Carol (not bob) must have sponsored: her log holds the conn-propose.
	entries, err := c.node("carol").log.Entries()
	if err != nil {
		t.Fatal(err)
	}
	sponsored := false
	for _, e := range entries {
		if e.Kind == wire.KindConnPropose.String() && e.Direction == nrlog.DirSent {
			sponsored = true
		}
	}
	if !sponsored {
		t.Fatal("carol did not sponsor dave's connection")
	}
}

func TestVoluntaryLeave(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob", "carol"}, []byte("v0"))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("alice").manager.Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	want := []string{"bob", "carol"}
	if err := c.waitMembers(want, want, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The two remaining members still coordinate.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	out, err := c.node("bob").engine.Propose(ctx2, []byte("v1"))
	if err != nil || !out.Valid {
		t.Fatalf("post-leave proposal: %v", err)
	}
}

func TestVoluntaryLeaveCannotBeVetoed(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob", "carol"}, []byte("v0"))
	// Bob would veto everything — but voluntary disconnection takes no vote.
	c.node("bob").mval.disconnect = func(string, bool) wire.Decision {
		return wire.Rejected("nobody leaves")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("alice").manager.Leave(ctx); err != nil {
		t.Fatalf("voluntary leave was blocked: %v", err)
	}
	want := []string{"bob", "carol"}
	if err := c.waitMembers(want, want, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestEviction(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob", "carol"}, []byte("v0"))

	// Alice proposes evicting bob; sponsor is carol (most recently joined,
	// not evicted).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("alice").manager.Evict(ctx, "bob"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	want := []string{"alice", "carol"}
	if err := c.waitMembers([]string{"alice", "carol"}, want, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The evictee's proposals are now rejected: inconsistent group.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_, err := c.node("bob").engine.Propose(ctx2, []byte("intrusion"))
	if err == nil {
		t.Fatal("evictee's proposal succeeded")
	}
	// Remaining members still hold v0.
	_, state := c.node("alice").engine.Agreed()
	if !bytes.Equal(state, []byte("v0")) {
		t.Fatalf("state after evictee proposal = %q", state)
	}
}

func TestEvictionVetoed(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob", "carol"}, []byte("v0"))
	// Sponsor carol relays, but alice... is the proposer. The only other
	// voter is alice herself? Recipients are remaining members minus
	// sponsor: {alice}. Let alice's own validator veto to exercise the path
	// where the proposer's member-side validator participates.
	c.node("alice").mval.disconnect = func(subject string, voluntary bool) wire.Decision {
		return wire.Rejected("eviction is too harsh")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := c.node("alice").manager.Evict(ctx, "bob")
	// The sponsor (carol) reports the veto to the proposer only via
	// membership staying unchanged, so the blocked Evict surfaces it as ctx
	// expiry.
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("vetoed Evict = %v, want context deadline", err)
	}
	want := []string{"alice", "bob", "carol"}
	if err := c.waitMembers(want, want, 2*time.Second); err != nil {
		t.Fatal("membership changed despite veto")
	}
}

func TestEvictSubset(t *testing.T) {
	c := newGCluster(t, []string{"a", "b", "c", "d"}, []string{"a", "b", "c", "d"}, []byte("v0"))
	// d is the sponsor; it proposes evicting b and c at once (§4.5.4
	// evictee-subset extension).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("d").manager.Evict(ctx, "b", "c"); err != nil {
		t.Fatalf("Evict subset: %v", err)
	}
	want := []string{"a", "d"}
	if err := c.waitMembers([]string{"a", "d"}, want, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestEvictErrors(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob"}, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.node("alice").manager.Evict(ctx); !errors.Is(err, ErrBadSubject) {
		t.Fatalf("empty evictees: %v", err)
	}
	if err := c.node("alice").manager.Evict(ctx, "ghost"); !errors.Is(err, ErrBadSubject) {
		t.Fatalf("unknown evictee: %v", err)
	}
	if err := c.node("alice").manager.Evict(ctx, "alice"); !errors.Is(err, ErrBadSubject) {
		t.Fatalf("self-eviction: %v", err)
	}
}

func TestLeaveTwoPartyGroup(t *testing.T) {
	// When one of two members leaves, the remaining member forms a group of
	// one (no recipients for the disconnection proposal).
	c := newGCluster(t, []string{"alice", "bob"}, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("alice").manager.Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := c.waitMembers([]string{"bob"}, []string{"bob"}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipEvidenceLogged(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("carol").manager.Join(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	want := []string{"alice", "bob", "carol"}
	if err := c.waitMembers(want, want, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Every party holds verified-chain evidence of the membership run.
	for _, id := range want {
		if err := c.node(id).log.Verify(); err != nil {
			t.Fatalf("%s evidence chain: %v", id, err)
		}
		entries, _ := c.node(id).log.Entries()
		var kinds []string
		for _, e := range entries {
			kinds = append(kinds, e.Kind)
		}
		if len(entries) < 2 {
			t.Fatalf("%s evidence too thin: %v", id, kinds)
		}
	}
}

func TestIllegitimateSponsorRejected(t *testing.T) {
	// Alice (not the sponsor: bob joined last) forges a conn-propose for a
	// fourth party. Members must reject it: only the legitimate sponsor may
	// coordinate membership (§4.5.1).
	c := newGCluster(t, []string{"alice", "bob", "carol", "dave"},
		[]string{"alice", "bob", "carol"}, []byte("v0"))

	curGroup, members := c.node("alice").engine.Group()
	newMembers := append(append([]string(nil), members...), "dave")
	req := wire.ConnRequest{
		ReqID:   "forged-req",
		Object:  "obj",
		Subject: "dave",
		Nonce:   []byte("n"),
	}
	sreq := wire.Sign(wire.KindConnRequest, req.Marshal(), c.node("dave").ident, c.tsa)
	prop := wire.ConnPropose{
		RunID:      "forged-run",
		Sponsor:    "alice", // alice is NOT the sponsor
		Object:     "obj",
		ReqID:      "forged-req",
		Request:    sreq,
		CurGroup:   curGroup,
		NewGroup:   tuple.NewGroup(curGroup.Seq+1, []byte("r"), newMembers),
		NewMembers: newMembers,
		Subject:    "dave",
	}
	signed := wire.Sign(wire.KindConnPropose, prop.Marshal(), c.node("alice").ident, c.tsa)
	env := wire.Envelope{
		MsgID: "m-forged", From: "alice", To: "bob", Object: "obj",
		Kind: wire.KindConnPropose, Payload: signed.Marshal(),
	}
	if err := c.node("alice").rel.Send(context.Background(), "bob", env.Marshal()); err != nil {
		t.Fatal(err)
	}

	// Bob answers with a rejection; membership must not change.
	time.Sleep(200 * time.Millisecond)
	_, got := c.node("bob").engine.Group()
	if !equalStrings(got, members) {
		t.Fatalf("membership changed: %v", got)
	}
	// Bob's evidence log records the proposal and his veto.
	entries, err := c.node("bob").log.ByRun("forged-run")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no evidence of the forged membership proposal")
	}
}

func TestWelcomeEnvelopeMustBeSponsorSigned(t *testing.T) {
	// A Welcome names alice as sponsor, but the outer envelope is signed by
	// bob — a certified member replaying a captured (or fabricated) Welcome
	// body under its own wrapper. The subject must reject it before looking
	// at any of the welcome's contents.
	c := newGCluster(t, []string{"alice", "bob", "carol"},
		[]string{"alice", "bob"}, []byte("v0"))

	w := wire.Welcome{
		RunID:   "forged-welcome",
		Sponsor: "alice",
		Object:  "obj",
		MemberCerts: []crypto.Certificate{
			c.node("alice").ident.Certificate(),
			c.node("bob").ident.Certificate(),
		},
	}
	signed := wire.Sign(wire.KindWelcome, w.Marshal(), c.node("bob").ident, c.tsa)
	err := c.node("carol").manager.adoptWelcome(context.Background(), &w, signed)
	if !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("welcome wrapped by a non-sponsor adopted: err=%v", err)
	}

	// An envelope whose signer is not certified at all fails verification.
	outsider, err := crypto.NewIdentity("mallory")
	if err != nil {
		t.Fatal(err)
	}
	w.Sponsor = "mallory"
	signed = wire.Sign(wire.KindWelcome, w.Marshal(), outsider, c.tsa)
	if err := c.node("carol").manager.adoptWelcome(context.Background(), &w, signed); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("welcome with unverifiable envelope adopted: err=%v", err)
	}
}

func TestGroupSequenceMustAdvance(t *testing.T) {
	// A membership proposal with a non-advancing group sequence is vetoed.
	c := newGCluster(t, []string{"alice", "bob", "carol"},
		[]string{"alice", "bob"}, []byte("v0"))
	curGroup, members := c.node("bob").engine.Group()
	newMembers := append(append([]string(nil), members...), "carol")
	req := wire.ConnRequest{ReqID: "r1", Object: "obj", Subject: "carol", Nonce: []byte("n")}
	sreq := wire.Sign(wire.KindConnRequest, req.Marshal(), c.node("carol").ident, c.tsa)
	prop := wire.ConnPropose{
		RunID:      "stale-group-run",
		Sponsor:    "bob", // bob IS the legitimate sponsor
		Object:     "obj",
		ReqID:      "r1",
		Request:    sreq,
		CurGroup:   curGroup,
		NewGroup:   tuple.NewGroup(curGroup.Seq, []byte("r"), newMembers), // no advance
		NewMembers: newMembers,
		Subject:    "carol",
	}
	signed := wire.Sign(wire.KindConnPropose, prop.Marshal(), c.node("bob").ident, c.tsa)
	env := wire.Envelope{
		MsgID: "m-stale", From: "bob", To: "alice", Object: "obj",
		Kind: wire.KindConnPropose, Payload: signed.Marshal(),
	}
	if err := c.node("bob").rel.Send(context.Background(), "alice", env.Marshal()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	_, got := c.node("alice").engine.Group()
	if !equalStrings(got, members) {
		t.Fatalf("membership changed: %v", got)
	}
}

func TestLeaveImmediatelyAfterEviction(t *testing.T) {
	// Carol leaves right after proposing/observing an eviction: her request
	// may reach the sponsor while the eviction run is still deciding; the
	// retry path must get her out eventually.
	c := newGCluster(t, []string{"alice", "bob", "carol", "dave"},
		[]string{"alice", "bob", "carol", "dave"}, []byte("v0"))
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	if err := c.node("alice").manager.Evict(ctx, "bob"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	// No settling: leave immediately.
	if err := c.node("carol").manager.Leave(ctx); err != nil {
		t.Fatalf("Leave after eviction: %v", err)
	}
	want := []string{"alice", "dave"}
	if err := c.waitMembers([]string{"alice", "dave"}, want, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
