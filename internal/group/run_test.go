package group

import (
	"context"
	"errors"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// sendAs delivers one membership message from node from to node to.
func (c *gcluster) sendAs(from, to string, kind wire.Kind, payload []byte) {
	c.t.Helper()
	env := wire.Envelope{MsgID: from + "-" + to + "-" + kind.String(), From: from, To: to, Object: "obj", Kind: kind, Payload: payload}
	if err := c.nodes[from].rel.Send(context.Background(), to, env.Marshal()); err != nil {
		c.t.Fatal(err)
	}
}

// waitEntries waits until node id's evidence for runID holds n entries of
// kind, and returns their payloads.
func (c *gcluster) waitEntries(id, runID, kind string, n int) [][]byte {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, err := c.nodes[id].log.ByRun(runID)
		if err != nil {
			c.t.Fatal(err)
		}
		var out [][]byte
		for _, e := range entries {
			if e.Kind == kind {
				out = append(out, e.Payload)
			}
		}
		if len(out) >= n {
			return out
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("%s holds %d %s entries for %s, want %d", id, len(out), kind, runID, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSponsorCannotDropVeto: a sponsor that leaves a member's veto out of
// the commit does not get the change agreed. The members treat the
// incomplete commit as "not agreed", and a subject handed it in a Welcome
// refuses it as evidence.
func TestSponsorCannotDropVeto(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol", "dave"}, []string{"alice", "bob", "carol"}, []byte("v0"))
	c.node("alice").mval.connect = func(subject string) wire.Decision {
		return wire.Rejected("alice distrusts " + subject)
	}
	carol, dave := c.node("carol"), c.node("dave")

	// Carol, the legitimate sponsor, proposes dave to alice and bob.
	curGroup, members := carol.engine.Group()
	newMembers := append(members, "dave")
	req := wire.ConnRequest{ReqID: "drop-req", Object: "obj", Subject: "dave", SubjectCert: dave.ident.Certificate(), Nonce: []byte("n")}
	auth := []byte("authenticator")
	prop := wire.ConnPropose{
		RunID: "drop-run", Sponsor: "carol", Object: "obj", ReqID: "drop-req",
		Request:  wire.Sign(wire.KindConnRequest, req.Marshal(), dave.ident, c.tsa),
		CurGroup: curGroup, NewGroup: tuple.NewGroup(curGroup.Seq+1, []byte("r"), newMembers), NewMembers: newMembers,
		Subject: "dave", SubjectCert: dave.ident.Certificate(), AuthCommit: crypto.Hash(auth),
	}
	sprop := wire.Sign(wire.KindConnPropose, prop.Marshal(), carol.ident, c.tsa)
	for _, to := range []string{"alice", "bob"} {
		c.sendAs("carol", to, wire.KindConnPropose, sprop.Marshal())
	}

	// Alice vetoes and bob accepts; carol commits with bob's response only.
	var bobs wire.Signed
	for _, raw := range c.waitEntries("carol", "drop-run", wire.KindConnRespond.String(), 2) {
		s, err := wire.UnmarshalSigned(raw)
		if err != nil {
			t.Fatal(err)
		}
		if s.Signer() == "bob" {
			bobs = s
		}
	}
	commit := wire.GroupCommit{RunID: "drop-run", Sponsor: "carol", Object: "obj", Auth: auth, Propose: sprop, Responds: []wire.Signed{bobs}}
	for _, to := range []string{"alice", "bob"} {
		c.sendAs("carol", to, wire.KindConnCommit, commit.MarshalConn())
	}
	for _, id := range []string{"alice", "bob"} {
		verdict := c.waitEntries(id, "drop-run", "membership-verdict", 1)[0]
		if string(verdict) != "agreed=false" {
			t.Fatalf("%s's verdict on a commit missing alice's veto: %s", id, verdict)
		}
	}
	if err := c.waitMembers([]string{"alice", "bob", "carol"}, members, time.Second); err != nil {
		t.Fatal(err)
	}

	// The same commit in a Welcome is not evidence of admission. A cancelled
	// context proves the refusal comes before any state is fetched.
	bobResp, err := wire.UnmarshalConnRespond(bobs.Body)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.Welcome{
		RunID: "drop-run", Sponsor: "carol", Object: "obj", Members: newMembers, Group: prop.NewGroup,
		AgreedTuple: bobResp.Agreed, Commit: commit,
		MemberCerts: []crypto.Certificate{c.node("alice").ident.Certificate(), c.node("bob").ident.Certificate(), carol.ident.Certificate()},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	signed := wire.Sign(wire.KindWelcome, w.Marshal(), carol.ident, c.tsa)
	if err := dave.manager.adoptWelcome(ctx, &w, signed); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("welcome carrying a commit without alice's veto: err=%v, want ErrBadEvidence", err)
	}
}

// TestAbandonedMembershipRunUnfreezes: a run whose sponsor times out waiting
// for a response still closes. The sponsor commits with the responses it
// holds, and a member that accepted and froze unfreezes on that verdict.
func TestAbandonedMembershipRunUnfreezes(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol", "dave"}, []string{"alice", "bob", "carol"}, []byte("v0"))
	for _, n := range c.nodes {
		n.manager.cfg.ResponseTimeout = 300 * time.Millisecond
	}
	// Bob never hears carol's propose for dave.
	c.net.Partition([]string{"bob"}, []string{"carol"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.node("dave").manager.Join(ctx, "carol"); !errors.Is(err, ErrRejected) {
		t.Fatalf("join with an unreachable member: err=%v, want ErrRejected", err)
	}

	// Alice accepted and froze; the commit sent on timeout unfreezes her.
	deadline := time.Now().Add(3 * time.Second)
	for {
		out, err := c.node("alice").engine.Propose(ctx, []byte("v1"))
		if err == nil && out.Valid {
			break
		}
		if !errors.Is(err, coord.ErrFrozen) || time.Now().After(deadline) {
			t.Fatalf("alice's proposal after the abandoned run: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := []string{"alice", "bob", "carol"}
	if err := c.waitMembers(want, want, time.Second); err != nil {
		t.Fatal(err)
	}
}

// failWelcomeLog refuses to record welcome evidence.
type failWelcomeLog struct{ nrlog.Log }

func (l failWelcomeLog) Append(runID, object, kind, party string, dir nrlog.Direction, payload []byte) (nrlog.Entry, error) {
	if kind == wire.KindWelcome.String() {
		return nrlog.Entry{}, errors.New("evidence store full")
	}
	return l.Log.Append(runID, object, kind, party, dir, payload)
}

// TestSponsorAppliesAgreedMembershipWithoutWelcome: once the agreed commit
// is out, every member applies the new membership, so the sponsor does too.
// A failed welcome append only withholds the Welcome.
func TestSponsorAppliesAgreedMembershipWithoutWelcome(t *testing.T) {
	c := newGCluster(t, []string{"alice", "bob", "carol"}, []string{"alice", "bob"}, []byte("v0"))
	c.node("bob").manager.cfg.Log = failWelcomeLog{c.node("bob").log}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := c.node("carol").manager.Join(ctx, "bob"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("join without a Welcome: err=%v, want deadline", err)
	}
	want := []string{"alice", "bob", "carol"}
	if err := c.waitMembers([]string{"alice", "bob"}, want, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}
