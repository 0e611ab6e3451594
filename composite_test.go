package b2b_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	b2b "b2b"
	"b2b/internal/clock"
	"b2b/internal/crypto"
)

// kvComponent is a trivial component: a single value writable only by its
// owner. Access is locked: the middleware installs state from its own
// goroutines while tests read and write concurrently.
type kvComponent struct {
	mu    sync.Mutex
	Owner string `json:"owner"`
	Value string `json:"value"`
}

func (c *kvComponent) setValue(v string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Value = v
}

func (c *kvComponent) getValue() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Value
}

func (c *kvComponent) GetState() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Marshal(struct {
		Owner string `json:"owner"`
		Value string `json:"value"`
	}{c.Owner, c.Value})
}

func (c *kvComponent) ApplyState(state []byte) error {
	var next struct {
		Owner string `json:"owner"`
		Value string `json:"value"`
	}
	if err := json.Unmarshal(state, &next); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Owner, c.Value = next.Owner, next.Value
	return nil
}

func (c *kvComponent) ValidateState(proposer string, state []byte) error {
	var next kvComponent
	if err := json.Unmarshal(state, &next); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if next.Value != c.Value && proposer != c.Owner {
		return fmt.Errorf("only %s may write", c.Owner)
	}
	return nil
}

func (c *kvComponent) ValidateConnect(string) error { return nil }

func (c *kvComponent) ValidateDisconnect(string, bool) error { return nil }

func TestCompositeUnit(t *testing.T) {
	comp := b2b.NewComposite()
	a := &kvComponent{Owner: "alice"}
	b := &kvComponent{Owner: "bob"}
	if err := comp.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if err := comp.Add("b", b); err != nil {
		t.Fatal(err)
	}
	if err := comp.Add("a", a); err == nil {
		t.Fatal("duplicate component accepted")
	}
	if _, ok := comp.Component("a"); !ok {
		t.Fatal("component lookup failed")
	}

	// Round trip.
	state, err := comp.GetState()
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.ApplyState(state); err != nil {
		t.Fatal(err)
	}

	// Owner writes validate; foreign writes do not.
	next := b2b.NewComposite()
	na := &kvComponent{Owner: "alice", Value: "changed"}
	nb := &kvComponent{Owner: "bob"}
	_ = next.Add("a", na)
	_ = next.Add("b", nb)
	nstate, err := next.GetState()
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.ValidateState("alice", nstate); err != nil {
		t.Fatalf("owner write rejected: %v", err)
	}
	err = comp.ValidateState("bob", nstate)
	if err == nil || !strings.Contains(err.Error(), `component "a"`) {
		t.Fatalf("foreign write accepted or wrong diagnostic: %v", err)
	}

	// Missing component rejected.
	partial := []byte(`{"a":{"owner":"alice","value":"x"}}`)
	if err := comp.ValidateState("alice", partial); err == nil {
		t.Fatal("partial composite accepted")
	}
	if err := comp.ApplyState(partial); err == nil {
		t.Fatal("partial install accepted")
	}
	// Unknown extra component rejected (count check).
	extra := []byte(`{"a":{"owner":"alice"},"b":{"owner":"bob"},"c":{}}`)
	if err := comp.ValidateState("alice", extra); err == nil {
		t.Fatal("oversized composite accepted")
	}
}

func TestCompositeCoordinatedAtomically(t *testing.T) {
	// Two parties share a composite of two owned components; a single run
	// installs changes to both components atomically, and a change touching
	// a foreign component vetoes the whole proposal.
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	net := b2b.NewMemoryNetwork(5)
	t.Cleanup(net.Close)

	ids := []string{"alice", "bob"}
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

	type side struct {
		ctrl *b2b.Controller
		mine *kvComponent
		your *kvComponent
	}
	sides := make(map[string]*side)
	for _, id := range ids {
		conn, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b2b.NewParticipant(idents[id], td, conn,
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		comp := b2b.NewComposite()
		ca := &kvComponent{Owner: "alice"}
		cb := &kvComponent{Owner: "bob"}
		if err := comp.Add("alice-part", ca); err != nil {
			t.Fatal(err)
		}
		if err := comp.Add("bob-part", cb); err != nil {
			t.Fatal(err)
		}
		ctrl, err := p.Bind("composite", comp, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := &side{ctrl: ctrl}
		if id == "alice" {
			s.mine, s.your = ca, cb
		} else {
			s.mine, s.your = cb, ca
		}
		sides[id] = s
	}
	for _, id := range ids {
		if err := sides[id].ctrl.Bootstrap(ids); err != nil {
			t.Fatal(err)
		}
	}

	// Alice changes her own component: accepted everywhere.
	alice := sides["alice"]
	alice.ctrl.Enter()
	alice.ctrl.Overwrite()
	alice.mine.setValue("alice-v1")
	if err := alice.ctrl.Leave(); err != nil {
		t.Fatalf("own-component change: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sides["bob"].your.getValue() == "alice-v1" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := sides["bob"].your.getValue(); got != "alice-v1" {
		t.Fatalf("bob's view of alice's component = %q", got)
	}

	// Alice touches bob's component: the whole composite proposal vetoes.
	if err := alice.ctrl.Settle(context.Background()); err != nil {
		t.Fatal(err)
	}
	alice.ctrl.Enter()
	alice.ctrl.Overwrite()
	alice.your.setValue("intrusion")
	err = alice.ctrl.Leave()
	if !errors.Is(err, b2b.ErrVetoed) {
		t.Fatalf("foreign-component change: %v", err)
	}
	// Rolled back locally.
	if alice.your.getValue() != "" {
		t.Fatalf("alice's copy of bob's component after rollback = %q", alice.your.getValue())
	}
}
