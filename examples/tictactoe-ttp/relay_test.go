package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	b2b "b2b"
	"b2b/internal/crypto"
)

// blob is an object that accepts every state: the players' side of the
// relay tests, so only the agent's rules judge.
type blob struct {
	mu    sync.Mutex
	state []byte
}

func (b *blob) GetState() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.state...), nil
}

func (b *blob) ApplyState(state []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = state
	return nil
}

func (b *blob) set(state string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = []byte(state)
}

func (b *blob) ValidateState(string, []byte) error    { return nil }
func (b *blob) ValidateConnect(string) error          { return nil }
func (b *blob) ValidateDisconnect(string, bool) error { return nil }

// relayWorld is the Fig 6 topology: two 2-party groups bridged by the
// agent — {left, agent} on object "side-l" and {agent, right} on "side-r".
type relayWorld struct {
	relay *relay
	parts map[string]*b2b.Participant
	objs  map[string]*blob
	ctrls map[string]*b2b.Controller
}

func newRelayWorld(t *testing.T, rules func(proposer string, current, proposed []byte) error) *relayWorld {
	t.Helper()
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"left", "agent", "right"}
	idents := map[string]*crypto.Identity{}
	var certs []crypto.Certificate
	for _, id := range ids {
		ident, err := td.Issue(id)
		if err != nil {
			t.Fatal(err)
		}
		idents[id] = ident
		certs = append(certs, ident.Certificate())
	}
	net := b2b.NewMemoryNetwork(31)
	t.Cleanup(net.Close)
	w := &relayWorld{
		relay: newRelay(rules),
		parts: map[string]*b2b.Participant{},
		objs:  map[string]*blob{},
		ctrls: map[string]*b2b.Controller{},
	}
	for _, id := range ids {
		conn, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b2b.NewParticipant(idents[id], td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		w.parts[id] = p
	}
	t.Cleanup(w.relay.Wait) // runs before the participants close

	objects := [2]string{"side-l", "side-r"}
	sides := [2][]string{{"left", "agent"}, {"agent", "right"}}
	if err := w.relay.bind(w.parts["agent"], objects, sides, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"left", "right"} {
		w.objs[id] = &blob{state: []byte("v0")}
		ctrl, err := w.parts[id].Bind(objects[i], w.objs[id], nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Bootstrap(sides[i]); err != nil {
			t.Fatal(err)
		}
		w.ctrls[id] = ctrl
	}
	return w
}

// propose coordinates state as id's change to its side.
func (w *relayWorld) propose(id, state string) error {
	ctrl := w.ctrls[id]
	ctrl.Enter()
	ctrl.Overwrite()
	w.objs[id].set(state)
	return ctrl.Leave()
}

// waitAgreed waits until id's side has agreed on want.
func (w *relayWorld) waitAgreed(id, want string) error {
	deadline := time.Now().Add(10 * time.Second)
	for !bytes.Equal(w.ctrls[id].AgreedState(), []byte(want)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s agreed %q, want %q", id, w.ctrls[id].AgreedState(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func acceptAll(string, []byte, []byte) error { return nil }

func TestRelayForwardsValidState(t *testing.T) {
	w := newRelayWorld(t, acceptAll)
	if err := w.propose("left", "move-1"); err != nil {
		t.Fatalf("left propose: %v", err)
	}
	// The state crosses the agent to the right-hand group.
	if err := w.waitAgreed("right", "move-1"); err != nil {
		t.Fatal(err)
	}
	w.relay.Wait()
	if errs := w.relay.Errs(); len(errs) != 0 {
		t.Fatalf("relay errors: %v", errs)
	}
}

func TestRelayConditionalDisclosure(t *testing.T) {
	// Fig 6: an invalid move is vetoed AT THE AGENT and never reaches the
	// opponent — conditional state disclosure.
	w := newRelayWorld(t, func(_ string, _, proposed []byte) error {
		if bytes.Contains(proposed, []byte("cheat")) {
			return errors.New("move violates the rules")
		}
		return nil
	})
	err := w.propose("left", "cheat-move")
	if !errors.Is(err, b2b.ErrVetoed) {
		t.Fatalf("err = %v, want veto at agent", err)
	}
	time.Sleep(100 * time.Millisecond)
	w.relay.Wait()

	// The right-hand side never saw anything.
	if s := w.ctrls["right"].AgreedState(); !bytes.Equal(s, []byte("v0")) {
		t.Fatalf("invalid state disclosed to opponent: %q", s)
	}
	// No evidence of the cheat move exists in right's log (it was never
	// sent), while the agent holds the veto evidence.
	if logged(w.parts["right"], []byte("cheat-move")) {
		t.Fatal("cheat move leaked to opponent's log")
	}
	if !logged(w.parts["agent"], []byte("cheat-move")) {
		t.Fatal("the agent holds no evidence of the vetoed move")
	}
}

func TestRelayBidirectional(t *testing.T) {
	w := newRelayWorld(t, acceptAll)
	if err := w.propose("left", "from-left"); err != nil {
		t.Fatal(err)
	}
	if err := w.waitAgreed("right", "from-left"); err != nil {
		t.Fatal(err)
	}
	w.relay.Wait()

	if err := w.propose("right", "from-right"); err != nil {
		t.Fatal(err)
	}
	if err := w.waitAgreed("left", "from-right"); err != nil {
		t.Fatal(err)
	}
	w.relay.Wait()
	if errs := w.relay.Errs(); len(errs) != 0 {
		t.Fatalf("relay errors: %v", errs)
	}
}
