package b2b_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	b2b "b2b"
	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/transport"
)

// document is a minimal application object: a JSON map with a revision
// counter, accepting any change that increments the revision by one. It
// demonstrates the "augment an existing object" pattern of §5.
type document struct {
	mu   sync.Mutex
	Rev  int               `json:"rev"`
	Data map[string]string `json:"data"`

	vetoNext   string        // when set, veto proposals with this diagnostic
	onValidate func(rev int) // test hook, runs inside ValidateState
}

func newDocument() *document {
	return &document{Data: make(map[string]string)}
}

func (d *document) Set(key, value string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Data[key] = value
	d.Rev++
}

func (d *document) Get(key string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Data[key]
}

func (d *document) GetState() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return json.Marshal(struct {
		Rev  int               `json:"rev"`
		Data map[string]string `json:"data"`
	}{d.Rev, d.Data})
}

func (d *document) ApplyState(state []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var s struct {
		Rev  int               `json:"rev"`
		Data map[string]string `json:"data"`
	}
	if err := json.Unmarshal(state, &s); err != nil {
		return err
	}
	d.Rev = s.Rev
	d.Data = s.Data
	if d.Data == nil {
		d.Data = make(map[string]string)
	}
	return nil
}

func (d *document) ValidateState(_ string, state []byte) error {
	d.mu.Lock()
	veto := d.vetoNext
	cur := d.Rev
	hook := d.onValidate
	d.mu.Unlock()
	if veto != "" {
		return errors.New(veto)
	}
	var s struct {
		Rev int `json:"rev"`
	}
	if err := json.Unmarshal(state, &s); err != nil {
		return fmt.Errorf("unparseable state: %w", err)
	}
	if s.Rev <= cur {
		return fmt.Errorf("revision must advance (have %d, proposed %d)", cur, s.Rev)
	}
	if hook != nil {
		hook(s.Rev)
	}
	return nil
}

func (d *document) ValidateConnect(subject string) error { return nil }

func (d *document) ValidateDisconnect(string, bool) error { return nil }

// deployment is a two-or-more party public-API fixture.
type deployment struct {
	td    *b2b.TrustDomain
	net   *b2b.MemoryNetwork
	parts map[string]*b2b.Participant
	ctrls map[string]*b2b.Controller
	docs  map[string]*document
}

func newDeployment(t *testing.T, ids []string, opts ...b2b.Option) *deployment {
	t.Helper()
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{
		td:    td,
		net:   b2b.NewMemoryNetwork(5),
		parts: make(map[string]*b2b.Participant),
		ctrls: make(map[string]*b2b.Controller),
		docs:  make(map[string]*document),
	}
	t.Cleanup(d.net.Close)

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
	for _, id := range ids {
		conn, err := d.net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		allOpts := append([]b2b.Option{
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(10 * time.Second),
		}, opts...)
		part, err := b2b.NewParticipant(idents[id], td, conn, allOpts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = part.Close() })
		d.parts[id] = part

		doc := newDocument()
		ctrl, err := part.Bind("document", doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.docs[id] = doc
		d.ctrls[id] = ctrl
	}
	for _, id := range ids {
		if err := d.ctrls[id].Bootstrap(ids); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func (d *deployment) waitDoc(t *testing.T, id, key, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if d.docs[id].Get(key) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: doc[%q] = %q, want %q", id, key, d.docs[id].Get(key), want)
}

func TestPublicAPISynchronousCoordination(t *testing.T) {
	d := newDeployment(t, []string{"customer", "supplier"})

	ctrl := d.ctrls["customer"]
	ctrl.Enter()
	ctrl.Overwrite()
	d.docs["customer"].Set("item", "2 x widget1")
	if err := ctrl.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}

	// The supplier's replica received the validated state.
	d.waitDoc(t, "supplier", "item", "2 x widget1", 5*time.Second)
	if got := d.ctrls["supplier"].AgreedSeq(); got != 1 {
		t.Fatalf("supplier agreed seq = %d", got)
	}
}

func TestPublicAPIVetoRollsBackObject(t *testing.T) {
	d := newDeployment(t, []string{"customer", "supplier"})
	d.docs["supplier"].vetoNext = "supplier policy forbids this"

	ctrl := d.ctrls["customer"]
	ctrl.Enter()
	ctrl.Overwrite()
	d.docs["customer"].Set("item", "999 x widget1")
	err := ctrl.Leave()
	if !errors.Is(err, b2b.ErrVetoed) {
		t.Fatalf("err = %v, want ErrVetoed", err)
	}

	// The customer's application object was rolled back to the agreed state.
	if got := d.docs["customer"].Get("item"); got != "" {
		t.Fatalf("customer doc after rollback: item=%q", got)
	}
	if rev := d.docs["customer"].Rev; rev != 0 {
		t.Fatalf("customer rev after rollback = %d", rev)
	}
}

func TestPublicAPINestedScopesCoordinateOnce(t *testing.T) {
	d := newDeployment(t, []string{"a", "b"})
	ctrl := d.ctrls["a"]

	// Nested enter/leave roll up into a single coordination event (§5).
	ctrl.Enter()
	ctrl.Overwrite()
	d.docs["a"].Set("x", "1")
	ctrl.Enter()
	ctrl.Overwrite()
	d.docs["a"].Set("y", "2")
	if err := ctrl.Leave(); err != nil {
		t.Fatalf("inner Leave: %v", err)
	}
	// Still inside the outer scope: no coordination yet, b has nothing.
	if got := d.docs["b"].Get("x"); got != "" {
		t.Fatal("coordination happened before outermost Leave")
	}
	if err := ctrl.Leave(); err != nil {
		t.Fatalf("outer Leave: %v", err)
	}
	d.waitDoc(t, "b", "x", "1", 5*time.Second)
	d.waitDoc(t, "b", "y", "2", 5*time.Second)
	// Exactly one coordination: revision advanced 2 (two Sets) in one run.
	if got := d.ctrls["b"].AgreedSeq(); got != 1 {
		t.Fatalf("agreed seq = %d, want 1 (single run)", got)
	}
}

func TestPublicAPIExamineDoesNotCoordinate(t *testing.T) {
	d := newDeployment(t, []string{"a", "b"})
	ctrl := d.ctrls["a"]
	ctrl.Enter()
	ctrl.Examine()
	_ = d.docs["a"].Get("x")
	if err := ctrl.Leave(); err != nil {
		t.Fatalf("Leave after examine: %v", err)
	}
	if got := d.ctrls["a"].AgreedSeq(); got != 0 {
		t.Fatal("examine scope triggered coordination")
	}
}

func TestPublicAPILeaveWithoutEnter(t *testing.T) {
	d := newDeployment(t, []string{"a", "b"})
	if err := d.ctrls["a"].Leave(); !errors.Is(err, b2b.ErrNoScope) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicAPIDeferredSynchronous(t *testing.T) {
	d := newDeployment(t, []string{"a", "b"}, b2b.WithMode(b2b.DeferredSynchronous))
	ctrl := d.ctrls["a"]

	ctrl.Enter()
	ctrl.Overwrite()
	d.docs["a"].Set("k", "v")
	if err := ctrl.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	// Completion is collected explicitly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ctrl.CoordCommit(ctx); err != nil {
		t.Fatalf("CoordCommit: %v", err)
	}
	d.waitDoc(t, "b", "k", "v", 5*time.Second)

	// A second CoordCommit has nothing to collect.
	if err := ctrl.CoordCommit(ctx); !errors.Is(err, b2b.ErrNoPending) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicAPIAsynchronousCallback(t *testing.T) {
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	net := b2b.NewMemoryNetwork(5)
	t.Cleanup(net.Close)

	ids := []string{"a", "b"}
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

	events := make(chan b2b.Event, 16)
	ctrls := make(map[string]*b2b.Controller)
	docs := make(map[string]*document)
	for _, id := range ids {
		conn, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		part, err := b2b.NewParticipant(idents[id], td, conn,
			b2b.WithClock(clk),
			b2b.WithMode(b2b.Asynchronous),
			b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = part.Close() })
		doc := newDocument()
		var cb b2b.Callback
		if id == "a" {
			cb = func(ev b2b.Event) { events <- ev }
		}
		ctrl, err := part.Bind("document", doc, cb)
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

	ctrl := ctrls["a"]
	ctrl.Enter()
	ctrl.Overwrite()
	docs["a"].Set("async", "yes")
	if err := ctrl.Leave(); err != nil {
		t.Fatalf("Leave returned error in async mode: %v", err)
	}

	// Completion arrives as a callback event (an EventInstalled for the
	// proposer's own replica may precede it).
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Type != b2b.EventCoordComplete {
				continue
			}
			if !ev.Valid || ev.Err != nil {
				t.Fatalf("completion event = %+v", ev)
			}
			return
		case <-deadline:
			t.Fatal("no completion event")
		}
	}
}

func TestPublicAPIMembership(t *testing.T) {
	// Founding pair plus a late joiner via Connect; then voluntary leave.
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	net := b2b.NewMemoryNetwork(5)
	t.Cleanup(net.Close)

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
	ctrls := make(map[string]*b2b.Controller)
	docs := make(map[string]*document)
	for _, id := range ids {
		conn, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		part, err := b2b.NewParticipant(idents[id], td, conn,
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = part.Close() })
		doc := newDocument()
		ctrl, err := part.Bind("document", doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctrls[id] = ctrl
		docs[id] = doc
	}
	founding := []string{"alice", "bob"}
	for _, id := range founding {
		if err := ctrls[id].Bootstrap(founding); err != nil {
			t.Fatal(err)
		}
	}

	// Advance state, then carol connects and receives it.
	ctrls["alice"].Enter()
	ctrls["alice"].Overwrite()
	docs["alice"].Set("order", "widget1 x 2")
	if err := ctrls["alice"].Leave(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := ctrls["carol"].Connect(ctx, "alice"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if got := docs["carol"].Get("order"); got != "widget1 x 2" {
		t.Fatalf("carol's state after connect: %q", got)
	}
	if got := len(ctrls["carol"].Members()); got != 3 {
		t.Fatalf("members = %d", got)
	}

	// Carol proposes; all three validate.
	ctrls["carol"].Enter()
	ctrls["carol"].Overwrite()
	docs["carol"].Set("order", "widget1 x 2 @ 10")
	if err := ctrls["carol"].Leave(); err != nil {
		t.Fatalf("carol's Leave: %v", err)
	}

	// Bob leaves voluntarily.
	if err := ctrls["bob"].Disconnect(ctx); err != nil {
		t.Fatalf("Disconnect: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(ctrls["alice"].Members()) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(ctrls["alice"].Members()); got != 2 {
		t.Fatalf("members after leave = %d", got)
	}
}

func TestPublicAPISyncCoord(t *testing.T) {
	d := newDeployment(t, []string{"a", "b"})
	d.docs["a"].Set("direct", "coordination")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.ctrls["a"].SyncCoord(ctx); err != nil {
		t.Fatalf("SyncCoord: %v", err)
	}
	d.waitDoc(t, "b", "direct", "coordination", 5*time.Second)
}

func TestPublicAPIEvidenceAvailable(t *testing.T) {
	d := newDeployment(t, []string{"a", "b"})
	ctrl := d.ctrls["a"]
	ctrl.Enter()
	ctrl.Overwrite()
	d.docs["a"].Set("k", "v")
	if err := ctrl.Leave(); err != nil {
		t.Fatal(err)
	}
	entries, err := d.parts["a"].Log().Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("evidence log has %d entries", len(entries))
	}
	if err := d.parts["a"].Log().Verify(); err != nil {
		t.Fatalf("evidence chain: %v", err)
	}
}

// failingApplyDoc wraps document with an ApplyState that can be made to
// fail, simulating an application object that cannot install agreed state.
type failingApplyDoc struct {
	*document
	mu   sync.Mutex
	fail bool
}

func (f *failingApplyDoc) setFail(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = v
}

func (f *failingApplyDoc) ApplyState(state []byte) error {
	f.mu.Lock()
	failing := f.fail
	f.mu.Unlock()
	if failing {
		return errors.New("disk full")
	}
	return f.document.ApplyState(state)
}

// TestApplyStateFailureSurfaces: a replica whose ApplyState fails must not
// be silently accepted — the failure reaches the callback, ReplicaErr
// reports ErrDivergent, new proposals are refused, and Restore clears the
// condition once installation succeeds again.
func TestApplyStateFailureSurfaces(t *testing.T) {
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	net := b2b.NewMemoryNetwork(17)
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

	docs := map[string]*failingApplyDoc{}
	ctrls := map[string]*b2b.Controller{}
	events := make(chan b2b.Event, 64)
	for _, id := range ids {
		conn, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		part, err := b2b.NewParticipant(idents[id], td, conn,
			b2b.WithClock(clk), b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = part.Close() })
		doc := &failingApplyDoc{document: newDocument()}
		var cb b2b.Callback
		if id == "bob" {
			cb = func(ev b2b.Event) { events <- ev }
		}
		ctrl, err := part.Bind("document", doc, cb)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = doc
		ctrls[id] = ctrl
	}
	for _, id := range ids {
		if err := ctrls[id].Bootstrap(ids); err != nil {
			t.Fatal(err)
		}
	}

	// Bob's replica starts failing installs; alice coordinates a change.
	docs["bob"].setFail(true)
	ctrls["alice"].Enter()
	ctrls["alice"].Overwrite()
	docs["alice"].Set("k", "v1")
	if err := ctrls["alice"].Leave(); err != nil {
		t.Fatalf("alice leave: %v", err)
	}

	// The failure must surface through bob's callback...
	deadline := time.After(10 * time.Second)
	for {
		var ev b2b.Event
		select {
		case ev = <-events:
		case <-deadline:
			t.Fatal("no install event with error reached bob's callback")
		}
		if ev.Type == b2b.EventInstalled && ev.Err != nil {
			if !errors.Is(ev.Err, b2b.ErrDivergent) {
				t.Fatalf("event error = %v, want ErrDivergent", ev.Err)
			}
			break
		}
	}
	// ...and through the controller's error path.
	if err := ctrls["bob"].ReplicaErr(); !errors.Is(err, b2b.ErrDivergent) {
		t.Fatalf("ReplicaErr = %v, want ErrDivergent", err)
	}
	ctrls["bob"].Enter()
	ctrls["bob"].Overwrite()
	if err := ctrls["bob"].Leave(); !errors.Is(err, b2b.ErrDivergent) {
		t.Fatalf("Leave on divergent replica = %v, want ErrDivergent", err)
	}
	if err := ctrls["bob"].SyncCoord(context.Background()); !errors.Is(err, b2b.ErrDivergent) {
		t.Fatalf("SyncCoord on divergent replica = %v, want ErrDivergent", err)
	}

	// Recovery: installs succeed again; Resync re-installs the agreed state
	// and clears the divergence.
	docs["bob"].setFail(false)
	if err := ctrls["bob"].Resync(); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if err := ctrls["bob"].ReplicaErr(); err != nil {
		t.Fatalf("ReplicaErr after resync = %v, want nil", err)
	}
	if got := docs["bob"].Get("k"); got != "v1" {
		t.Fatalf("bob's replica after resync = %q, want v1", got)
	}
}

// TestResyncNetworkCatchUp: Resync only re-installs the LOCAL agreed copy,
// so it cannot help a party whose engine itself missed a commit — bob
// answers alice's proposal and then the commit to him is lost forever (his
// inbound link from alice partitions the instant he validates). Resync
// leaves him stale; CatchUp takes the network path, fetches the missing
// state from another live member, and converges engine and object both.
func TestResyncNetworkCatchUp(t *testing.T) {
	d := newDeployment(t, []string{"alice", "bob", "carol"})

	// The instant bob validates revision 1, his inbound link from alice
	// goes dark: his signed response still reaches alice, the run completes
	// everywhere else, and the commit to bob is dropped for good.
	net := d.net.Underlying()
	d.docs["bob"].onValidate = func(rev int) {
		if rev == 1 {
			net.SetLinkFaults("alice", "bob", transport.Faults{Partitioned: true})
		}
	}

	ctrl := d.ctrls["alice"]
	ctrl.Enter()
	ctrl.Overwrite()
	d.docs["alice"].Set("item", "42 x widget9")
	if err := ctrl.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	d.waitDoc(t, "carol", "item", "42 x widget9", 5*time.Second)

	// Bob is genuinely stale: engine and object both at revision 0.
	if got := d.ctrls["bob"].AgreedSeq(); got != 0 {
		t.Fatalf("bob agreed seq = %d, want 0 (stale)", got)
	}
	// The local path cannot fix that — Resync re-installs the stale copy.
	if err := d.ctrls["bob"].Resync(); err != nil {
		t.Fatalf("Resync: %v", err)
	}
	if got := d.docs["bob"].Get("item"); got != "" {
		t.Fatalf("local resync should not conjure state, item = %q", got)
	}
	if got := d.ctrls["bob"].AgreedSeq(); got != 0 {
		t.Fatalf("bob agreed seq after Resync = %d, want 0", got)
	}

	// The network path: CatchUp fetches from a live peer (carol — the
	// alice→bob link stays dead) and installs engine + object.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := d.ctrls["bob"].CatchUp(ctx); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
	if got := d.ctrls["bob"].AgreedSeq(); got != 1 {
		t.Fatalf("bob agreed seq after CatchUp = %d, want 1", got)
	}
	if got := d.docs["bob"].Get("item"); got != "42 x widget9" {
		t.Fatalf("bob doc after CatchUp: item = %q", got)
	}
	// The transfer plane really served the session.
	st, err := d.parts["carol"].TransferStats("document")
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsServed == 0 {
		t.Fatal("carol served no transfer session")
	}
}
