package b2b_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	b2b "b2b"
	"b2b/internal/crypto"
	"b2b/internal/transport"
)

// contract is a tiny application object for the documentation examples: a
// shared counter that only ever increases. The middleware installs agreed
// states through ApplyState on its own goroutines, so the counter is
// guarded, and the examples read and write it through count and set.
type contract struct {
	mu    sync.Mutex
	Count int `json:"count"`
}

func (c *contract) set(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Count = n
}

func (c *contract) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Count
}

func (c *contract) GetState() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Marshal(c)
}

func (c *contract) ApplyState(state []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Unmarshal(state, c)
}

func (c *contract) ValidateState(proposer string, state []byte) error {
	var next contract
	if err := json.Unmarshal(state, &next); err != nil {
		return err
	}
	if next.Count < c.count() {
		return errors.New("the counter may not decrease")
	}
	return nil
}

func (c *contract) ValidateConnect(string) error { return nil }

func (c *contract) ValidateDisconnect(string, bool) error { return nil }

// Example demonstrates the paper's programming model end to end: two
// organisations bind replicas of a shared object, coordinate a valid change,
// and see an invalid change vetoed and rolled back.
func Example() {
	// One-time trust setup (a CA and time-stamping service that both
	// organisations accept).
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		panic(err)
	}
	identA, _ := td.Issue("org-a")
	identB, _ := td.Issue("org-b")
	certs := []crypto.Certificate{identA.Certificate(), identB.Certificate()}

	net := b2b.NewMemoryNetwork(1) // transport.ListenTCP in deployments
	defer net.Close()

	bind := func(ident *crypto.Identity) (*b2b.Controller, *contract) {
		conn, err := net.Endpoint(ident.ID())
		if err != nil {
			panic(err)
		}
		p, err := b2b.NewParticipant(ident, td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			panic(err)
		}
		obj := &contract{}
		ctrl, err := p.Bind("contract", obj, nil)
		if err != nil {
			panic(err)
		}
		return ctrl, obj
	}
	ctrlA, objA := bind(identA)
	ctrlB, objB := bind(identB)
	_ = objB

	members := []string{"org-a", "org-b"}
	if err := ctrlA.Bootstrap(members); err != nil {
		panic(err)
	}
	if err := ctrlB.Bootstrap(members); err != nil {
		panic(err)
	}

	// A valid change: coordinated at Leave, validated by org-b.
	ctrlA.Enter()
	ctrlA.Overwrite()
	objA.set(5)
	if err := ctrlA.Leave(); err != nil {
		panic(err)
	}
	fmt.Println("count 5 agreed by both organisations")

	// An invalid change: vetoed by org-b, rolled back at org-a.
	ctrlA.Enter()
	ctrlA.Overwrite()
	objA.set(1)
	err = ctrlA.Leave()
	fmt.Println("decrease vetoed:", errors.Is(err, b2b.ErrVetoed))
	fmt.Println("org-a rolled back to:", objA.count())

	// Output:
	// count 5 agreed by both organisations
	// decrease vetoed: true
	// org-a rolled back to: 5
}

// exampleDeployment wires two participants over an in-memory network and
// binds a shared counter at each, for the focused examples below.
func exampleDeployment(opts ...b2b.Option) (ctrlA, ctrlB *b2b.Controller, objA, objB *contract, cleanup func()) {
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		panic(err)
	}
	identA, _ := td.Issue("org-a")
	identB, _ := td.Issue("org-b")
	certs := []crypto.Certificate{identA.Certificate(), identB.Certificate()}
	net := b2b.NewMemoryNetwork(1)

	bind := func(ident *crypto.Identity, epOpts ...b2b.EndpointOption) (*b2b.Controller, *contract) {
		conn, err := net.Endpoint(ident.ID(), epOpts...)
		if err != nil {
			panic(err)
		}
		p, err := b2b.NewParticipant(ident, td, conn, append([]b2b.Option{b2b.WithPeerCertificates(certs...)}, opts...)...)
		if err != nil {
			panic(err)
		}
		obj := &contract{}
		ctrl, err := p.Bind("contract", obj, nil)
		if err != nil {
			panic(err)
		}
		return ctrl, obj
	}
	ctrlA, objA = bind(identA)
	ctrlB, objB = bind(identB)
	for _, c := range []*b2b.Controller{ctrlA, ctrlB} {
		if err := c.Bootstrap([]string{"org-a", "org-b"}); err != nil {
			panic(err)
		}
	}
	return ctrlA, ctrlB, objA, objB, net.Close
}

// ExampleController_SetPipelineWindow demonstrates pipelined coordination:
// with a window of 3, three deferred Leaves overlap — each proposal chained
// to its predecessor's proposed state — and CoordCommit collects the
// outcomes in Leave order. The default window of 1 is the paper's
// serialized protocol.
func ExampleController_SetPipelineWindow() {
	ctrlA, ctrlB, objA, _, cleanup := exampleDeployment(b2b.WithMode(b2b.DeferredSynchronous))
	defer cleanup()

	ctrlA.SetPipelineWindow(3)
	for i := 1; i <= 3; i++ {
		ctrlA.Enter()
		ctrlA.Overwrite()
		objA.set(i * 10)
		if err := ctrlA.Leave(); err != nil { // returns immediately: run i is in flight
			panic(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i <= 3; i++ {
		if err := ctrlA.CoordCommit(ctx); err != nil { // outcome of run i, in order
			panic(err)
		}
	}
	fmt.Println("org-a agreed count:", objA.count())
	for ctrlB.AgreedSeq() != 3 { // org-b installs the chain commit by commit
		time.Sleep(time.Millisecond)
	}
	var agreed contract
	if err := json.Unmarshal(ctrlB.AgreedState(), &agreed); err != nil {
		panic(err)
	}
	fmt.Println("org-b agreed count:", agreed.Count)

	// Output:
	// org-a agreed count: 30
	// org-b agreed count: 30
}

// ExampleBatchedDelivery enables the transport's throughput path: frames
// bound for one peer coalesce into multi-frame datagrams and acks into
// cumulative acks, flushed on a time/size window. Delivery semantics are
// unchanged — eventual, once-only — so coordination behaves identically,
// just with fewer datagrams on the wire.
func ExampleBatchedDelivery() {
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		panic(err)
	}
	identA, _ := td.Issue("org-a")
	identB, _ := td.Issue("org-b")
	certs := []crypto.Certificate{identA.Certificate(), identB.Certificate()}
	net := b2b.NewMemoryNetwork(1)
	defer net.Close()

	bind := func(ident *crypto.Identity) (*b2b.Controller, *contract) {
		// 200µs window, default size cap: a protocol step's frames and the
		// acks they trigger travel together.
		conn, err := net.Endpoint(ident.ID(), b2b.BatchedDelivery(200*time.Microsecond, 0))
		if err != nil {
			panic(err)
		}
		p, err := b2b.NewParticipant(ident, td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			panic(err)
		}
		obj := &contract{}
		ctrl, err := p.Bind("contract", obj, nil)
		if err != nil {
			panic(err)
		}
		return ctrl, obj
	}
	ctrlA, objA := bind(identA)
	ctrlB, objB := bind(identB)
	for _, c := range []*b2b.Controller{ctrlA, ctrlB} {
		if err := c.Bootstrap([]string{"org-a", "org-b"}); err != nil {
			panic(err)
		}
	}

	ctrlA.Enter()
	ctrlA.Overwrite()
	objA.set(7)
	if err := ctrlA.Leave(); err != nil {
		panic(err)
	}
	for ctrlB.AgreedSeq() != 1 {
		time.Sleep(time.Millisecond)
	}
	var agreed contract
	if err := json.Unmarshal(ctrlB.AgreedState(), &agreed); err != nil {
		panic(err)
	}
	fmt.Println("count agreed over the batched transport:", agreed.Count)
	_ = objB

	// Output:
	// count agreed over the batched transport: 7
}

// watchedContract is a contract that reports the moment it validates a
// proposal, so the example below can cut a link at exactly the §4.4
// omission point: after this replica's signed response, before the commit.
type watchedContract struct {
	contract
	onValidate func()
}

func (w *watchedContract) ValidateState(proposer string, state []byte) error {
	if err := w.contract.ValidateState(proposer, state); err != nil {
		return err
	}
	if w.onValidate != nil {
		w.onValidate()
	}
	return nil
}

// ExampleController_CatchUp shows the anti-entropy path after a partition:
// org-c answers a proposal and is then cut off from the proposer, so the
// commit never reaches it — its replica is stale and no local Resync can
// help. CatchUp fetches the missing agreed state from any live peer over
// the state-transfer plane and installs it.
func ExampleController_CatchUp() {
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		panic(err)
	}
	ids := []string{"org-a", "org-b", "org-c"}
	idents := make(map[string]*crypto.Identity)
	var certs []crypto.Certificate
	for _, id := range ids {
		ident, _ := td.Issue(id)
		idents[id] = ident
		certs = append(certs, ident.Certificate())
	}
	net := b2b.NewMemoryNetwork(1)
	defer net.Close()

	ctrls := make(map[string]*b2b.Controller)
	objA := &contract{}
	objC := &watchedContract{}
	for _, id := range ids {
		conn, err := net.Endpoint(id)
		if err != nil {
			panic(err)
		}
		p, err := b2b.NewParticipant(idents[id], td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			panic(err)
		}
		var obj b2b.Object = &contract{}
		switch id {
		case "org-a":
			obj = objA
		case "org-c":
			obj = objC
		}
		ctrl, err := p.Bind("contract", obj, nil)
		if err != nil {
			panic(err)
		}
		ctrls[id] = ctrl
	}
	for _, id := range ids {
		if err := ctrls[id].Bootstrap(ids); err != nil {
			panic(err)
		}
	}

	// The instant org-c validates the proposal, its inbound link from the
	// proposer goes dark: the signed response still travels, the run
	// completes everywhere else, the commit to org-c is lost for good.
	objC.onValidate = func() {
		net.Underlying().SetLinkFaults("org-a", "org-c", transport.Faults{Partitioned: true})
	}
	panicIf := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	a := ctrls["org-a"]
	a.Enter()
	a.Overwrite()
	objA.set(5)
	panicIf(a.Leave())
	for ctrls["org-b"].AgreedSeq() != 1 {
		time.Sleep(time.Millisecond)
	}
	fmt.Println("org-c agreed seq before catch-up:", ctrls["org-c"].AgreedSeq())

	// The network path back: fetch the missing state from a live peer
	// (org-b — the link from org-a stays dead).
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	panicIf(ctrls["org-c"].CatchUp(ctx))
	fmt.Println("org-c agreed seq after catch-up:", ctrls["org-c"].AgreedSeq())

	// Output:
	// org-c agreed seq before catch-up: 0
	// org-c agreed seq after catch-up: 1
}
