// Dispersed operational support (paper §2, scenario 2): a telecoms provider
// historically runs Operational Support Systems on the customer's behalf;
// dispersing the OSS means the customer directly controls the aspects that
// logically belong to them while the provider keeps control of the network
// side. The shared service configuration is a composite B2BObject: the
// "service" component is customer-controlled, the "network" component is
// provider-controlled, and every change is validated by both organisations.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	b2b "b2b"
	"b2b/internal/crypto"
)

// ownedConfig is a key-value configuration component writable only by its
// owner; everyone else may only read it.
type ownedConfig struct {
	Owner  string            `json:"owner"`
	Values map[string]string `json:"values"`
}

func newOwnedConfig(owner string) *ownedConfig {
	return &ownedConfig{Owner: owner, Values: make(map[string]string)}
}

func (c *ownedConfig) GetState() ([]byte, error) { return json.Marshal(c) }

func (c *ownedConfig) ApplyState(state []byte) error { return json.Unmarshal(state, c) }

func (c *ownedConfig) ValidateState(proposer string, state []byte) error {
	var next ownedConfig
	if err := json.Unmarshal(state, &next); err != nil {
		return err
	}
	if next.Owner != c.Owner {
		return errors.New("component ownership may not change")
	}
	changed := false
	for k, v := range next.Values {
		if c.Values[k] != v {
			changed = true
		}
	}
	for k := range c.Values {
		if _, ok := next.Values[k]; !ok {
			changed = true
		}
	}
	if changed && proposer != c.Owner {
		return fmt.Errorf("only %s may change this component", c.Owner)
	}
	return nil
}

func (c *ownedConfig) ValidateConnect(string) error { return nil }

func (c *ownedConfig) ValidateDisconnect(string, bool) error { return nil }

func main() {
	if err := run(os.Stdout); err != nil {
		log.SetFlags(0)
		log.Fatalf("oss: %v", err)
	}
}

// run plays the scenario, writing its transcript to out.
func run(out io.Writer) error {
	// Every wait for a replica to settle shares one bound: a replica that
	// does not converge in time is an error, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		return err
	}
	provider, err := td.Issue("provider")
	if err != nil {
		return err
	}
	customer, err := td.Issue("customer")
	if err != nil {
		return err
	}
	certs := []crypto.Certificate{provider.Certificate(), customer.Certificate()}
	net := b2b.NewMemoryNetwork(1)
	defer net.Close()

	// Each organisation holds a replica of the composite service config:
	// the "service" component belongs to the customer, "network" to the
	// provider (the dispersal of OSS control).
	mkComposite := func() (*b2b.Composite, *ownedConfig, *ownedConfig, error) {
		comp := b2b.NewComposite()
		service := newOwnedConfig("customer")
		network := newOwnedConfig("provider")
		if err := comp.Add("service", service); err != nil {
			return nil, nil, nil, err
		}
		if err := comp.Add("network", network); err != nil {
			return nil, nil, nil, err
		}
		return comp, service, network, nil
	}

	type org struct {
		part    *b2b.Participant
		ctrl    *b2b.Controller
		service *ownedConfig
		network *ownedConfig
	}
	orgs := make(map[string]*org)
	for _, ident := range []*crypto.Identity{provider, customer} {
		conn, err := net.Endpoint(ident.ID())
		if err != nil {
			return err
		}
		p, err := b2b.NewParticipant(ident, td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			return err
		}
		defer func() { _ = p.Close() }()
		comp, service, network, err := mkComposite()
		if err != nil {
			return err
		}
		ctrl, err := p.Bind("service-config", comp, nil)
		if err != nil {
			return err
		}
		orgs[ident.ID()] = &org{part: p, ctrl: ctrl, service: service, network: network}
	}
	members := []string{"provider", "customer"}
	for _, id := range members {
		if err := orgs[id].ctrl.Bootstrap(members); err != nil {
			return err
		}
	}

	change := func(id string, mutate func(*org)) error {
		o := orgs[id]
		if err := o.ctrl.Settle(ctx); err != nil {
			return err
		}
		o.ctrl.Enter()
		o.ctrl.Overwrite()
		mutate(o)
		return o.ctrl.Leave()
	}

	fmt.Fprintln(out, "customer tailors its own service features (dispersed OSS control):")
	if err := change("customer", func(o *org) {
		o.service.Values["voicemail"] = "enabled"
		o.service.Values["call-forwarding"] = "office-hours"
	}); err != nil {
		return err
	}
	fmt.Fprintln(out, "  accepted; provider's replica reflects the change")

	fmt.Fprintln(out, "\nprovider reconfigures the network side:")
	if err := change("provider", func(o *org) {
		o.network.Values["bearer"] = "fibre-100M"
		o.network.Values["sla"] = "99.95"
	}); err != nil {
		return err
	}
	fmt.Fprintln(out, "  accepted; customer's replica reflects the change")

	fmt.Fprintln(out, "\nprovider attempts to flip a customer-owned feature:")
	err = change("provider", func(o *org) {
		o.service.Values["voicemail"] = "disabled"
	})
	if !errors.Is(err, b2b.ErrVetoed) {
		return fmt.Errorf("expected veto, got: %v", err)
	}
	fmt.Fprintf(out, "  REJECTED: %v\n", err)

	fmt.Fprintln(out, "\ncustomer attempts to change the provider's SLA:")
	err = change("customer", func(o *org) {
		o.network.Values["sla"] = "100"
	})
	if !errors.Is(err, b2b.ErrVetoed) {
		return fmt.Errorf("expected veto, got: %v", err)
	}
	fmt.Fprintf(out, "  REJECTED: %v\n", err)

	fmt.Fprintln(out, "\nfinal shared configuration (both replicas identical):")
	for _, id := range members {
		o := orgs[id]
		if err := o.ctrl.Settle(ctx); err != nil {
			return err
		}
		fmt.Fprintf(out, "  %s sees service=%v network=%v\n", id, o.service.Values, o.network.Values)
	}
	return nil
}
