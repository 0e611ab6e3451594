// Order processing (paper §5.2, Fig 7): a customer and a supplier share the
// state of an order under asymmetric validation rules — the customer may add
// items and quantities but not price them; the supplier may price items but
// not amend the order in any other way. The script reproduces the Fig 7
// sequence including the supplier's rejected attempt to change a quantity
// while pricing, then runs the four-party variant (approver + dispatcher).
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	b2b "b2b"
	"b2b/internal/apps"
	"b2b/internal/crypto"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.SetFlags(0)
		log.Fatalf("orderprocessing: %v", err)
	}
}

// run plays the Fig 7 script and then the four-party variant, writing the
// transcript to out. The error reports any deviation from the paper's
// expected behaviour.
func run(out io.Writer) error {
	if err := twoParty(out); err != nil {
		return err
	}
	if err := fourParty(out); err != nil {
		return fmt.Errorf("four-party: %w", err)
	}
	return nil
}

// deployment wires n parties sharing one order object.
type deployment struct {
	net    *b2b.MemoryNetwork
	parts  []*b2b.Participant
	orders map[string]*apps.Order
	ctrls  map[string]*b2b.Controller
}

func deploy(roles map[string]apps.Role, members []string) (*deployment, error) {
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		return nil, err
	}
	idents := make(map[string]*crypto.Identity, len(members))
	var certs []crypto.Certificate
	for _, id := range members {
		ident, err := td.Issue(id)
		if err != nil {
			return nil, err
		}
		idents[id] = ident
		certs = append(certs, ident.Certificate())
	}
	d := &deployment{
		net:    b2b.NewMemoryNetwork(1),
		orders: make(map[string]*apps.Order),
		ctrls:  make(map[string]*b2b.Controller),
	}
	for _, id := range members {
		conn, err := d.net.Endpoint(id)
		if err != nil {
			return nil, err
		}
		p, err := b2b.NewParticipant(idents[id], td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			return nil, err
		}
		d.parts = append(d.parts, p)
		order := apps.NewOrder(roles)
		ctrl, err := p.Bind("order", order, nil)
		if err != nil {
			return nil, err
		}
		d.orders[id] = order
		d.ctrls[id] = ctrl
	}
	for _, id := range members {
		if err := d.ctrls[id].Bootstrap(members); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) close() {
	for _, p := range d.parts {
		_ = p.Close()
	}
	d.net.Close()
}

// change runs one coordinated modification of the order by party id, then
// waits for every replica to install the agreed state.
func (d *deployment) change(id string, mutate func(*apps.Order)) error {
	ctrl := d.ctrls[id]
	ctrl.Enter()
	ctrl.Overwrite()
	mutate(d.orders[id])
	if err := ctrl.Leave(); err != nil {
		return err
	}
	return d.settle(ctrl.AgreedSeq())
}

// settle waits until every replica's agreed sequence reaches seq.
func (d *deployment) settle(seq uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for id, c := range d.ctrls {
		for c.AgreedSeq() < seq {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s's replica did not reach sequence %d within 10s", id, seq)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func twoParty(out io.Writer) error {
	fmt.Fprintln(out, "=== Two-party order processing (Fig 7) ===")
	roles := map[string]apps.Role{"customer": apps.Customer, "supplier": apps.Supplier}
	d, err := deploy(roles, []string{"customer", "supplier"})
	if err != nil {
		return err
	}
	defer d.close()

	fmt.Fprintln(out, "\ncustomer orders 2 widget1s:")
	if err := d.change("customer", func(o *apps.Order) { o.AddItem("widget1", 2) }); err != nil {
		return err
	}
	fmt.Fprint(out, d.orders["supplier"].Render())

	fmt.Fprintln(out, "\nsupplier prices widget1 at 10 per unit:")
	if err := d.change("supplier", func(o *apps.Order) { _ = o.SetPrice("widget1", 10) }); err != nil {
		return err
	}
	fmt.Fprint(out, d.orders["customer"].Render())

	fmt.Fprintln(out, "\ncustomer amends the order for 10 widget2s:")
	if err := d.change("customer", func(o *apps.Order) { o.AddItem("widget2", 10) }); err != nil {
		return err
	}
	fmt.Fprint(out, d.orders["supplier"].Render())

	fmt.Fprintln(out, "\nsupplier attempts to price widget2 AND change its quantity:")
	err = d.change("supplier", func(o *apps.Order) {
		_ = o.SetPrice("widget2", 7)
		_ = o.SetQuantity("widget2", 100)
	})
	if !errors.Is(err, b2b.ErrVetoed) {
		return fmt.Errorf("expected veto, got: %v", err)
	}
	fmt.Fprintf(out, "REJECTED: %v\n", err)
	fmt.Fprintln(out, "\ncustomer's copy is unaffected:")
	fmt.Fprint(out, d.orders["customer"].Render())

	fmt.Fprintln(out, "\nsupplier retries with only the price change:")
	if err := d.change("supplier", func(o *apps.Order) { _ = o.SetPrice("widget2", 7) }); err != nil {
		return err
	}
	fmt.Fprint(out, d.orders["customer"].Render())

	// Deviation check: the vetoed quantity change never reached the customer.
	for _, l := range d.orders["customer"].Lines() {
		if l.Item == "widget2" {
			if l.Quantity != 10 || l.Price != 7 {
				return fmt.Errorf("deviation: widget2 is %d at %d, want 10 at 7", l.Quantity, l.Price)
			}
			return nil
		}
	}
	return errors.New("deviation: the customer's order has no widget2")
}

func fourParty(out io.Writer) error {
	fmt.Fprintln(out, "\n=== Four-party variant (approver sanctions, dispatcher commits) ===")
	roles := map[string]apps.Role{
		"customer":   apps.Customer,
		"supplier":   apps.Supplier,
		"approver":   apps.Approver,
		"dispatcher": apps.Dispatcher,
	}
	members := []string{"customer", "supplier", "approver", "dispatcher"}
	d, err := deploy(roles, members)
	if err != nil {
		return err
	}
	defer d.close()

	steps := []struct {
		who    string
		what   string
		mutate func(*apps.Order)
	}{
		{who: "customer", what: "orders 5 widget3s", mutate: func(o *apps.Order) { o.AddItem("widget3", 5) }},
		{who: "supplier", what: "prices widget3 at 12", mutate: func(o *apps.Order) { _ = o.SetPrice("widget3", 12) }},
		{who: "approver", what: "approves the order", mutate: func(o *apps.Order) { o.Approve() }},
		{who: "dispatcher", what: "commits to 48h delivery", mutate: func(o *apps.Order) { o.SetDelivery("48h courier") }},
	}
	for _, s := range steps {
		fmt.Fprintf(out, "\n%s %s:\n", s.who, s.what)
		if err := d.change(s.who, s.mutate); err != nil {
			return fmt.Errorf("%s: %w", s.who, err)
		}
	}
	// Everyone converges on the same validated order.
	fmt.Fprintln(out)
	fmt.Fprint(out, d.orders["customer"].Render())

	fmt.Fprintln(out, "\ndispatcher attempts to add an item (outside its role):")
	err = d.change("dispatcher", func(o *apps.Order) { o.AddItem("widget4", 1) })
	if !errors.Is(err, b2b.ErrVetoed) {
		return fmt.Errorf("expected veto, got: %v", err)
	}
	fmt.Fprintf(out, "REJECTED: %v\n", err)
	return nil
}
