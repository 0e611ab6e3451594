// Distributed auction (paper §2, scenario 3): autonomous, geographically
// dispersed auction houses collaborate to deliver a trusted auction service.
// Clients bid through whichever house they use; every bid is validated by
// all houses, so the outcome is the same whichever server a client acts
// through — a distributed trusted third party delivering a regulated
// market-place.
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
		log.Fatalf("auction: %v", err)
	}
}

// run plays the scenario, writing its transcript to out.
func run(out io.Writer) error {
	houses := []string{"house-london", "house-tokyo", "house-newyork"}

	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		return err
	}
	idents := make(map[string]*crypto.Identity, len(houses))
	var certs []crypto.Certificate
	for _, h := range houses {
		ident, err := td.Issue(h)
		if err != nil {
			return err
		}
		idents[h] = ident
		certs = append(certs, ident.Certificate())
	}

	net := b2b.NewMemoryNetwork(1)
	defer net.Close()

	auctions := make(map[string]*apps.Auction, len(houses))
	ctrls := make(map[string]*b2b.Controller, len(houses))
	for _, h := range houses {
		conn, err := net.Endpoint(h)
		if err != nil {
			return err
		}
		p, err := b2b.NewParticipant(idents[h], td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			return err
		}
		defer func() { _ = p.Close() }()
		a := apps.NewAuction("lot-42: original manuscript", 1000, houses)
		ctrl, err := p.Bind("auction", a, nil)
		if err != nil {
			return err
		}
		auctions[h] = a
		ctrls[h] = ctrl
	}
	for _, h := range houses {
		if err := ctrls[h].Bootstrap(houses); err != nil {
			return err
		}
	}

	// settle waits for every house to install the agreed state.
	settle := func(seq uint64) error {
		deadline := time.Now().Add(10 * time.Second)
		for h, c := range ctrls {
			for c.AgreedSeq() < seq {
				if time.Now().After(deadline) {
					return fmt.Errorf("%s's replica did not reach sequence %d within 10s", h, seq)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		return nil
	}

	// bid places a client's bid through a house and coordinates it.
	bid := func(house, client string, amount int) error {
		ctrl := ctrls[house]
		ctrl.Enter()
		ctrl.Overwrite()
		if err := auctions[house].PlaceBid(house, client, amount); err != nil {
			_ = ctrl.Leave()
			return err
		}
		if err := ctrl.Leave(); err != nil {
			return err
		}
		return settle(ctrl.AgreedSeq())
	}

	fmt.Fprintln(out, "auction open: lot-42, reserve 1000")
	bids := []struct {
		house  string
		client string
		amount int
	}{
		{house: "house-london", client: "collector-a", amount: 1200},
		{house: "house-tokyo", client: "collector-b", amount: 1500},
		{house: "house-newyork", client: "collector-c", amount: 2100},
	}
	for _, b := range bids {
		if err := bid(b.house, b.client, b.amount); err != nil {
			return fmt.Errorf("bid via %s: %w", b.house, err)
		}
		fmt.Fprintf(out, "  %s bids %d via %s — validated by all houses\n", b.client, b.amount, b.house)
	}

	// A late lower bid through any house fails everywhere the same way.
	if err := bid("house-london", "collector-d", 1800); err != nil {
		fmt.Fprintf(out, "  collector-d's 1800 via house-london refused locally: %v\n", err)
	}

	// A malicious house cannot impose an invalid bid either: force the
	// state and watch the veto.
	fmt.Fprintln(out, "\nhouse-london attempts to impose a LOWER winning bid for its client...")
	ctrl := ctrls["house-london"]
	ctrl.Enter()
	ctrl.Overwrite()
	forged := []byte(`{"item":"lot-42: original manuscript","reserve":1000,"high_bid":1100,"bidder":"collector-d","via":"house-london","bids":4}`)
	if err := auctions["house-london"].ApplyState(forged); err != nil {
		return err
	}
	err = ctrl.Leave()
	if !errors.Is(err, b2b.ErrVetoed) {
		return fmt.Errorf("expected veto of the forged bid, got: %v", err)
	}
	fmt.Fprintf(out, "REJECTED by the other houses: %v\n", err)

	// Close the auction; all replicas agree on the winner.
	fmt.Fprintln(out, "\nhouse-tokyo closes the auction:")
	ctrl = ctrls["house-tokyo"]
	ctrl.Enter()
	ctrl.Overwrite()
	auctions["house-tokyo"].Close()
	if err := ctrl.Leave(); err != nil {
		return err
	}
	if err := settle(ctrl.AgreedSeq()); err != nil {
		return err
	}

	for _, h := range houses {
		high, bidder, closed := auctions[h].Standing()
		fmt.Fprintf(out, "  %s sees: winner %s at %d (closed=%t)\n", h, bidder, high, closed)
		if bidder != "collector-c" || high != 2100 || !closed {
			return fmt.Errorf("deviation: %s sees %s at %d (closed=%t), want collector-c at 2100, closed", h, bidder, high, closed)
		}
	}
	return nil
}
