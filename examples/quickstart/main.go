// Quickstart: two organisations share a simple document object and
// coordinate every change through B2BObjects (paper Fig 2/3: the
// application-level use of the object is unchanged; the middleware mediates
// state changes).
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

// note is the application object: a shared text with an author trail. It
// accepts any change that appends exactly one entry.
type note struct {
	Entries []string `json:"entries"`
}

func (n *note) GetState() ([]byte, error) { return json.Marshal(n) }

func (n *note) ApplyState(state []byte) error { return json.Unmarshal(state, n) }

func (n *note) ValidateState(proposer string, state []byte) error {
	var next note
	if err := json.Unmarshal(state, &next); err != nil {
		return err
	}
	if len(next.Entries) != len(n.Entries)+1 {
		return errors.New("exactly one entry must be appended")
	}
	for i := range n.Entries {
		if next.Entries[i] != n.Entries[i] {
			return errors.New("existing entries may not be rewritten")
		}
	}
	return nil
}

func (n *note) ValidateConnect(string) error { return nil }

func (n *note) ValidateDisconnect(string, bool) error { return nil }

func main() {
	if err := run(os.Stdout); err != nil {
		log.SetFlags(0)
		log.Fatalf("quickstart: %v", err)
	}
}

// run plays the scenario, writing its transcript to out.
func run(out io.Writer) error {
	// Every wait for a replica to settle shares one bound: a replica that
	// does not converge in time is an error, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Trust setup: a CA and time-stamping service both organisations accept.
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		return err
	}
	orgA, err := td.Issue("org-a")
	if err != nil {
		return err
	}
	orgB, err := td.Issue("org-b")
	if err != nil {
		return err
	}
	certs := []crypto.Certificate{orgA.Certificate(), orgB.Certificate()}

	// Transport: in-memory here; transport.ListenTCP for real deployments.
	net := b2b.NewMemoryNetwork(1)
	defer net.Close()

	mkParticipant := func(ident *crypto.Identity) (*b2b.Participant, error) {
		conn, err := net.Endpoint(ident.ID())
		if err != nil {
			return nil, err
		}
		return b2b.NewParticipant(ident, td, conn, b2b.WithPeerCertificates(certs...))
	}
	pa, err := mkParticipant(orgA)
	if err != nil {
		return err
	}
	defer func() { _ = pa.Close() }()
	pb, err := mkParticipant(orgB)
	if err != nil {
		return err
	}
	defer func() { _ = pb.Close() }()

	// Each organisation binds its replica of the shared object.
	noteA := &note{}
	noteB := &note{}
	ctrlA, err := pa.Bind("shared-note", noteA, nil)
	if err != nil {
		return err
	}
	ctrlB, err := pb.Bind("shared-note", noteB, nil)
	if err != nil {
		return err
	}
	members := []string{"org-a", "org-b"}
	if err := ctrlA.Bootstrap(members); err != nil {
		return err
	}
	if err := ctrlB.Bootstrap(members); err != nil {
		return err
	}

	// Org A appends an entry inside an access scope; Leave coordinates.
	ctrlA.Enter()
	ctrlA.Overwrite()
	noteA.Entries = append(noteA.Entries, "org-a: proposal drafted")
	if err := ctrlA.Leave(); err != nil {
		return fmt.Errorf("org-a's change rejected: %w", err)
	}
	fmt.Fprintln(out, "org-a appended an entry; org-b validated and installed it")

	// Org B appends in turn (after settling: its replica must reflect the
	// agreed state before acting on it).
	if err := ctrlB.Settle(ctx); err != nil {
		return err
	}
	ctrlB.Enter()
	ctrlB.Overwrite()
	noteB.Entries = append(noteB.Entries, "org-b: terms accepted")
	if err := ctrlB.Leave(); err != nil {
		return fmt.Errorf("org-b's change rejected: %w", err)
	}
	fmt.Fprintln(out, "org-b appended an entry; org-a validated and installed it")

	// A change violating the sharing rules is vetoed and rolled back.
	if err := ctrlA.Settle(ctx); err != nil {
		return err
	}
	ctrlA.Enter()
	ctrlA.Overwrite()
	noteA.Entries = []string{"history rewritten"}
	err = ctrlA.Leave()
	if !errors.Is(err, b2b.ErrVetoed) {
		return fmt.Errorf("expected a veto, got: %v", err)
	}
	fmt.Fprintf(out, "org-a's history rewrite was vetoed: %v\n", err)
	fmt.Fprintf(out, "org-a rolled back to %d agreed entries\n", len(noteA.Entries))

	// Both replicas hold identical agreed state and evidence of every step.
	fmt.Fprintln(out, "\nfinal shared note:")
	for _, e := range noteA.Entries {
		fmt.Fprintf(out, "  %s\n", e)
	}
	entries, err := pa.Log().Entries()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\norg-a holds %d non-repudiation evidence records; chain verifies: %v\n",
		len(entries), pa.Log().Verify() == nil)
	if err := ctrlB.Settle(ctx); err != nil {
		return err
	}
	if len(noteA.Entries) != 2 || len(noteB.Entries) != 2 {
		return fmt.Errorf("replicas diverged: org-a holds %d entries, org-b %d", len(noteA.Entries), len(noteB.Entries))
	}
	return nil
}
