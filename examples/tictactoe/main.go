// Tic-Tac-Toe (paper §5.1, Fig 5): two players' servers share the game
// object and coordinate every move; the object encodes the rules and each
// server validates the opponent's moves. The scripted game reproduces the
// Fig 5 sequence, including Cross's attempt to cheat by pre-empting
// Nought's move — the invalid state change is vetoed, is not reflected at
// Nought's server, and Nought holds evidence of the attempt.
package main

import (
	"context"
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
		log.Fatalf("tictactoe: %v", err)
	}
}

// run plays the Fig 5 script, writing the transcript to out. The error
// reports any deviation from the paper's expected behaviour.
func run(out io.Writer) error {
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		return err
	}
	cross, err := td.Issue("cross")
	if err != nil {
		return err
	}
	nought, err := td.Issue("nought")
	if err != nil {
		return err
	}
	certs := []crypto.Certificate{cross.Certificate(), nought.Certificate()}

	net := b2b.NewMemoryNetwork(1)
	defer net.Close()

	players := map[string]byte{"cross": apps.X, "nought": apps.O}
	parts := map[string]*b2b.Participant{}
	games := map[string]*apps.TicTacToe{}
	ctrls := map[string]*b2b.Controller{}
	for _, ident := range []*crypto.Identity{cross, nought} {
		conn, err := net.Endpoint(ident.ID())
		if err != nil {
			return err
		}
		p, err := b2b.NewParticipant(ident, td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			return err
		}
		defer func() { _ = p.Close() }()
		g := apps.NewTicTacToe(players)
		ctrl, err := p.Bind("game", g, nil)
		if err != nil {
			return err
		}
		parts[ident.ID()] = p
		games[ident.ID()] = g
		ctrls[ident.ID()] = ctrl
	}
	members := []string{"cross", "nought"}
	for _, id := range members {
		if err := ctrls[id].Bootstrap(members); err != nil {
			return err
		}
	}

	// settle waits until a player's replica reflects every decided move.
	settle := func(player string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := ctrls[player].Settle(ctx); err != nil {
			return fmt.Errorf("%s did not settle: %w", player, err)
		}
		return nil
	}
	opponent := map[string]string{"cross": "nought", "nought": "cross"}

	// move plays one coordinated move ("Save" in the paper's client). The
	// player first settles so its board reflects the opponent's last move.
	move := func(player string, pos int, mark byte) error {
		g, ctrl := games[player], ctrls[player]
		if err := settle(player); err != nil {
			return err
		}
		ctrl.Enter()
		ctrl.Overwrite()
		if err := g.Move(pos, mark); err != nil {
			// Local rules already refuse; close the scope without a write.
			_ = ctrl.Leave()
			return err
		}
		return ctrl.Leave()
	}

	// The Fig 5 sequence.
	steps := []struct {
		desc   string
		player string
		pos    int
		mark   byte
	}{
		{desc: "Cross claims middle row, centre square", player: "cross", pos: 4, mark: apps.X},
		{desc: "Nought claims top row, left square", player: "nought", pos: 0, mark: apps.O},
		{desc: "Cross claims middle row, right square", player: "cross", pos: 5, mark: apps.X},
	}
	for _, s := range steps {
		fmt.Fprintf(out, "%s:\n", s.desc)
		if err := move(s.player, s.pos, s.mark); err != nil {
			return fmt.Errorf("legal move rejected: %w", err)
		}
		if err := settle(opponent[s.player]); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n\n", games[opponent[s.player]].Board())
	}

	// The cheat: Cross attempts to mark bottom row, centre square with a
	// zero, pre-empting Nought's next move.
	fmt.Fprintln(out, "Cross attempts to mark bottom row, centre square with a zero...")
	gX, ctrlX := games["cross"], ctrls["cross"]
	if err := settle("cross"); err != nil {
		return err
	}
	ctrlX.Enter()
	ctrlX.Overwrite()
	gX.ForceMove(7, apps.O)
	err = ctrlX.Leave()
	if !errors.Is(err, b2b.ErrVetoed) {
		return fmt.Errorf("expected the cheat to be vetoed, got: %v", err)
	}
	fmt.Fprintf(out, "REJECTED: %v\n\n", err)
	if err := settle("nought"); err != nil {
		return err
	}

	fmt.Fprintln(out, "Nought's board is unaffected; the agreed game state is unchanged:")
	fmt.Fprintln(out, games["nought"].Board())
	fmt.Fprintln(out, "\nCross's replica was rolled back to the agreed state:")
	fmt.Fprintln(out, gX.Board())

	// Nought holds non-repudiable evidence of the attempt. Cross forfeits.
	fmt.Fprintln(out, "\nNought holds evidence of the attempt to cheat; Cross forfeits the game.")

	// Deviation checks.
	if games["nought"].Turn() != "O" {
		return errors.New("deviation: agreed game not at Nought's turn")
	}
	entries, err := parts["nought"].Log().Entries()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return errors.New("deviation: nought holds no evidence")
	}
	return nil
}
