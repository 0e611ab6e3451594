// Tic-Tac-Toe through a trusted third party (paper §5.1, Fig 6): each
// player coordinates only with the TTP, which validates every move before
// it is disclosed to the opponent — conditional state disclosure through
// trusted agents (Fig 1b). An invalid move is vetoed at the TTP and never
// reaches the other player.
package main

import (
	"bytes"
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

// agent is the trusted third party's identity.
const agent = "ttp"

// player is a player's replica of the game on its side. The only other
// member of a side is the agent, which has already attributed each move to
// a player and judged it, so the player checks that a state the agent
// proposes is a legal move by whichever player's turn it is.
type player struct{ *apps.TicTacToe }

func (p player) ValidateState(_ string, state []byte) error {
	return p.ValidateStateByTurn(state)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.SetFlags(0)
		log.Fatalf("tictactoe-ttp: %v", err)
	}
}

// run plays the Fig 6 script, writing the transcript to out. The error
// reports any deviation from the paper's expected behaviour.
func run(out io.Writer) error {
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		return err
	}
	idents := map[string]*crypto.Identity{}
	var certs []crypto.Certificate
	for _, id := range []string{"cross", agent, "nought"} {
		ident, err := td.Issue(id)
		if err != nil {
			return err
		}
		idents[id] = ident
		certs = append(certs, ident.Certificate())
	}

	net := b2b.NewMemoryNetwork(1)
	defer net.Close()
	parts := map[string]*b2b.Participant{}
	for id, ident := range idents {
		conn, err := net.Endpoint(id)
		if err != nil {
			return err
		}
		p, err := b2b.NewParticipant(ident, td, conn, b2b.WithPeerCertificates(certs...))
		if err != nil {
			return err
		}
		defer func() { _ = p.Close() }()
		parts[id] = p
	}

	// The TTP judges each move against its own copy of the rules BEFORE the
	// opponent sees it, then forwards the agreed state across. Two separate
	// 2-party groups: side-x {cross, ttp} and side-o {ttp, nought}.
	players := map[string]byte{"cross": apps.X, "nought": apps.O}
	relay := newRelay(func(proposer string, current, proposed []byte) error {
		ref := apps.NewTicTacToe(players)
		if err := ref.ApplyState(current); err != nil {
			return err
		}
		return ref.ValidateState(proposer, proposed)
	})
	defer relay.Wait() // before the participants close
	initial, err := apps.NewTicTacToe(players).GetState()
	if err != nil {
		return err
	}
	objects := [2]string{"side-x", "side-o"}
	sides := [2][]string{{"cross", agent}, {agent, "nought"}}
	if err := relay.bind(parts[agent], objects, sides, initial); err != nil {
		return err
	}
	games := map[string]*apps.TicTacToe{}
	ctrls := map[string]*b2b.Controller{}
	for i, id := range []string{"cross", "nought"} {
		games[id] = apps.NewTicTacToe(players)
		ctrl, err := parts[id].Bind(objects[i], player{games[id]}, nil)
		if err != nil {
			return err
		}
		if err := ctrl.Bootstrap(sides[i]); err != nil {
			return err
		}
		ctrls[id] = ctrl
	}

	// move plays one coordinated move on the player's side.
	move := func(id string, pos int, mark byte) error {
		ctrl := ctrls[id]
		ctrl.Enter()
		ctrl.Overwrite()
		if err := games[id].Move(pos, mark); err != nil {
			_ = ctrl.Leave()
			return err
		}
		return ctrl.Leave()
	}

	fmt.Fprintln(out, "Cross plays centre (validated at the TTP before Nought sees it):")
	if err := move("cross", 4, apps.X); err != nil {
		return err
	}
	if err := waitBoard(ctrls["nought"], 1); err != nil {
		return err
	}
	fmt.Fprintln(out, games["nought"].Board())

	fmt.Fprintln(out, "\nNought plays top-left (validated at the TTP):")
	if err := move("nought", 0, apps.O); err != nil {
		return err
	}
	if err := waitBoard(ctrls["cross"], 2); err != nil {
		return err
	}
	fmt.Fprintln(out, games["cross"].Board())
	relay.Wait()
	seen := ctrls["nought"].AgreedState()

	// An invalid move: Cross tries to overwrite Nought's square. The TTP
	// vetoes it; Nought never receives anything.
	fmt.Fprintln(out, "\nCross attempts to overwrite Nought's square via the TTP...")
	ctrlX := ctrls["cross"]
	ctrlX.Enter()
	ctrlX.Overwrite()
	games["cross"].ForceMove(0, apps.X)
	cheat, err := games["cross"].GetState()
	if err != nil {
		return err
	}
	err = ctrlX.Leave()
	if !errors.Is(err, b2b.ErrVetoed) {
		return fmt.Errorf("expected the TTP to veto, got: %v", err)
	}
	fmt.Fprintf(out, "REJECTED AT THE TTP: %v\n", err)
	relay.Wait()
	fmt.Fprintln(out, "\nNought's board never saw the invalid move:")
	fmt.Fprintln(out, games["nought"].Board())

	// Deviation checks: the TTP holds evidence of the cheat; Nought's agreed
	// game and evidence log hold no trace of it.
	if !bytes.Equal(ctrls["nought"].AgreedState(), seen) {
		return errors.New("deviation: nought's agreed game changed after the vetoed move")
	}
	if !logged(parts[agent], cheat) {
		return errors.New("deviation: the TTP holds no evidence of the vetoed move")
	}
	if logged(parts["nought"], cheat) {
		return errors.New("deviation: the vetoed move reached nought's evidence log")
	}
	if errs := relay.Errs(); len(errs) != 0 {
		return fmt.Errorf("forwarding failed: %v", errs)
	}
	return nil
}

// logged reports whether any evidence record p holds carries state.
func logged(p *b2b.Participant, state []byte) bool {
	entries, err := p.Log().Entries()
	if err != nil {
		return false
	}
	for _, e := range entries {
		if bytes.Contains(e.Payload, state) {
			return true
		}
	}
	return false
}

// waitBoard waits until moves moves are agreed on ctrl's side: the relay's
// forward has landed on that player's board.
func waitBoard(ctrl *b2b.Controller, moves uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for ctrl.AgreedSeq() < moves {
		if time.Now().After(deadline) {
			return fmt.Errorf("board did not reach %d moves within 10s", moves)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
