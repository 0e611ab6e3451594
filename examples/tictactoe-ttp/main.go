// Tic-Tac-Toe through a trusted third party (paper §5.1, Fig 6): each
// player coordinates only with the TTP, which validates every move before
// it is disclosed to the opponent — conditional state disclosure through
// trusted agents (Fig 1b). An invalid move is vetoed at the TTP and never
// reaches the other player.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"time"

	"b2b/internal/apps"
	"b2b/internal/coord"
	"b2b/internal/lab"
	"b2b/internal/ttp"
	"b2b/internal/wire"
)

// gameValidator adapts a player's TicTacToe object to the internal
// validator used by the player-side engines in this wiring. Moves arrive via
// the trusted third party (Fig 6): the TTP has already attributed the move
// to a player, so this replica checks rule consistency for whichever
// player's turn it is.
func gameValidator(game *apps.TicTacToe) coord.Validator {
	return lab.ObjectValidator(func(proposer string, proposed []byte) error {
		if proposer == "ttp" {
			return game.ValidateStateByTurn(proposed)
		}
		return game.ValidateState(proposer, proposed)
	}, game.ApplyState)
}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("tictactoe-ttp: %v", err)
	}
}

func run() error {
	// Three parties: the two players and the trusted third party. Two
	// separate 2-party coordination groups: cross<->ttp and ttp<->nought.
	w, err := lab.NewWorld(lab.Options{Seed: 1}, "cross", "ttp", "nought")
	if err != nil {
		return err
	}
	defer w.Close()

	players := map[string]byte{"cross": apps.X, "nought": apps.O}
	gameX := apps.NewTicTacToe(players)
	gameO := apps.NewTicTacToe(players)
	refGame := apps.NewTicTacToe(players) // the TTP's authoritative rules copy

	// The TTP's relay validates each move against the rules BEFORE the
	// opponent sees it, then forwards agreed states across.
	relay := ttp.NewRelay(func(proposer string, current, proposed []byte) wire.Decision {
		if err := refGame.ApplyState(current); err != nil {
			return wire.Rejected("ttp cannot parse current state")
		}
		if err := refGame.ValidateState(proposer, proposed); err != nil {
			return wire.Rejected("ttp: " + err.Error())
		}
		return wire.Accepted
	})

	if _, _, err := w.Party("cross").Part.Bind("side-x", gameValidator(gameX), nil); err != nil {
		return err
	}
	enL, _, err := w.Party("ttp").Part.Bind("side-x", relay.ValidatorFor(0), nil)
	if err != nil {
		return err
	}
	enR, _, err := w.Party("ttp").Part.Bind("side-o", relay.ValidatorFor(1), nil)
	if err != nil {
		return err
	}
	if _, _, err := w.Party("nought").Part.Bind("side-o", gameValidator(gameO), nil); err != nil {
		return err
	}
	relay.Bind(0, enL)
	relay.Bind(1, enR)

	initial, err := apps.NewTicTacToe(players).GetState()
	if err != nil {
		return err
	}
	if err := w.Party("cross").Engine("side-x").Bootstrap(initial, []string{"cross", "ttp"}); err != nil {
		return err
	}
	if err := enL.Bootstrap(initial, []string{"cross", "ttp"}); err != nil {
		return err
	}
	if err := enR.Bootstrap(initial, []string{"ttp", "nought"}); err != nil {
		return err
	}
	if err := w.Party("nought").Engine("side-o").Bootstrap(initial, []string{"ttp", "nought"}); err != nil {
		return err
	}

	moveVia := func(player, object string, game *apps.TicTacToe, pos int, mark byte) error {
		if err := game.Move(pos, mark); err != nil {
			return err
		}
		state, err := game.GetState()
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		out, err := w.Party(player).Engine(object).Propose(ctx, state)
		if err != nil {
			return err
		}
		if !out.Valid {
			return fmt.Errorf("move vetoed: %s", out.Diagnostic)
		}
		relay.Wait() // let the TTP forward to the other side
		return nil
	}

	fmt.Println("Cross plays centre (validated at the TTP before Nought sees it):")
	if err := moveVia("cross", "side-x", gameX, 4, apps.X); err != nil {
		return err
	}
	waitBoard(gameO, 1)
	fmt.Println(gameO.Board())

	fmt.Println("\nNought plays top-left (validated at the TTP):")
	if err := moveVia("nought", "side-o", gameO, 0, apps.O); err != nil {
		return err
	}
	waitBoard(gameX, 2)
	fmt.Println(gameX.Board())

	// An invalid move: Cross tries to overwrite Nought's square. The TTP
	// vetoes it; Nought never receives anything.
	fmt.Println("\nCross attempts to overwrite Nought's square via the TTP...")
	gameX.ForceMove(0, apps.X)
	state, err := gameX.GetState()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_, err = w.Party("cross").Engine("side-x").Propose(ctx, state)
	if err == nil {
		return fmt.Errorf("expected the TTP to veto")
	}
	fmt.Printf("REJECTED AT THE TTP: %v\n", err)
	fmt.Println("\nNought's board never saw the invalid move:")
	fmt.Println(gameO.Board())
	return nil
}

// waitBoard waits for the relay's forward to land (moves counted).
func waitBoard(g *apps.TicTacToe, moves int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		state, err := g.GetState()
		if err == nil && countMoves(state) >= moves {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func countMoves(state []byte) int {
	var s struct {
		Moves int `json:"moves"`
	}
	if err := json.Unmarshal(state, &s); err != nil {
		return 0
	}
	return s.Moves
}
