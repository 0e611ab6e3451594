package lab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"b2b/internal/apps"
	"b2b/internal/coord"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// ObjectValidator adapts an overwrite-only application object (the paper
// apps' ValidateState / ApplyState pair) to coord.Validator: validate judges
// each proposed state, install receives every installed or rolled-back
// state, and updates are refused.
func ObjectValidator(validate func(proposer string, state []byte) error, install func(state []byte) error) coord.Validator {
	return &objValidator{validate: validate, install: install}
}

type objValidator struct {
	validate func(proposer string, state []byte) error
	install  func(state []byte) error
}

func (v *objValidator) ValidateState(proposer string, _ *pagestate.Paged, proposed []byte) wire.Decision {
	if err := v.validate(proposer, proposed); err != nil {
		return wire.Rejected(err.Error())
	}
	return wire.Accepted
}

func (v *objValidator) ValidateUpdate(string, *pagestate.Paged, []byte) wire.Decision {
	return wire.Rejected("updates not used by this object")
}

func (v *objValidator) ApplyUpdate(*pagestate.Paged, []byte) (*pagestate.Paged, error) {
	return nil, errors.New("updates not used by this object")
}

func (v *objValidator) Installed(state *pagestate.Paged, _ tuple.State) { _ = v.install(state.Bytes()) }

func (v *objValidator) RolledBack(state *pagestate.Paged, _ tuple.State) {
	_ = v.install(state.Bytes())
}

// RunFig5 reproduces the Fig 5 Tic-Tac-Toe scenario: three legal moves, then
// Cross's attempt to pre-empt Nought's move is vetoed and rolled back. The
// transcript is written to out; the error reports any deviation from the
// paper's expected behaviour.
func RunFig5(out io.Writer) error {
	w, err := NewWorld(Options{Seed: 5}, "cross", "nought")
	if err != nil {
		return err
	}
	defer w.Close()

	players := map[string]byte{"cross": apps.X, "nought": apps.O}
	games := map[string]*apps.TicTacToe{
		"cross":  apps.NewTicTacToe(players),
		"nought": apps.NewTicTacToe(players),
	}
	mkValidator := func(id string) coord.Validator {
		g := games[id]
		return ObjectValidator(g.ValidateState, g.ApplyState)
	}
	if err := w.Bind("game", mkValidator, nil); err != nil {
		return err
	}
	initial, err := apps.NewTicTacToe(players).GetState()
	if err != nil {
		return err
	}
	if err := w.Bootstrap("game", initial, []string{"cross", "nought"}); err != nil {
		return err
	}

	move := func(player string, pos int, mark byte) error {
		// Settle first: the player's replica must reflect the opponent's
		// last agreed move before acting on it.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := w.Party(player).Engine("game").WaitQuiescent(ctx); err != nil {
			return err
		}
		g := games[player]
		if err := g.Move(pos, mark); err != nil {
			return err
		}
		state, err := g.GetState()
		if err != nil {
			return err
		}
		_, err = w.Party(player).Engine("game").Propose(ctx, state)
		return err
	}

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
		other := "cross"
		if s.player == "cross" {
			other = "nought"
		}
		fmt.Fprintln(out, games[other].Board())
		fmt.Fprintln(out)
	}

	fmt.Fprintln(out, "Cross attempts to mark bottom row, centre square with a zero...")
	gX := games["cross"]
	{
		sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
		if err := w.Party("cross").Engine("game").WaitQuiescent(sctx); err != nil {
			scancel()
			return err
		}
		scancel()
	}
	gX.ForceMove(7, apps.O)
	state, err := gX.GetState()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_, err = w.Party("cross").Engine("game").Propose(ctx, state)
	if !errors.Is(err, coord.ErrVetoed) {
		return fmt.Errorf("expected the cheat to be vetoed, got: %v", err)
	}
	fmt.Fprintf(out, "REJECTED: %v\n\n", err)

	// Recover Cross's application object from the rolled-back agreed state.
	_, agreed := w.Party("cross").Engine("game").Agreed()
	if err := gX.ApplyState(agreed); err != nil {
		return err
	}
	fmt.Fprintln(out, "Nought's board is unaffected; the agreed game state is unchanged:")
	fmt.Fprintln(out, games["nought"].Board())
	fmt.Fprintln(out, "\nNought holds evidence of the attempt to cheat; Cross forfeits the game.")

	// Deviation checks for the harness.
	if games["nought"].Turn() != "O" {
		return errors.New("deviation: agreed game not at Nought's turn")
	}
	entries, err := w.Party("nought").Log.Entries()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return errors.New("deviation: nought holds no evidence")
	}
	return nil
}

// RunFig7 reproduces the Fig 7 order-processing scenario: customer orders,
// supplier prices, customer amends, supplier's combined price+quantity
// change is vetoed, supplier retries with the legal change.
func RunFig7(out io.Writer) error {
	w, err := NewWorld(Options{Seed: 7}, "customer", "supplier")
	if err != nil {
		return err
	}
	defer w.Close()

	roles := map[string]apps.Role{"customer": apps.Customer, "supplier": apps.Supplier}
	orders := map[string]*apps.Order{
		"customer": apps.NewOrder(roles),
		"supplier": apps.NewOrder(roles),
	}
	mkValidator := func(id string) coord.Validator {
		o := orders[id]
		return ObjectValidator(o.ValidateState, o.ApplyState)
	}
	if err := w.Bind("order", mkValidator, nil); err != nil {
		return err
	}
	initial, err := apps.NewOrder(roles).GetState()
	if err != nil {
		return err
	}
	if err := w.Bootstrap("order", initial, []string{"customer", "supplier"}); err != nil {
		return err
	}

	change := func(id string, mutate func(*apps.Order)) error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		// Settle first so the mutation applies to the latest agreed order.
		if err := w.Party(id).Engine("order").WaitQuiescent(ctx); err != nil {
			return err
		}
		o := orders[id]
		mutate(o)
		state, err := o.GetState()
		if err != nil {
			return err
		}
		_, err = w.Party(id).Engine("order").Propose(ctx, state)
		if err != nil {
			// Roll the application object back to the agreed state.
			_, agreed := w.Party(id).Engine("order").Agreed()
			_ = o.ApplyState(agreed)
			return err
		}
		return nil
	}

	fmt.Fprintln(out, "customer orders 2 widget1s:")
	if err := change("customer", func(o *apps.Order) { o.AddItem("widget1", 2) }); err != nil {
		return err
	}
	fmt.Fprint(out, orders["supplier"].Render())

	fmt.Fprintln(out, "\nsupplier prices widget1 at 10 per unit:")
	if err := change("supplier", func(o *apps.Order) { _ = o.SetPrice("widget1", 10) }); err != nil {
		return err
	}
	fmt.Fprint(out, orders["customer"].Render())

	fmt.Fprintln(out, "\ncustomer amends the order for 10 widget2s:")
	if err := change("customer", func(o *apps.Order) { o.AddItem("widget2", 10) }); err != nil {
		return err
	}
	fmt.Fprint(out, orders["supplier"].Render())

	fmt.Fprintln(out, "\nsupplier attempts to price widget2 AND change its quantity:")
	err = change("supplier", func(o *apps.Order) {
		_ = o.SetPrice("widget2", 7)
		_ = o.SetQuantity("widget2", 100)
	})
	if !errors.Is(err, coord.ErrVetoed) {
		return fmt.Errorf("expected veto, got: %v", err)
	}
	fmt.Fprintf(out, "REJECTED: %v\n", err)
	fmt.Fprintln(out, "\ncustomer's copy is unaffected:")
	fmt.Fprint(out, orders["customer"].Render())

	fmt.Fprintln(out, "\nsupplier retries with only the price change:")
	if err := change("supplier", func(o *apps.Order) { _ = o.SetPrice("widget2", 7) }); err != nil {
		return err
	}
	fmt.Fprint(out, orders["customer"].Render())

	// Deviation checks.
	for _, l := range orders["customer"].Lines() {
		if l.Item == "widget2" && l.Quantity != 10 {
			return fmt.Errorf("deviation: widget2 quantity %d, want 10", l.Quantity)
		}
	}
	return nil
}
