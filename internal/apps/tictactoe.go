// Package apps contains the proof-of-concept application objects of the
// paper's evaluation (§5): the Tic-Tac-Toe game (symmetric turn-taking
// rules, Fig 5/6), the order processing object (asymmetric per-role rules,
// Fig 7) and the distributed auction of §2 scenario 3. All three implement
// the public b2b.Object interface and are shared by the runnable examples
// and the experiment harness.
package apps

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Marks on the board.
const (
	Empty = byte(' ')
	X     = byte('X')
	O     = byte('O')
)

// TicTacToe is the game object of §5.1: the object encodes the rules; the
// players' servers share it and coordinate every move. The validation is
// symmetric: any party validates any proposed move the same way.
type TicTacToe struct {
	mu sync.Mutex
	s  tttState
	// players maps party id -> mark; parties not present may not move.
	players map[string]byte
}

type tttState struct {
	Board  string `json:"board"` // 9 cells, 'X'/'O'/' '
	Turn   string `json:"turn"`  // "X" or "O"
	Winner string `json:"winner,omitempty"`
	Moves  int    `json:"moves"`
}

// NewTicTacToe creates a fresh game; players maps party identity to mark
// (e.g. {"cross": X, "nought": O}). Cross moves first.
func NewTicTacToe(players map[string]byte) *TicTacToe {
	ps := make(map[string]byte, len(players))
	for k, v := range players {
		ps[k] = v
	}
	return &TicTacToe{
		s:       tttState{Board: strings.Repeat(" ", 9), Turn: "X"},
		players: ps,
	}
}

// Move applies a local move: the player claims the square (0-8, row-major).
// It mutates only the local replica; coordination shares it.
func (g *TicTacToe) Move(pos int, mark byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	next, err := applyMove(g.s, pos, mark)
	if err != nil {
		return err
	}
	g.s = next
	return nil
}

// ForceMove applies a move WITHOUT rule checking — used to reproduce the
// Fig 5 cheating attempt (Cross marks a square with a zero out of turn).
func (g *TicTacToe) ForceMove(pos int, mark byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := []byte(g.s.Board)
	b[pos] = mark
	g.s.Board = string(b)
	g.s.Moves++
}

// Board renders the board for transcripts.
func (g *TicTacToe) Board() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.s.Board
	row := func(i int) string {
		return fmt.Sprintf(" %c | %c | %c ", b[i], b[i+1], b[i+2])
	}
	return row(0) + "\n-----------\n" + row(3) + "\n-----------\n" + row(6)
}

// Turn reports whose turn it is ("X" or "O").
func (g *TicTacToe) Turn() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.s.Turn
}

// Winner reports "X", "O", "draw" or "".
func (g *TicTacToe) Winner() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.s.Winner
}

// GetState implements b2b.Object.
func (g *TicTacToe) GetState() ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return json.Marshal(g.s)
}

// ApplyState implements b2b.Object.
func (g *TicTacToe) ApplyState(state []byte) error {
	var s tttState
	if err := json.Unmarshal(state, &s); err != nil {
		return fmt.Errorf("tictactoe: bad state: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.s = s
	return nil
}

// ValidateState implements b2b.Object: the proposed state must be reachable
// from the current state by exactly one legal move by the proposer's mark.
func (g *TicTacToe) ValidateState(proposer string, state []byte) error {
	var next tttState
	if err := json.Unmarshal(state, &next); err != nil {
		return fmt.Errorf("unparseable game state: %w", err)
	}
	g.mu.Lock()
	cur := g.s
	mark, known := g.players[proposer]
	g.mu.Unlock()
	if !known {
		return fmt.Errorf("%s is not a player in this game", proposer)
	}
	return validateTransition(cur, next, mark)
}

// ValidateConnect implements b2b.Object: the game is fixed to its players.
func (g *TicTacToe) ValidateConnect(subject string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.players[subject]; ok {
		return nil
	}
	return fmt.Errorf("%s is not a player in this game", subject)
}

// ValidateDisconnect implements b2b.Object.
func (g *TicTacToe) ValidateDisconnect(string, bool) error { return nil }

// applyMove computes the state after a legal move.
func applyMove(s tttState, pos int, mark byte) (tttState, error) {
	if err := checkMoveLegal(s, pos, mark); err != nil {
		return tttState{}, err
	}
	b := []byte(s.Board)
	b[pos] = mark
	next := tttState{Board: string(b), Moves: s.Moves + 1}
	next.Winner = winnerOf(next.Board, next.Moves)
	if mark == X {
		next.Turn = "O"
	} else {
		next.Turn = "X"
	}
	return next, nil
}

func checkMoveLegal(s tttState, pos int, mark byte) error {
	if s.Winner != "" {
		return errors.New("the game is over")
	}
	if pos < 0 || pos > 8 {
		return fmt.Errorf("square %d out of range", pos)
	}
	if mark != X && mark != O {
		return fmt.Errorf("invalid mark %q", mark)
	}
	if string(mark) != s.Turn {
		return fmt.Errorf("it is %s's turn", s.Turn)
	}
	if s.Board[pos] != Empty {
		return fmt.Errorf("square %d is already claimed", pos)
	}
	return nil
}

// validateTransition checks that next follows cur by one legal move made
// with the given mark (the rules of §5.1: a vacant square claimed with your
// own mark, on your turn, no overwriting).
func validateTransition(cur, next tttState, mark byte) error {
	if len(next.Board) != 9 {
		return errors.New("malformed board")
	}
	if cur.Winner != "" {
		return errors.New("the game is over")
	}
	if string(mark) != cur.Turn {
		return fmt.Errorf("it is %s's turn, not %s's", cur.Turn, string(mark))
	}
	changed := -1
	for i := 0; i < 9; i++ {
		if cur.Board[i] == next.Board[i] {
			continue
		}
		if changed != -1 {
			return errors.New("more than one square changed")
		}
		if cur.Board[i] != Empty {
			return fmt.Errorf("square %d overwritten", i)
		}
		if next.Board[i] != mark {
			return fmt.Errorf("square %d marked with %q, not the proposer's mark %q",
				i, next.Board[i], string(mark))
		}
		changed = i
	}
	if changed == -1 {
		return errors.New("no move made")
	}
	if next.Moves != cur.Moves+1 {
		return errors.New("move counter inconsistent")
	}
	wantTurn := "X"
	if mark == X {
		wantTurn = "O"
	}
	if next.Turn != wantTurn {
		return errors.New("turn not passed to the opponent")
	}
	if want := winnerOf(next.Board, next.Moves); next.Winner != want {
		return fmt.Errorf("winner field %q inconsistent (want %q)", next.Winner, want)
	}
	return nil
}

var tttLines = [8][3]int{
	{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, // rows
	{0, 3, 6}, {1, 4, 7}, {2, 5, 8}, // columns
	{0, 4, 8}, {2, 4, 6}, // diagonals
}

func winnerOf(board string, moves int) string {
	for _, ln := range tttLines {
		a, b, c := board[ln[0]], board[ln[1]], board[ln[2]]
		if a != Empty && a == b && b == c {
			return string(a)
		}
	}
	if moves >= 9 {
		return "draw"
	}
	return ""
}

// ValidateStateByTurn validates a proposed state as a legal move by
// whichever player's turn it is, without knowing the mover's identity. Used
// when moves arrive through a trusted third party (Fig 6): the TTP has
// already attributed and validated the move; the player verifies rule
// consistency.
func (g *TicTacToe) ValidateStateByTurn(state []byte) error {
	var next tttState
	if err := json.Unmarshal(state, &next); err != nil {
		return fmt.Errorf("unparseable game state: %w", err)
	}
	g.mu.Lock()
	cur := g.s
	g.mu.Unlock()
	mark := X
	if cur.Turn == "O" {
		mark = O
	}
	return validateTransition(cur, next, mark)
}
