package scenario

import (
	"errors"
	"fmt"
	"sync/atomic"

	"b2b/internal/apps"
	"b2b/internal/coord"
	"b2b/internal/lab"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
)

// scenarioObject is the primary object every scenario's workload script
// drives. Scenarios with Objects > 1 add siblingObject(1..) groups on the
// same endpoints.
const scenarioObject = "scenario-object"

// siblingObject names the i-th co-resident tenant object (i >= 1).
func siblingObject(i int) string { return fmt.Sprintf("scenario-sibling-%02d", i) }

// adversaryMarker is the payload every generated adversary proposal (and the
// build-tagged mutation) carries: invariant 5 asserts it never appears in an
// installed agreed state.
const adversaryMarker = "b2b-adversary-divergent-state"

// errSkipStep marks a workload step that cannot be taken from the current
// agreed state (e.g. the replica is still behind after a fault window); the
// executor records and skips it rather than failing the scenario.
var errSkipStep = errors.New("scenario: step not applicable")

// runtime is the executable half of a scenario's workload: validator
// factories for Bind, the bootstrap state, the proposer rotation and the
// step-to-proposal translation over live application replicas.
type runtime struct {
	initial []byte
	actors  []string
	mkV     func(id string) coord.Validator
	// propose turns step i into the proposer-local next full state, after
	// the executor has confirmed the actor's replica holds agreed. Nil for
	// PatchStorm (driven in update mode, not overwrite mode).
	propose func(actor string, i int, st Step, agreed []byte) ([]byte, error)
	// resync re-aligns one party's application replica with an agreed state
	// (after restarts, rejoins and vetoed proposals). No-op for PatchStorm.
	resync func(id string, agreed []byte)
	// installed records, per party, the newest state its application received
	// (invariant 8).
	installed map[string]*installMark
}

// installMark is the newest agreed sequence a party's application has
// received — through Installed, or a resync after restart or rejoin.
type installMark struct{ seq atomic.Uint64 }

func (m *installMark) note(seq uint64) {
	for {
		cur := m.seq.Load()
		if seq <= cur || m.seq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// installRecorder wraps a validator so its installs feed an installMark.
type installRecorder struct {
	coord.Validator
	mark *installMark
}

func recordInstalls(v coord.Validator, mark *installMark) coord.Validator {
	return installRecorder{Validator: v, mark: mark}
}

func (r installRecorder) Installed(state *pagestate.Paged, t tuple.State) {
	r.Validator.Installed(state, t)
	r.mark.note(t.Seq)
}

// appObject is the overwrite-only surface shared by the three paper apps.
type appObject interface {
	ApplyState(state []byte) error
	ValidateState(proposer string, state []byte) error
}

// appValidator is the Fig 5/Fig 7 drivers' overwrite-only validator over
// obj, recording installs in mark.
func appValidator(obj appObject, mark *installMark) coord.Validator {
	return recordInstalls(lab.ObjectValidator(obj.ValidateState, obj.ApplyState), mark)
}

// buildRuntime materialises the workload for the given party ids.
func buildRuntime(s Scenario, ids []string) (*runtime, error) {
	installed := make(map[string]*installMark, len(ids))
	for _, id := range ids {
		installed[id] = new(installMark)
	}
	switch s.Workload {
	case PatchStorm:
		// wrapMutation is identity in honest builds; under -tags mutation it
		// installs the deliberately broken validator at the LAST party — the
		// invariant checker must flag the divergence it causes.
		last := ids[len(ids)-1]
		return &runtime{
			initial: deterministicBytes(s.ObjectSize, s.Seed),
			actors:  ids[:1],
			mkV: func(id string) coord.Validator {
				v := recordInstalls(lab.PatchValidator(), installed[id])
				if id == last {
					return wrapMutation(v)
				}
				return v
			},
			resync:    func(string, []byte) {},
			installed: installed,
		}, nil

	case TicTacToe:
		players := map[string]byte{ids[0]: apps.X, ids[1]: apps.O}
		games := make(map[string]*apps.TicTacToe, len(ids))
		for _, id := range ids {
			games[id] = apps.NewTicTacToe(players)
		}
		initial, err := apps.NewTicTacToe(players).GetState()
		if err != nil {
			return nil, err
		}
		marks := []byte{apps.X, apps.O}
		return &runtime{
			initial: initial,
			actors:  []string{ids[0], ids[1]},
			mkV: func(id string) coord.Validator {
				return appValidator(games[id], installed[id])
			},
			propose: func(actor string, i int, st Step, agreed []byte) ([]byte, error) {
				g := games[actor]
				if err := g.ApplyState(agreed); err != nil {
					return nil, err
				}
				if err := g.Move(st.A, marks[i%2]); err != nil {
					return nil, fmt.Errorf("%w: %v", errSkipStep, err)
				}
				return g.GetState()
			},
			resync:    func(id string, agreed []byte) { _ = games[id].ApplyState(agreed) },
			installed: installed,
		}, nil

	case Auction:
		auctions := make(map[string]*apps.Auction, len(ids))
		for _, id := range ids {
			auctions[id] = apps.NewAuction("amphora", auctionReserve, ids)
		}
		initial, err := apps.NewAuction("amphora", auctionReserve, ids).GetState()
		if err != nil {
			return nil, err
		}
		return &runtime{
			initial: initial,
			actors:  []string{ids[0], ids[1]},
			mkV: func(id string) coord.Validator {
				return appValidator(auctions[id], installed[id])
			},
			propose: func(actor string, _ int, st Step, agreed []byte) ([]byte, error) {
				a := auctions[actor]
				if err := a.ApplyState(agreed); err != nil {
					return nil, err
				}
				client := fmt.Sprintf("client%02d", st.B)
				if err := a.PlaceBid(actor, client, st.A); err != nil {
					return nil, fmt.Errorf("%w: %v", errSkipStep, err)
				}
				return a.GetState()
			},
			resync:    func(id string, agreed []byte) { _ = auctions[id].ApplyState(agreed) },
			installed: installed,
		}, nil

	case Contention:
		// Every party is an actor; the executor drives all of them
		// concurrently per step (driveContentionStep), so there is no
		// turn-taking propose translation here. States are derived, not
		// application-driven — the contest plane's convergence is the thing
		// under test, not an app's validation rules.
		return &runtime{
			initial: deterministicBytes(256, s.Seed),
			actors:  append([]string(nil), ids...),
			mkV: func(id string) coord.Validator {
				return recordInstalls(lab.AcceptAllValidator(), installed[id])
			},
			resync:    func(string, []byte) {},
			installed: installed,
		}, nil

	case OrderProcessing:
		roles := map[string]apps.Role{ids[0]: apps.Customer, ids[1]: apps.Supplier}
		orders := make(map[string]*apps.Order, len(ids))
		for _, id := range ids {
			orders[id] = apps.NewOrder(roles)
		}
		initial, err := apps.NewOrder(roles).GetState()
		if err != nil {
			return nil, err
		}
		return &runtime{
			initial: initial,
			actors:  []string{ids[0], ids[1]},
			mkV: func(id string) coord.Validator {
				return appValidator(orders[id], installed[id])
			},
			propose: func(actor string, i int, st Step, agreed []byte) ([]byte, error) {
				o := orders[actor]
				if err := o.ApplyState(agreed); err != nil {
					return nil, err
				}
				item := fmt.Sprintf("widget%02d", i/2)
				if i%2 == 0 {
					o.AddItem(item, st.A)
				} else if err := o.SetPrice(item, st.A); err != nil {
					return nil, fmt.Errorf("%w: %v", errSkipStep, err)
				}
				return o.GetState()
			},
			resync:    func(id string, agreed []byte) { _ = orders[id].ApplyState(agreed) },
			installed: installed,
		}, nil
	}
	return nil, fmt.Errorf("scenario: unknown workload %d", s.Workload)
}

// deterministicBytes derives the patch-storm bootstrap object from the seed
// (xorshift stream, like the lab's transfer fixtures).
func deterministicBytes(n int, seed uint64) []byte {
	out := make([]byte, n)
	x := seed | 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// contentionState derives actor k's proposal for contention step i: unique
// per (seed, step, actor, step randomizer) so rival proposals are never
// null transitions of the agreed state or of each other.
func contentionState(seed uint64, i, k, a int) []byte {
	head := fmt.Sprintf("contention step=%d actor=%d a=%d ", i, k, a)
	return append([]byte(head), deterministicBytes(64, seed^uint64(i*997+k*31+a))...)
}

// patchBody derives the body of patch-storm update i deterministically.
func patchBody(seed uint64, i, n int) []byte {
	out := make([]byte, n)
	x := seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
	for j := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[j] = byte(x)
	}
	return out
}
