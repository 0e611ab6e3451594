package main

import (
	"fmt"
	"sync"

	b2b "b2b"
	"b2b/internal/crypto"
)

// relay is the trusted agent of Fig 1b / Fig 6: one participant bound to two
// objects, each shared with one side. The agent judges every state proposed
// on a side against its rules before that state can be agreed there, and
// forwards each newly agreed state into the other side. An invalid state is
// vetoed on the side that proposed it and so never disclosed to the other.
type relay struct {
	rules func(proposer string, current, proposed []byte) error

	mu        sync.Mutex
	cond      *sync.Cond
	sides     [2]*side
	forwarded map[[32]byte]bool // states already agreed on both sides, or on their way
	inflight  int
	errs      []error
}

// newRelay creates an agent that judges proposals with rules: proposer
// changes the side's current state into proposed, and a non-nil error
// vetoes the change with its message as the signed diagnostic.
func newRelay(rules func(proposer string, current, proposed []byte) error) *relay {
	r := &relay{rules: rules, forwarded: make(map[[32]byte]bool)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// bind binds the agent's replica of each side's object at p, holding
// initial, and bootstraps side i's group with members[i].
func (r *relay) bind(p *b2b.Participant, objects [2]string, members [2][]string, initial []byte) error {
	r.mu.Lock()
	r.forwarded[crypto.Hash(initial)] = true
	r.mu.Unlock()
	for i, object := range objects {
		s := &side{relay: r, other: 1 - i, state: initial}
		ctrl, err := p.Bind(object, s, nil)
		if err != nil {
			return err
		}
		s.ctrl = ctrl
		r.mu.Lock()
		r.sides[i] = s
		r.mu.Unlock()
		if err := ctrl.Bootstrap(members[i]); err != nil {
			return err
		}
	}
	return nil
}

// Wait blocks until every forward under way has finished.
func (r *relay) Wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.inflight > 0 {
		r.cond.Wait()
	}
}

// Errs returns the forwards that failed so far.
func (r *relay) Errs() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]error(nil), r.errs...)
}

// agreed forwards a state just agreed on one side into side to, unless the
// state is the agent's own forward echoing back (or a rollback to a state
// already seen). The forward runs in its own goroutine: agreed is called
// from the install upcall, which must not wait on another run.
func (r *relay) agreed(to int, state []byte) {
	h := crypto.Hash(state)
	r.mu.Lock()
	if r.forwarded[h] {
		r.mu.Unlock()
		return
	}
	r.forwarded[h] = true
	dst := r.sides[to]
	r.inflight++
	r.mu.Unlock()
	go func() {
		err := dst.propose(state)
		r.mu.Lock()
		if err != nil {
			r.errs = append(r.errs, fmt.Errorf("forwarding to side %d: %w", to, err))
		}
		r.inflight--
		r.cond.Broadcast()
		r.mu.Unlock()
	}()
}

// side is the agent's replica of one side's object.
type side struct {
	relay *relay
	other int
	ctrl  *b2b.Controller

	fwd   sync.Mutex // one forward at a time through ctrl
	mu    sync.Mutex
	state []byte
}

// propose coordinates state on this side as the agent's own change.
func (s *side) propose(state []byte) error {
	s.fwd.Lock()
	defer s.fwd.Unlock()
	s.ctrl.Enter()
	s.ctrl.Overwrite()
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
	return s.ctrl.Leave()
}

func (s *side) GetState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.state...), nil
}

// ApplyState installs an agreed (or rolled-back) state and hands it to the
// relay to forward.
func (s *side) ApplyState(state []byte) error {
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
	s.relay.agreed(s.other, state)
	return nil
}

func (s *side) ValidateState(proposer string, state []byte) error {
	s.mu.Lock()
	current := s.state
	s.mu.Unlock()
	return s.relay.rules(proposer, current, state)
}

func (s *side) ValidateConnect(string) error { return nil }

func (s *side) ValidateDisconnect(string, bool) error { return nil }
