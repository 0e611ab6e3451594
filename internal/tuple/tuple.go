// Package tuple implements the identifier tuples of the paper (§4.2, §4.5.2).
//
// The state of an object is uniquely identified by a tuple
//
//	T = (Seq, HashRand, HashState)
//
// where Seq is a proposal sequence number, HashRand the hash of a fresh
// random number generated by the proposer, and HashState the hash of the
// state the tuple refers to. Seq strictly increases past every coordination
// request the proposer has seen; HashRand disambiguates concurrent proposals
// with equal Seq; HashState binds the tuple to its content.
//
// HashState is realised as the paged Merkle root of the state (package
// pagestate) rather than a flat SHA-256: the state is split into fixed-size
// pages hashed into a Merkle tree whose domain-separated, length-bound root
// becomes the identity. On the wire nothing changes — HashState stays an
// opaque 32-byte value — but proposers and recipients holding paged replicas
// rebind a small update by rehashing only the touched pages plus the root
// path (O(delta · log S)) instead of the whole object. The page size is a
// group-wide protocol parameter (default pagestate.DefaultPageSize); the
// *Sized variants take it explicitly, the plain forms use the default. See
// docs/ARCHITECTURE.md, "State identity", for the collision-resistance
// argument.
//
// Group membership is identified the same way by
//
//	G = (Seq, HashRand, HashMembers)
//
// with HashMembers a hash over the join-ordered member identifiers.
package tuple

import (
	"encoding/hex"
	"fmt"

	"b2b/internal/canon"
	"b2b/internal/crypto"
	"b2b/internal/pagestate"
)

// State uniquely identifies a (proposed or agreed) object state.
type State struct {
	Seq       uint64
	HashRand  [32]byte
	HashState [32]byte
}

// NewState builds the tuple identifying state content at sequence seq, using
// the proposer-generated random value rand and the default page size.
func NewState(seq uint64, rand, state []byte) State {
	return NewStateSized(seq, rand, state, pagestate.DefaultPageSize)
}

// NewStateSized is NewState under an explicit page size (the group's
// configured paging policy).
func NewStateSized(seq uint64, rand, state []byte, pageSize int) State {
	return NewStateRoot(seq, rand, pagestate.Root(state, pageSize))
}

// NewStateRoot is the incremental variant: the caller already holds the
// state's paged Merkle root (a pagestate.Paged maintained copy-on-write), so
// building the tuple costs one hash of the random value — no state bytes are
// touched.
func NewStateRoot(seq uint64, rand []byte, root [32]byte) State {
	return State{
		Seq:       seq,
		HashRand:  crypto.Hash(rand),
		HashState: root,
	}
}

// Initial is the distinguished tuple identifying the pre-agreement state of a
// freshly created object: sequence zero, with both hashes derived from the
// object's initial content so that all parties bootstrapping from the same
// initial state hold identical tuples.
func Initial(state []byte) State {
	return InitialRoot(pagestate.Root(state, pagestate.DefaultPageSize))
}

// InitialRoot is Initial from an already-computed paged Merkle root.
func InitialRoot(root [32]byte) State {
	return State{
		Seq:       0,
		HashRand:  crypto.Hash([]byte("b2b.initial")),
		HashState: root,
	}
}

// Zero reports whether the tuple is the zero value (no state known at all).
func (s State) Zero() bool { return s == State{} }

// Matches reports whether the tuple identifies the given state content under
// the default page size.
func (s State) Matches(state []byte) bool {
	return s.HashState == pagestate.Root(state, pagestate.DefaultPageSize)
}

// MatchesRoot reports whether the tuple identifies the state whose paged
// Merkle root is root — the O(1) form used when the caller maintains the
// state as a pagestate.Paged.
func (s State) MatchesRoot(root [32]byte) bool { return s.HashState == root }

// Encode appends the tuple to e.
func (s State) Encode(e *canon.Encoder) {
	e.Struct("stuple")
	e.Uint64(s.Seq)
	e.Bytes32(s.HashRand)
	e.Bytes32(s.HashState)
}

// DecodeState reads a State tuple from d.
func DecodeState(d *canon.Decoder) State {
	d.Struct("stuple")
	return State{
		Seq:       d.Uint64(),
		HashRand:  d.Bytes32(),
		HashState: d.Bytes32(),
	}
}

// String renders an abbreviated, log-friendly form.
func (s State) String() string {
	return fmt.Sprintf("T(seq=%d r=%s s=%s)", s.Seq,
		hex.EncodeToString(s.HashRand[:4]), hex.EncodeToString(s.HashState[:4]))
}

// Group uniquely identifies a membership of the participant set.
type Group struct {
	Seq         uint64
	HashRand    [32]byte
	HashMembers [32]byte
}

// HashMembers computes the membership hash over join-ordered member IDs.
// Join order is significant: it determines sponsor selection (§4.5.1), so two
// groups with the same members in different join orders are distinct.
func HashMembers(members []string) [32]byte {
	e := canon.NewEncoder()
	e.Strings(members)
	return crypto.Hash(e.Out())
}

// NewGroup builds the tuple identifying a membership at sequence seq.
func NewGroup(seq uint64, rand []byte, members []string) Group {
	return Group{
		Seq:         seq,
		HashRand:    crypto.Hash(rand),
		HashMembers: HashMembers(members),
	}
}

// InitialGroup identifies the founding membership of a coordination group.
func InitialGroup(members []string) Group {
	return Group{
		Seq:         0,
		HashRand:    crypto.Hash([]byte("b2b.initial-group")),
		HashMembers: HashMembers(members),
	}
}

// Zero reports whether the tuple is the zero value.
func (g Group) Zero() bool { return g == Group{} }

// MatchesMembers reports whether the tuple identifies the given join-ordered
// membership.
func (g Group) MatchesMembers(members []string) bool {
	return g.HashMembers == HashMembers(members)
}

// Encode appends the tuple to e.
func (g Group) Encode(e *canon.Encoder) {
	e.Struct("gtuple")
	e.Uint64(g.Seq)
	e.Bytes32(g.HashRand)
	e.Bytes32(g.HashMembers)
}

// DecodeGroup reads a Group tuple from d.
func DecodeGroup(d *canon.Decoder) Group {
	d.Struct("gtuple")
	return Group{
		Seq:         d.Uint64(),
		HashRand:    d.Bytes32(),
		HashMembers: d.Bytes32(),
	}
}

// String renders an abbreviated, log-friendly form.
func (g Group) String() string {
	return fmt.Sprintf("G(seq=%d r=%s m=%s)", g.Seq,
		hex.EncodeToString(g.HashRand[:4]), hex.EncodeToString(g.HashMembers[:4]))
}

// Invariant violations (paper §4.2, invariants 1-4). Breaches detected during
// a protocol run lead to invalidation of the proposed transition.
type InvariantError struct {
	Invariant int
	Detail    string
}

// Error implements the error interface.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("tuple: invariant %d violated: %s", e.Invariant, e.Detail)
}

// CheckRecipientView enforces invariant 1 for a recipient: its current state
// is the agreed state, as viewed by itself and by the proposer.
func CheckRecipientView(current, agreed, proposerAgreed State) error {
	if current != agreed {
		return &InvariantError{Invariant: 1, Detail: fmt.Sprintf("current %v != agreed %v", current, agreed)}
	}
	if agreed != proposerAgreed {
		return &InvariantError{Invariant: 1, Detail: fmt.Sprintf("agreed %v != proposer's agreed %v", agreed, proposerAgreed)}
	}
	return nil
}

// CheckProposerView enforces invariant 2 for the proposer: its current state
// is the proposed state (the proposer is committed at initiation).
func CheckProposerView(current, proposed State) error {
	if current != proposed {
		return &InvariantError{Invariant: 2, Detail: fmt.Sprintf("current %v != proposed %v", current, proposed)}
	}
	return nil
}

// CheckOrdering enforces invariant 3: the proposed sequence number exceeds
// the agreed one and every request sequence number already seen.
func CheckOrdering(proposed, agreed State, maxSeen uint64) error {
	if proposed.Seq <= agreed.Seq {
		return &InvariantError{Invariant: 3, Detail: fmt.Sprintf("proposed seq %d <= agreed seq %d", proposed.Seq, agreed.Seq)}
	}
	if proposed.Seq <= maxSeen {
		return &InvariantError{Invariant: 3, Detail: fmt.Sprintf("proposed seq %d <= max seen request seq %d", proposed.Seq, maxSeen)}
	}
	return nil
}

// Seen tracks proposal tuples observed by a party and enforces invariant 4
// (uniqueness over all proposals seen, which defeats replay of prior runs).
// Note that uniqueness applies to tuples, not to states: re-proposing an
// earlier state is legitimate and yields a distinct tuple via a fresh random.
type Seen struct {
	tuples map[State]struct{}
	maxSeq uint64
}

// NewSeen returns an empty tracker.
func NewSeen() *Seen {
	return &Seen{tuples: make(map[State]struct{})}
}

// Observe records a proposal tuple, returning an invariant-4 error if the
// exact tuple has been seen before.
func (s *Seen) Observe(t State) error {
	if _, dup := s.tuples[t]; dup {
		return &InvariantError{Invariant: 4, Detail: fmt.Sprintf("replayed proposal tuple %v", t)}
	}
	s.tuples[t] = struct{}{}
	if t.Seq > s.maxSeq {
		s.maxSeq = t.Seq
	}
	return nil
}

// MaxSeq reports the highest sequence number observed across all requests,
// used by proposers to generate the next sequence number and by invariant 3.
func (s *Seen) MaxSeq() uint64 { return s.maxSeq }

// Len reports the number of distinct tuples observed.
func (s *Seen) Len() int { return len(s.tuples) }

// ObserveRecovered records a tuple during recovery/bootstrap without
// enforcing uniqueness: the agreed tuple a party restarts from has
// necessarily been seen before.
func (s *Seen) ObserveRecovered(t State) {
	s.tuples[t] = struct{}{}
	if t.Seq > s.maxSeq {
		s.maxSeq = t.Seq
	}
}
