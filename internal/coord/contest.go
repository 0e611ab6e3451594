// Contest plane: convergent resolution of dueling-proposer commits.
//
// Two proposers racing inside the commit-propagation window can each gather
// a vote-valid response set for the same predecessor tuple (widest under
// Majority termination, where a proposal this party rejected can still win
// the vote elsewhere). Without coordination, whichever commit reaches a
// party first installs there and the other is refused — parties that saw
// the commits in different orders disagree persistently. This file closes
// that window:
//
//  1. Evidence set (CRDT). The signed commits competing for one predecessor
//     tuple form a grow-only set, ordered by the hash of their canonical
//     encoding. Every entry is self-authenticating — the embedded signed
//     proposal and signed responses are verified (verifyGossipCommit)
//     before the entry is admitted — so the set can be merged from any
//     source without trusting the carrier.
//
//  2. Anti-entropy gossip. A party that learns of a contest broadcasts a
//     digest (the sorted entry hashes) to the group; a peer answers with a
//     delta carrying exactly the commits the digest was missing, and pulls
//     with its own digest when the sender advertised entries it lacks.
//     Exchanges stop when the sets are equal, so the sets converge without
//     a coordinator and without unbounded traffic (bounded re-gossip
//     rounds cover lost messages; the existing protocol retries cover the
//     rest).
//
//  3. Deterministic tie-break. Over the converged set every party picks
//     the same winner — the entry with the lexicographically smallest
//     canonical-encoding hash — and switches to it: the losing branch rolls
//     back through the existing suffix cascade, the winner's state is
//     rebuilt from the recorded pre-contest base, and a full snapshot
//     checkpoint re-anchors the delta chain across the branch switch. The
//     tie-break acts only inside the contested window (agreed is the
//     contested base or one of the contestants); once the chain has
//     extended past the window the contest retires and laggards reconcile
//     through state-transfer catch-up, which always moves to the higher
//     sequence.
//
//  4. Proposer lease. A deterministic rotation (members[(agreed.Seq+1) mod
//     n]) names a preferred proposer per slot. The lease is advisory and
//     engages only after contention has actually been observed: a
//     non-holder then briefly defers to the holder before proposing, so
//     under sustained contention the tie-break is the slow path, not the
//     common case. Single-writer workloads never defer.
package coord

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

const (
	// maxContests bounds how many contested predecessor tuples are tracked
	// at once (FIFO eviction): contests are per-object and short-lived.
	maxContests = 8
	// maxContestEntries bounds one contest's evidence set. Inserts keep the
	// smallest hashes, so the deterministic winner is never truncated away.
	maxContestEntries = 8
	// gossipRounds bounds re-broadcasts of a contest's digest: enough
	// redundancy to survive lost messages, strictly finite traffic.
	gossipRounds = 3
	// recentInstallCap bounds the recent-install records that let a late
	// competing commit reopen a decided predecessor window.
	recentInstallCap = 8
)

// contestEntry is one vote-valid commit competing for a predecessor tuple.
type contestEntry struct {
	digest [32]byte     // crypto.Hash of raw — the tie-break key
	raw    []byte       // canonical wire.Commit encoding (gossip payload)
	prop   wire.Propose // parsed from the verified embedded proposal
}

// contest is the grow-only evidence set for one contested predecessor
// tuple. Entries stay sorted ascending by digest so the winner is always
// entries[0] and iteration order is deterministic (no map ranging on any
// decision path).
type contest struct {
	pred    tuple.State
	entries []contestEntry
	rounds  int  // re-gossip rounds remaining
	armed   bool // a re-gossip timer is scheduled
}

func (c *contest) has(d [32]byte) bool {
	for _, e := range c.entries {
		if e.digest == d {
			return true
		}
	}
	return false
}

// insert adds an entry in digest order, deduplicating; reports whether the
// set grew. Past maxContestEntries the largest digests are dropped — the
// minimum (the winner) always survives.
func (c *contest) insert(e contestEntry) bool {
	i := 0
	for i < len(c.entries) {
		cmp := bytes.Compare(c.entries[i].digest[:], e.digest[:])
		if cmp == 0 {
			return false
		}
		if cmp > 0 {
			break
		}
		i++
	}
	c.entries = append(c.entries, contestEntry{})
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = e
	if len(c.entries) > maxContestEntries {
		c.entries = c.entries[:maxContestEntries]
	}
	return true
}

func (c *contest) maxSeq() uint64 {
	var m uint64
	for _, e := range c.entries {
		if e.prop.Proposed.Seq > m {
			m = e.prop.Proposed.Seq
		}
	}
	return m
}

// entryFor returns the entry whose proposed tuple is t, or nil.
func (c *contest) entryFor(t tuple.State) *contestEntry {
	for i := range c.entries {
		if c.entries[i].prop.Proposed == t {
			return &c.entries[i]
		}
	}
	return nil
}

// installRecord remembers a recent commit install: the predecessor it
// consumed, the tuple it installed, the canonical commit evidence, and the
// pre-install base state (shared COW, never mutated). When a late competing
// vote-valid commit for pred arrives, the record supplies the already
// installed rival as a contest entry and the base to rebuild the winner
// state from. The evidence's digest is taken only then: installs far
// outnumber contests, and the raw commit carries the whole proposed state.
type installRecord struct {
	pred tuple.State
	tup  tuple.State
	raw  []byte
	base *pagestate.Paged
}

// recordInstallLocked appends an install record (FIFO, bounded).
func (en *Engine) recordInstallLocked(pred, tup tuple.State, raw []byte, base *pagestate.Paged) {
	en.recent = append(en.recent, installRecord{
		pred: pred,
		tup:  tup,
		raw:  raw, // the commit's canonical bytes: evidence, never written
		base: base,
	})
	if len(en.recent) > recentInstallCap {
		en.recent = en.recent[1:]
	}
}

// recentForLocked returns the newest install record consuming pred, or nil.
func (en *Engine) recentForLocked(pred tuple.State) *installRecord {
	for i := len(en.recent) - 1; i >= 0; i-- {
		if en.recent[i].pred == pred {
			return &en.recent[i]
		}
	}
	return nil
}

// contestForLocked finds or creates the contest for pred, evicting the
// oldest contest past the bound.
func (en *Engine) contestForLocked(pred tuple.State) *contest {
	if c := en.contests[pred]; c != nil {
		return c
	}
	for len(en.contestQ) >= maxContests {
		delete(en.contests, en.contestQ[0])
		en.contestQ = en.contestQ[1:]
	}
	c := &contest{pred: pred, rounds: gossipRounds}
	en.contests[pred] = c
	en.contestQ = append(en.contestQ, pred)
	return c
}

// contestAddLocked admits a verified vote-valid commit into the evidence
// set for pred, reporting whether the set grew. Admission is gated on the
// contest being locally plausible — pred is this party's agreed state, a
// recently consumed predecessor, or an already-tracked contest — so stale
// replays of ancient commits cannot populate junk contests. The installed
// rival recorded for pred joins the set alongside the newcomer, and
// contention is marked for the proposer lease.
func (en *Engine) contestAddLocked(pred tuple.State, raw []byte, prop wire.Propose) bool {
	rec := en.recentForLocked(pred)
	if pred != en.agreed && rec == nil && en.contests[pred] == nil {
		return false
	}
	c := en.contestForLocked(pred)
	added := c.insert(contestEntry{digest: crypto.Hash(raw), raw: raw, prop: prop})
	if rec != nil {
		if d := crypto.Hash(rec.raw); !c.has(d) {
			if rp, err := en.rivalProposeOf(rec.raw); err == nil {
				c.insert(contestEntry{digest: d, raw: rec.raw, prop: rp})
			}
		}
	}
	if added {
		en.markContentionLocked()
	}
	return added
}

// rivalProposeOf re-parses the proposal embedded in a stored install
// record's commit bytes. The record was written on the install path, after
// full verification, so this is a decode of our own trusted copy.
func (en *Engine) rivalProposeOf(raw []byte) (wire.Propose, error) {
	commit, err := wire.UnmarshalCommit(raw)
	if err != nil {
		return wire.Propose{}, err
	}
	//b2b:unverified decoding this party's own install record, verified before it was stored
	return wire.UnmarshalPropose(commit.Propose.Body)
}

// errGossip labels a gossiped commit rejection.
func errGossip(format string, args ...any) error {
	return fmt.Errorf("coord: gossiped commit: "+format, args...)
}

// verifyGossipCommit verifies a commit received outside its own protocol
// run — through gossip, or refused on arrival — against everything except
// this party's own participation: proposal signature, every embedded
// response signature and its binding to the run, authenticator preimage,
// membership, per-member completeness, and the vote tally under the
// configured termination policy. (The regular verifyCommit additionally
// requires this party's own response; a party that never answered the run
// cannot demand that of evidence another majority produced.) It returns the
// parsed proposal and the canonical re-encoding whose hash is the
// tie-break key.
func (en *Engine) verifyGossipCommit(raw []byte) (wire.Propose, []byte, error) {
	commit, err := wire.UnmarshalCommit(raw)
	if err != nil {
		return wire.Propose{}, nil, errGossip("malformed: %v", err)
	}
	if err := en.verifySigned(commit.Propose); err != nil {
		return wire.Propose{}, nil, errGossip("embedded proposal fails verification: %v", err)
	}
	prop, err := wire.UnmarshalPropose(commit.Propose.Body)
	if err != nil {
		return wire.Propose{}, nil, errGossip("embedded proposal malformed: %v", err)
	}
	if commit.Propose.Signer() != prop.Proposer || commit.Proposer != prop.Proposer {
		return wire.Propose{}, nil, errGossip("proposer identity mismatch")
	}
	if prop.Object != en.cfg.Object {
		return wire.Propose{}, nil, errGossip("foreign object")
	}
	if crypto.Hash(commit.Auth) != prop.AuthCommit {
		return wire.Propose{}, nil, errGossip("authenticator does not match commitment")
	}
	if prop.Proposed.Seq <= prop.Pred.Seq {
		return wire.Propose{}, nil, errGossip("proposal does not extend its predecessor")
	}

	en.mu.Lock()
	members := append([]string(nil), en.members...)
	group := en.group
	en.mu.Unlock()

	if prop.Group != group {
		return wire.Propose{}, nil, errGossip("inconsistent group identifier")
	}
	if !slices.Contains(members, prop.Proposer) {
		return wire.Propose{}, nil, errGossip("proposer is not a group member")
	}
	seen, valid, _, err := en.tallyResponds(commit, prop, members)
	if err != nil {
		return wire.Propose{}, nil, errGossip("%v", err)
	}
	if m := missingResponder(members, prop.Proposer, seen); m != "" {
		return wire.Propose{}, nil, errGossip("missing response from %s", m)
	}
	if !valid {
		return wire.Propose{}, nil, errGossip("not vote-valid")
	}
	return prop, commit.Marshal(), nil
}

// noteContestedCommit processes a commit that was refused although its
// evidence may carry a vote-valid verdict: re-verify it standalone, admit
// it into the contest set for its predecessor, record the signed refusal,
// and kick off gossip and resolution. Forged or vote-invalid commits fail
// verification and change nothing.
func (en *Engine) noteContestedCommit(payload []byte) {
	prop, canonRaw, err := en.verifyGossipCommit(payload)
	if err != nil {
		return
	}
	pred := prop.Pred
	en.mu.Lock()
	added := en.contestAddLocked(pred, canonRaw, prop)
	en.mu.Unlock()
	if !added {
		return
	}
	// The signed, timestamped refusal record (scenario evidence invariant
	// 2): this party saw a vote-valid commit it could not install because
	// the predecessor was already consumed by a rival.
	_ = en.logEvidenceSeq(prop.RunID, prop.Proposed.Seq, "contested-commit-refused", nrlog.DirLocal,
		[]byte(fmt.Sprintf("vote-valid commit refused: predecessor %v contested", pred)))
	en.afterContest(pred)
}

// afterContest runs the convergence machinery after the evidence set for
// pred changed: spread the digest, apply the tie-break, and arm bounded
// re-gossip while the contest stays live.
func (en *Engine) afterContest(pred tuple.State) {
	en.spreadDigest(pred)
	en.resolveContest(pred)
	en.armRegossip(pred)
}

// digestPayloadLocked builds this party's digest for pred (empty hash list
// when no contest is tracked — the pull form).
func (en *Engine) digestPayloadLocked(pred tuple.State) []byte {
	g := wire.GossipDigest{Object: en.cfg.Object, Pred: pred}
	if c := en.contests[pred]; c != nil {
		for _, e := range c.entries {
			g.Hashes = append(g.Hashes, e.digest)
		}
	}
	return g.Marshal()
}

// spreadDigest broadcasts the contest digest for pred to the group.
func (en *Engine) spreadDigest(pred tuple.State) {
	en.mu.Lock()
	if !en.bootstrapped || en.contests[pred] == nil {
		en.mu.Unlock()
		return
	}
	payload := en.digestPayloadLocked(pred)
	recips := en.recipientsLocked()
	en.mu.Unlock()
	for _, r := range recips {
		_ = en.send(context.Background(), r, wire.KindGossipDigest, payload)
	}
}

// gossipInterval paces re-gossip rounds.
func (en *Engine) gossipInterval() time.Duration {
	if en.cfg.RetryInterval > 0 {
		return 2 * en.cfg.RetryInterval
	}
	return 250 * time.Millisecond
}

// armRegossip schedules one bounded re-broadcast of pred's digest (and a
// re-resolution) per remaining round, on the configured clock.
// Rounds stop when the contest retires or the budget is spent; peers that
// still disagree pull through digest replies instead.
func (en *Engine) armRegossip(pred tuple.State) {
	en.mu.Lock()
	c := en.contests[pred]
	if c == nil || c.armed || c.rounds <= 0 {
		en.mu.Unlock()
		return
	}
	c.armed = true
	en.mu.Unlock()
	en.cfg.Clock.AfterFunc(en.gossipInterval(), func() {
		en.mu.Lock()
		c := en.contests[pred]
		if c == nil {
			en.mu.Unlock()
			return
		}
		c.armed = false
		c.rounds--
		en.mu.Unlock()
		en.spreadDigest(pred)
		en.resolveContest(pred)
		en.armRegossip(pred)
	})
}

// handleGossipDigest answers a peer's digest: push a delta with the
// entries the peer lacks, and pull with our own digest when the peer
// advertises entries we lack (only for predecessors that are plausible
// here — our agreed state, a recently consumed predecessor, or a tracked
// contest — so unverifiable far-future digests are ignored).
func (en *Engine) handleGossipDigest(from string, payload []byte) {
	g, err := wire.UnmarshalGossipDigest(payload)
	if err != nil {
		_ = en.logEvidence("", "malformed-gossip", nrlog.DirReceived, payload)
		return
	}
	if g.Object != en.cfg.Object {
		return
	}
	en.mu.Lock()
	if !en.bootstrapped || !slices.Contains(en.members, from) {
		en.mu.Unlock()
		return
	}
	c := en.contests[g.Pred]
	missing := false
	for _, h := range g.Hashes {
		if c == nil || !c.has(h) {
			missing = true
			break
		}
	}
	var delta [][]byte
	if c != nil {
		for _, e := range c.entries {
			have := false
			for _, h := range g.Hashes {
				if h == e.digest {
					have = true
					break
				}
			}
			if !have {
				delta = append(delta, e.raw)
			}
		}
	}
	pull := missing && (g.Pred == en.agreed || en.recentForLocked(g.Pred) != nil || c != nil)
	var pullPayload []byte
	if pull {
		pullPayload = en.digestPayloadLocked(g.Pred)
	}
	en.mu.Unlock()

	if len(delta) > 0 {
		d := wire.GossipDelta{Object: en.cfg.Object, Pred: g.Pred, Commits: delta}
		_ = en.send(context.Background(), from, wire.KindGossipDelta, d.Marshal())
	}
	if pull {
		_ = en.send(context.Background(), from, wire.KindGossipDigest, pullPayload)
	}
}

// handleGossipDelta merges gossiped commits after standalone verification,
// then re-spreads and resolves every contest that actually grew.
func (en *Engine) handleGossipDelta(from string, payload []byte) {
	g, err := wire.UnmarshalGossipDelta(payload)
	if err != nil {
		_ = en.logEvidence("", "malformed-gossip", nrlog.DirReceived, payload)
		return
	}
	if g.Object != en.cfg.Object {
		return
	}
	en.mu.Lock()
	member := en.bootstrapped && slices.Contains(en.members, from)
	en.mu.Unlock()
	if !member {
		return
	}
	var grew []tuple.State
	for _, raw := range g.Commits {
		prop, canonRaw, err := en.verifyGossipCommit(raw)
		if err != nil {
			_ = en.logEvidence("", "gossip-commit-rejected", nrlog.DirReceived, []byte(err.Error()))
			continue
		}
		pred := prop.Pred
		en.mu.Lock()
		added := en.contestAddLocked(pred, canonRaw, prop)
		en.mu.Unlock()
		if !added {
			continue
		}
		_ = en.logEvidenceSeq(prop.RunID, prop.Proposed.Seq, "gossip-commit", nrlog.DirReceived, canonRaw)
		seenPred := false
		for _, p := range grew {
			if p == pred {
				seenPred = true
				break
			}
		}
		if !seenPred {
			grew = append(grew, pred)
		}
	}
	for _, pred := range grew {
		en.afterContest(pred)
	}
}

// resolveContest applies the deterministic tie-break for pred: over the
// current evidence set the entry with the smallest canonical-encoding hash
// wins, everywhere. The switch acts only inside the contested window —
// agreed is still the contested base (install the winner) or one of the
// losing contestants (roll the loser back through the suffix cascade, then
// install). Once agreed has moved past every contestant the contest
// retires: a committed successor settles the branch it extends, and any
// party whose tie-break pick was outrun reconciles through state-transfer
// catch-up (strictly higher sequence wins there).
func (en *Engine) resolveContest(pred tuple.State) {
	en.mu.Lock()
	c := en.contests[pred]
	if c == nil || len(c.entries) == 0 || !en.bootstrapped {
		en.mu.Unlock()
		return
	}
	if en.agreed.Seq > c.maxSeq() {
		delete(en.contests, pred)
		for i, p := range en.contestQ {
			if p == pred {
				en.contestQ = append(en.contestQ[:i], en.contestQ[i+1:]...)
				break
			}
		}
		en.mu.Unlock()
		return
	}
	win := c.entries[0]
	winTup := win.prop.Proposed
	if en.agreed == winTup {
		en.mu.Unlock()
		return // already on the winner
	}
	onBase := en.agreed == pred
	onLoser := !onBase && c.entryFor(en.agreed) != nil
	if !onBase && !onLoser {
		// Unrelated agreed state (e.g. a third rival not yet in the set, or
		// a contest about a future base): hold, let gossip fill the set.
		en.mu.Unlock()
		return
	}

	// Rebuild the winner's state: from our own answered run when we
	// validated it, else from the recorded pre-contest base.
	rr := en.respondedByTupleLocked(winTup)
	var st *pagestate.Paged
	if rr != nil && rr.newState != nil {
		st = rr.newState
	} else {
		var base *pagestate.Paged
		if onBase {
			base = en.agreedState
		} else if rec := en.recentForLocked(pred); rec != nil {
			base = rec.base
		}
		if base == nil {
			en.mu.Unlock()
			return // cannot rebuild here; catch-up will reconcile
		}
		switch win.prop.Mode {
		case wire.ModeOverwrite:
			st = base.Rebase(win.prop.NewState)
		case wire.ModeUpdate:
			s, err := en.cfg.Validator.ApplyUpdate(base, win.prop.Update)
			if err != nil {
				en.mu.Unlock()
				return
			}
			st = s
		default:
			en.mu.Unlock()
			return
		}
		if !winTup.MatchesRoot(st.Root()) {
			en.mu.Unlock()
			return // evidence does not reproduce its tuple; refuse
		}
	}

	prev := agreedView{en.agreed, en.agreedState}
	basePred := prev.state
	if onLoser {
		if rec := en.recentForLocked(pred); rec != nil {
			basePred = rec.base
		}
	}
	// A full snapshot re-anchors the checkpoint chain: the branch switch
	// invalidates any delta chained through the losing tuple.
	fx := en.stageLocked(&agreedView{winTup, st}, nil)
	if fx.err == nil {
		const won = "contested predecessor: won deterministic tie-break"
		en.seen.ObserveRecovered(winTup)
		en.recordInstallLocked(pred, winTup, win.raw, basePred)
		if rr != nil {
			delete(en.responded, rr.runID)
			delete(en.propWaited, rr.runID)
			fx.run, fx.seq, fx.verdict = rr.runID, winTup.Seq, "valid=true "+won
		}
		en.completeLocked(win.prop.RunID, Outcome{RunID: win.prop.RunID, Valid: true, Diagnostic: won})
		if onLoser {
			fx.rolled, fx.wakeProps = en.cascadeLocked(prev.t, "contested commit lost deterministic tie-break")
			fx.rollback = prev
		}
		fx.wakeProps = append(fx.wakeProps, takeWaitingLocked(en.waitProps, winTup)...)
		fx.wakeCommits = takeWaitingLocked(en.waitCommits, winTup)
		en.syncCurrentLocked()
		fx.install = fx.publish
	}
	en.mu.Unlock()

	if fx.err == nil {
		fx.err = en.logEvidenceStaged(win.prop.RunID, winTup.Seq, "tie-break-install", nrlog.DirLocal,
			[]byte(fmt.Sprintf("winner %v over contested predecessor %v (was %v)", winTup, pred, prev.t)))
	}
	// As for a recipient commit: a failure externalized nothing and has no
	// caller to tell.
	_ = en.apply(context.Background(), fx)
}

// --- proposer lease -------------------------------------------------------

// contentionWindow is how long after an observed contention event the
// lease keeps engaging.
func (en *Engine) contentionWindow() time.Duration {
	if en.cfg.RetryInterval > 0 {
		return 16 * en.cfg.RetryInterval
	}
	return 2 * time.Second
}

// leaseWait bounds how long a non-holder defers to the lease holder.
func (en *Engine) leaseWait() time.Duration {
	if en.cfg.RetryInterval > 0 {
		return 4 * en.cfg.RetryInterval
	}
	return 500 * time.Millisecond
}

// markContentionLocked records that proposer contention was just observed.
func (en *Engine) markContentionLocked() {
	en.contendedAt = en.cfg.Clock.Now()
}

// contendedLocked reports whether contention was observed recently.
func (en *Engine) contendedLocked() bool {
	if en.contendedAt.IsZero() {
		return false
	}
	return !en.cfg.Clock.Now().After(en.contendedAt.Add(en.contentionWindow()))
}

// leaseHolderLocked names the preferred proposer for the next slot: a
// deterministic rotation over the join-ordered membership, identical at
// every party.
func (en *Engine) leaseHolderLocked() string {
	if len(en.members) == 0 {
		return ""
	}
	return en.members[int((en.agreed.Seq+1)%uint64(len(en.members)))]
}

// leaseDefer is the proposer-lease fast path: when contention has been
// observed recently and another member holds the lease for the next slot,
// wait briefly until the rotation reaches this party (each commit advances
// the slot, waking the next holder in turn) before proposing. Purely a
// liveness optimization — the wait is bounded and the tie-break stays
// correct without it — and a no-op for single-writer workloads, where
// contention is never marked. A commit landing while this party defers is
// contention the lease absorbed and re-marks it: the lease lapses one
// contention window after proposers stop overlapping.
func (en *Engine) leaseDefer(ctx context.Context) {
	en.mu.Lock()
	if !en.bootstrapped || len(en.members) < 2 || !en.contendedLocked() {
		en.mu.Unlock()
		return
	}
	if en.leaseHolderLocked() == en.cfg.Ident.ID() {
		en.mu.Unlock()
		return
	}
	deferredAt := en.agreed.Seq
	en.mu.Unlock()

	waitCtx, cancel := clock.WithTimeout(ctx, en.cfg.Clock, en.leaseWait())
	defer cancel()
	for {
		en.mu.Lock()
		if en.agreed.Seq != deferredAt {
			en.markContentionLocked()
		}
		ch := en.changed
		holder := en.leaseHolderLocked() == en.cfg.Ident.ID()
		contended := en.contendedLocked()
		en.mu.Unlock()
		if holder || !contended {
			return // our slot came up (or contention drained); propose now
		}
		select {
		case <-waitCtx.Done():
			return // bounded: never let the lease block progress
		case <-ch:
			// The chain advanced; the rotation may have reached us. Loop and
			// re-derive the holder for the new slot — returning early here
			// would just re-create the (N-1)-way collision one slot later.
		}
	}
}

// rivalProposeLocked marks contention when a proposal extends a predecessor
// this party has already answered for a different proposer (two proposers
// racing for one slot), when this party's OWN in-flight run extends it (the
// head-on collision: both sides structurally reject each other, and without
// the lease arming here two parties re-colliding every round livelock), or
// when that predecessor is already contested.
func (en *Engine) rivalProposeLocked(pred tuple.State, proposer string) {
	if en.contests[pred] != nil {
		en.markContentionLocked()
		return
	}
	for _, run := range en.pipeline {
		if run.predTuple == pred && run.propose.Proposer != proposer {
			en.markContentionLocked()
			return
		}
	}
	for _, rr := range en.responded {
		if rr.pred == pred && rr.proposer != proposer {
			en.markContentionLocked()
			return
		}
	}
}
