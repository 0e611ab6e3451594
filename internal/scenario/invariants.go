package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"b2b/internal/coord"
	"b2b/internal/lab"
	"b2b/internal/store"
	"b2b/internal/tuple"
)

// checkInvariants verifies the eight global invariants after the end phase
// has healed and quiesced the world (invariant 8 is also sampled during the
// run). They hold for EVERY generated scenario — the checker knows nothing
// about which faults fired:
//
//  1. Convergence: every live party holds the identical agreed tuple and
//     state (the end phase waited for this; re-asserted here).
//  2. Evidence: every party's non-repudiation chain verifies, and for every
//     valid run the proposer and every decider hold evidence of it.
//  3. Durability bound: no party's plane exceeds the policy-derived disk
//     budget (2x(object + 1 MiB live slack) + CompactAt + a segment).
//  4. Recovery: every restarted or rejoined party converged to the same
//     agreed tuple as the parties that never failed.
//  5. Containment: no adversary-crafted state was ever installed — the
//     marker payload all generated attacks carry appears in no agreed
//     state.
//  6. Contention convergence: the many-writer workload made aggregate
//     forward progress — dueling proposers ending converged on the genesis
//     state would satisfy invariant 1 while the group livelocked.
//  7. Relay bound: the mailbox host's storage stayed within the per-mailbox
//     caps plus durability slack, and after convergence every member's
//     mailbox drained empty — parked traffic neither accumulates without
//     bound nor outlives the member it was parked for.
//  8. Publication (§4.2: a party's agreed tuple names the state its object
//     holds): at every engine transition, each party's published agreed
//     tuple is in its checkpoint chain, and is no newer than the last state
//     its application received through Installed — except at a pipelining
//     proposer, whose object already holds its own speculative successor.
func (ex *executor) checkInvariants() error {
	var errs []error

	// Invariant 1: agreed-state convergence across all parties, for the
	// primary object and every co-resident sibling tenant.
	ref := ex.w.Party(ex.ids[0]).Engine(scenarioObject)
	refTuple, refState := ref.Agreed()
	ex.rep.FinalSeq = refTuple.Seq
	for _, object := range append([]string{scenarioObject}, ex.siblings...) {
		t0, s0 := ex.w.Party(ex.ids[0]).Engine(object).Agreed()
		for _, id := range ex.ids[1:] {
			t, s := ex.w.Party(id).Engine(object).Agreed()
			if t != t0 || !bytes.Equal(s, s0) {
				errs = append(errs, fmt.Errorf(
					"invariant 1 (convergence, %s): %s holds seq=%d (%d bytes), %s holds seq=%d (%d bytes)",
					object, ex.ids[0], t0.Seq, len(s0), id, t.Seq, len(s)))
			}
		}
	}

	// Invariant 2: every evidence chain verifies and covers every valid run
	// at its proposer and every recorded decider (the durability barrier:
	// a decision that externalized implies evidence on disk).
	for _, id := range ex.ids {
		if err := ex.w.Party(id).Log.Verify(); err != nil {
			errs = append(errs, fmt.Errorf("invariant 2 (evidence): %s chain broken: %w", id, err))
		}
	}
	ex.mu.Lock()
	outcomes := append([]recordedRun(nil), ex.outcomes...)
	ex.mu.Unlock()
	for _, rec := range outcomes {
		if !rec.out.Valid {
			continue
		}
		holders := map[string]bool{rec.proposer: true}
		for party := range rec.out.Decisions {
			holders[party] = true
		}
		for _, id := range ex.ids {
			if !holders[id] {
				continue
			}
			entries, err := ex.w.Party(id).Log.ByRun(rec.out.RunID)
			if err != nil {
				errs = append(errs, fmt.Errorf("invariant 2 (evidence): reading %s's log: %w", id, err))
				continue
			}
			if len(entries) == 0 {
				errs = append(errs, fmt.Errorf(
					"invariant 2 (evidence): %s decided run %s but holds no evidence of it", id, rec.out.RunID))
			}
		}
	}

	// Invariant 3: bounded disk usage under the durability policy.
	bound := 2*(int64(ex.s.ObjectSize)+1<<20) + ex.s.CompactAt + int64(ex.s.SegmentSize)
	for _, id := range ex.ids {
		p := ex.w.Party(id)
		if p.Plane == nil {
			continue
		}
		if use := p.Plane.DiskUsage(); use > bound {
			errs = append(errs, fmt.Errorf(
				"invariant 3 (durability bound): %s uses %d bytes on disk, budget %d", id, use, bound))
		}
	}

	// Invariant 4: recovered parties rejoined the agreed tuple.
	ex.mu.Lock()
	var recovered []string
	for id := range ex.restarted {
		recovered = append(recovered, id)
	}
	ex.mu.Unlock()
	for _, id := range recovered {
		t, s := ex.w.Party(id).Engine(scenarioObject).Agreed()
		if t != refTuple || !bytes.Equal(s, refState) {
			errs = append(errs, fmt.Errorf(
				"invariant 4 (recovery): recovered party %s holds seq=%d, the group agreed seq=%d", id, t.Seq, refTuple.Seq))
		}
	}

	// Invariant 5: no adversary injection was ever installed, on any object.
	marker := []byte(adversaryMarker)
	for _, id := range ex.ids {
		for _, object := range append([]string{scenarioObject}, ex.siblings...) {
			if _, s := ex.w.Party(id).Engine(object).Agreed(); bytes.Contains(s, marker) {
				errs = append(errs, fmt.Errorf(
					"invariant 5 (containment): %s installed an adversary-crafted state on %s", id, object))
			}
		}
	}

	// Invariant 6: under contention, convergence alone is not enough — the
	// proposer lease and tie-break must leave room for commits to land, so
	// the final agreed sequence must have advanced and at least one run
	// must have gone vote-valid.
	if ex.s.Workload == Contention {
		if ex.rep.ValidRuns == 0 || refTuple.Seq == 0 {
			errs = append(errs, fmt.Errorf(
				"invariant 6 (contention progress): %d valid runs, final agreed seq=%d — the contested group made no forward progress",
				ex.rep.ValidRuns, refTuple.Seq))
		}
	}

	// Invariant 7: bounded relay storage, mailboxes empty after convergence.
	if ex.s.Relay {
		hub := ex.w.Party(relayHostID).RelayServer
		for _, id := range ex.ids {
			if depth := hub.Depth(id); depth != 0 {
				errs = append(errs, fmt.Errorf(
					"invariant 7 (relay): %s's mailbox still holds %d deposits after convergence", id, depth))
			}
		}
		if msgs, bytes := hub.TotalParked(); ex.s.RelayMaxMsgs > 0 && msgs > len(ex.ids)*ex.s.RelayMaxMsgs {
			errs = append(errs, fmt.Errorf(
				"invariant 7 (relay): %d parked deposits (%d bytes) exceed the %d-mailbox cap of %d each",
				msgs, bytes, len(ex.ids), ex.s.RelayMaxMsgs))
		}
		relayBound := int64(len(ex.ids))*relayMailboxBytes + ex.s.CompactAt + int64(ex.s.SegmentSize)
		if use := hub.DiskUsage(); use > relayBound {
			errs = append(errs, fmt.Errorf(
				"invariant 7 (relay): host uses %d bytes on disk, budget %d", use, relayBound))
		}
	}

	// Invariant 8, sampled throughout the run (executor.watch), once more at
	// rest.
	for _, id := range ex.ids {
		p := ex.w.Party(id)
		if err := ex.checkPublication(p, p.Engine(scenarioObject)); err != nil {
			errs = append(errs, err)
		}
	}

	return errors.Join(errs...)
}

// checkPublication samples invariant 8 at one party. A violating sample is
// re-taken between two reads of the engine's current tuple and counts only
// if the engine was settled — current equal to the published tuple at both
// reads: mid-application the staged tuple legitimately leads the published
// one. A party whose plane has failed (fail-stop) or whose engine was reset
// is not sampled.
func (ex *executor) checkPublication(p *lab.Party, en *coord.Engine) error {
	if _, err := ex.publicationViolation(p, en); err == nil {
		return nil
	}
	c1, _ := en.Current()
	t, err := ex.publicationViolation(p, en)
	c2, _ := en.Current()
	if err == nil || c1 != t || c2 != t || t == (tuple.State{}) || (p.Disk != nil && p.Disk.Crashed()) {
		return nil
	}
	return err
}

func (ex *executor) publicationViolation(p *lab.Party, en *coord.Engine) (tuple.State, error) {
	t := en.AgreedTuple()
	chain, err := p.Store.Chain(scenarioObject)
	installed := ex.rt.installed[p.ID].seq.Load()
	if err != nil {
		return t, nil
	}
	if !slices.ContainsFunc(chain, func(cp store.Checkpoint) bool { return cp.Tuple == t }) {
		return t, fmt.Errorf("invariant 8 (publication): %s published seq %d, which is not in its checkpoint chain", p.ID, t.Seq)
	}
	if t.Seq > installed && en.Window() == 1 {
		return t, fmt.Errorf("invariant 8 (publication): %s published seq %d while its application holds seq %d", p.ID, t.Seq, installed)
	}
	return t, nil
}
