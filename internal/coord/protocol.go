package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/store"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// Propose runs the state coordination protocol for a full-state overwrite
// and blocks until the group's decision is established or ctx expires. On a
// valid outcome the new state is installed and checkpointed at this party
// (recipients install on receiving commit); on veto the proposer rolls back
// to the agreed state. A ctx expiry leaves the run active (blocked) with
// evidence in the log, as the paper specifies: termination is not guaranteed
// when parties misbehave.
func (en *Engine) Propose(ctx context.Context, newState []byte) (Outcome, error) {
	h, err := en.proposeAsync(ctx, wire.ModeOverwrite, newState, nil)
	if err != nil {
		return Outcome{}, err
	}
	return h.Await(ctx)
}

// ProposeUpdate runs the §4.3.1 variant: the update (delta) travels instead
// of the full state; recipients apply it to their agreed state and verify
// the result against the proposed tuple's state hash.
func (en *Engine) ProposeUpdate(ctx context.Context, update []byte) (Outcome, error) {
	h, err := en.proposeAsync(ctx, wire.ModeUpdate, nil, update)
	if err != nil {
		return Outcome{}, err
	}
	return h.Await(ctx)
}

// ProposeAsync initiates a coordination run without waiting for its outcome,
// returning a handle whose Await collects it. Up to Window runs may be in
// flight at once; each successor chains to its predecessor's proposed state,
// and outcomes resolve strictly in initiation order (a veto of run k rolls
// back the whole suffix k+1, k+2, ...). Every handle must eventually be
// Awaited — finalization happens on the awaiting goroutine.
func (en *Engine) ProposeAsync(ctx context.Context, newState []byte) (*RunHandle, error) {
	return en.proposeAsync(ctx, wire.ModeOverwrite, newState, nil)
}

// ProposeUpdateAsync is ProposeAsync for the update (delta) variant.
func (en *Engine) ProposeUpdateAsync(ctx context.Context, update []byte) (*RunHandle, error) {
	return en.proposeAsync(ctx, wire.ModeUpdate, nil, update)
}

// RunHandle identifies an initiated coordination run awaiting its outcome.
type RunHandle struct {
	en  *Engine
	run *proposerRun
}

// RunID returns the run's identifier.
func (h *RunHandle) RunID() string { return h.run.runID }

// Await blocks until the run's outcome is established (in pipeline order)
// or ctx expires; on expiry the run stays registered as blocked evidence and
// a later Await may still collect it.
func (h *RunHandle) Await(ctx context.Context) (Outcome, error) {
	return h.en.awaitRun(ctx, h.run)
}

func (en *Engine) proposeAsync(ctx context.Context, mode wire.Mode, newState, update []byte) (*RunHandle, error) {
	en.mu.Lock()
	pipelined := len(en.pipeline) > 0
	en.mu.Unlock()
	if !pipelined {
		// A recipient that has answered a run whose commit has not yet
		// arrived knows its agreed state may be about to change: proposing
		// now would be rejected under invariant 1 at the other parties.
		// Wait briefly for the pending commit(s) to resolve — the honest-path
		// race between a commit broadcast and the next proposal. The wait is
		// bounded: a run blocked by a misbehaving proposer (§4.4) must not
		// stop honest parties from further coordination, so after the grace
		// period we proceed — a stale proposal is merely vetoed and retried.
		// Mid-pipeline the wait is skipped: the burst already owns the chain.
		// The deadline runs on the configured clock, so a simulated clock
		// controls the grace window.
		graceCtx, cancel := clock.WithTimeout(ctx, en.cfg.Clock, en.pendingGrace())
		_ = en.waitNoPending(graceCtx)
		cancel()
	}
	en.leaseDefer(ctx)

	en.mu.Lock()
	if !en.bootstrapped {
		en.mu.Unlock()
		return nil, ErrNotBootstrapd
	}
	if en.frozen {
		en.mu.Unlock()
		return nil, ErrFrozen
	}
	if len(en.pipeline) >= en.windowLocked() {
		en.mu.Unlock()
		return nil, ErrRunInFlight
	}
	var pred *proposerRun
	var predTuple tuple.State
	var baseState *pagestate.Paged
	if tail := en.tailLocked(); tail != nil {
		if tail.forced || tail.aborted {
			// The pipeline is unwinding after a veto/abort; new runs must
			// wait for the rollback to complete and chain from agreed.
			en.mu.Unlock()
			return nil, ErrRunInFlight
		}
		pred, predTuple, baseState = tail, tail.propose.Proposed, tail.newState
	} else {
		if tuple.CheckProposerView(en.current, en.agreed) != nil {
			// current != agreed would mean an unresolved previous run.
			en.mu.Unlock()
			return nil, ErrRunInFlight
		}
		predTuple, baseState = en.agreed, en.currentState
	}

	// The proposed state lives as a copy-on-write paged value: an update
	// clones the base (sharing unchanged pages) and rewrites only the touched
	// ones, and the Merkle root that becomes HashState rebinds in
	// O(delta · log S). An overwrite rebases the caller's flat bytes onto the
	// base: an O(S) comparison that copies and rehashes only changed pages.
	var newPaged *pagestate.Paged
	if mode == wire.ModeUpdate {
		s, err := en.cfg.Validator.ApplyUpdate(baseState, update)
		if err != nil {
			en.mu.Unlock()
			return nil, fmt.Errorf("coord: applying own update: %w", err)
		}
		newPaged = s
	} else {
		newPaged = baseState.Rebase(newState)
	}

	recips := en.recipientsLocked()
	if len(recips) == 0 {
		en.mu.Unlock()
		return nil, ErrSoleMember
	}

	runID, err := en.newRunID()
	if err != nil {
		en.mu.Unlock()
		return nil, err
	}
	rnd, err := crypto.Nonce()
	if err != nil {
		en.mu.Unlock()
		return nil, err
	}
	auth, err := crypto.Nonce()
	if err != nil {
		en.mu.Unlock()
		return nil, err
	}

	seq := predTuple.Seq
	if m := en.seen.MaxSeq(); m > seq {
		seq = m
	}
	seq++

	proposed := tuple.NewStateRoot(seq, rnd, newPaged.Root())
	prop := wire.Propose{
		RunID:      runID,
		Proposer:   en.cfg.Ident.ID(),
		Object:     en.cfg.Object,
		Group:      en.group,
		Agreed:     en.agreed,
		Pred:       predTuple,
		Proposed:   proposed,
		AuthCommit: crypto.Hash(auth),
		Mode:       mode,
	}
	if mode == wire.ModeUpdate {
		prop.Update = update
		prop.UpdateHash = crypto.Hash(update)
	} else {
		prop.NewState = newState
	}
	// The proposal is encoded once, straight into its signed wrapper: the
	// same bytes serve as evidence, run-record raw form, and broadcast
	// payload, and signed.Body is a sub-slice of them. Its body is hashed
	// once too: the signature's digest also binds it in the evidence chain.
	signed, raw, digest := wire.SignEncoded(wire.KindPropose, prop.Encode, en.cfg.Ident, en.cfg.TSA)
	// The run keeps the proposal decoded once from those bytes, so the
	// checkpoint built from it at finalization holds the evidence log's
	// memory, never the buffer the application handed to Propose.
	if prop, err = wire.UnmarshalPropose(signed.Body); err != nil {
		en.mu.Unlock()
		return nil, err
	}

	// The proposer is committed at initiation: current becomes the proposed
	// state and cannot be unilaterally withdrawn (§4.3).
	en.current = proposed
	en.currentState = newPaged
	if err := en.seen.Observe(proposed); err != nil {
		// Fresh randomness makes this unreachable; treat as internal error.
		en.syncCurrentLocked()
		en.mu.Unlock()
		return nil, err
	}

	run := en.enterRunLocked(prop, signed, raw, digest, auth, newPaged, recips, pred)
	en.stats.RunsProposed++
	en.mu.Unlock()

	// Failures past this point deregister the run: a half-initiated run must
	// not wedge the pipeline slot forever (no handle exists to finalize it).
	// Recipients that already received the proposal keep it as evidence of
	// an incomplete run; a retry proposes afresh with a higher sequence.
	fail := func(err error) (*RunHandle, error) {
		en.mu.Lock()
		// A successor may already have chained onto this run; release it as
		// a forced rollback so its Await does not wait forever on us.
		en.forceSuffixLocked(run)
		run.outcome = Outcome{RunID: runID, Valid: false, Diagnostic: "initiation failed"}
		run.outErr = err
		close(run.finalized)
		en.removePipelineLocked(run)
		delete(en.runs, runID)
		en.syncCurrentLocked()
		en.mu.Unlock()
		return nil, err
	}
	// One durability barrier covers both the propose evidence and the run
	// record — with the segment store that is one group-commit fsync for
	// the whole step (and for every other run staged in the same window)
	// instead of one per record. The run record carries no state copy: the
	// signed propose (Raw) already holds the overwrite state or the update
	// bytes, and recovery reconstructs the proposed state from it (delta
	// chains replay through Validator.ApplyUpdate).
	if err := en.logEvidenceStaged(runID, seq, wire.KindPropose.String(), nrlog.DirSent, raw,
		nrlog.Hint{Field: signed.Body, Sum: digest}); err != nil {
		return fail(err)
	}
	if err := en.saveRun(store.RunRecord{
		RunID:    runID,
		Object:   en.cfg.Object,
		Role:     "proposer",
		Proposed: proposed,
		Pred:     predTuple,
		Auth:     auth,
		Raw:      raw,
		Time:     en.cfg.Clock.Now(),
	}); err != nil {
		return fail(err)
	}
	if err := en.barrier(); err != nil {
		return fail(err)
	}

	payload := raw
	for _, r := range recips {
		en.mu.Lock()
		en.stats.ProposesSent++
		en.mu.Unlock()
		if err := en.send(ctx, r, wire.KindPropose, payload); err != nil {
			return fail(fmt.Errorf("coord: sending propose to %s: %w", r, err))
		}
	}
	return &RunHandle{en: en, run: run}, nil
}

// awaitRun blocks until every response arrives (or ctx expires), then
// finalises the run: computes the authenticated group decision, broadcasts
// commit, installs or rolls back.
func (en *Engine) awaitRun(ctx context.Context, run *proposerRun) (Outcome, error) {
	var retryC <-chan time.Time
	var deadline time.Duration
	if en.cfg.RetryInterval > 0 {
		ticker := en.cfg.Clock.NewTicker(en.cfg.RetryInterval)
		defer ticker.Stop()
		retryC = ticker.C
		if en.cfg.Termination == Majority && en.cfg.ResponseDeadline > 0 {
			deadline = en.cfg.ResponseDeadline
			// Every recipient gets at least one retry round to answer
			// before the run may conclude without it.
			if deadline < en.cfg.RetryInterval {
				deadline = en.cfg.RetryInterval
			}
		}
	}
	// §7 response deadline: under majority termination the run concludes
	// with the responses at hand once the deadline — measured from the
	// propose broadcast, NOT from this Await — has passed and a strict
	// majority of the group (proposer included) has answered: an
	// unreachable minority cannot hold the group's coordination hostage.
	// The missing responses stay missing in the commit; recipients verify
	// the majority the same way. Anchoring at the broadcast matters for a
	// pipelined proposer, which often collects an outcome long after the
	// deadline already lapsed and must not wait out a fresh retry round.
	tryConclude := func() {
		if deadline == 0 || en.cfg.Clock.Now().Sub(run.started) < deadline {
			return
		}
		en.mu.Lock()
		if (len(run.responses)+1)*2 > len(en.members) {
			en.closeDoneLocked(run)
		}
		en.mu.Unlock()
	}
	tryConclude()
	for {
		select {
		case <-run.done:
			return en.finishRun(ctx, run)
		case <-retryC:
			// Protocol-level re-broadcast to recipients that have not yet
			// responded: masks a receiver crash between transport ack and
			// processing (its dedup state survived, our message did not).
			en.mu.Lock()
			var missing []string
			for _, r := range run.recips {
				if _, ok := run.responses[r]; !ok {
					missing = append(missing, r)
				}
			}
			aborted := run.aborted
			en.mu.Unlock()
			tryConclude()
			if aborted {
				return en.finishRun(ctx, run)
			}
			payload := run.raw
			for _, r := range missing {
				_ = en.send(context.Background(), r, wire.KindPropose, payload)
			}
		case <-ctx.Done():
			// The run stays registered: evidence that it is active/blocked.
			return Outcome{RunID: run.runID}, fmt.Errorf("%w: run %s: %v", ErrBlocked, run.runID, ctx.Err())
		}
	}
}

// finishRun resolves a run whose response set is complete (or that was
// aborted/force-rolled-back), in pipeline order: the predecessor must
// finalize first, so a veto propagates down the chain before any successor
// commits.
func (en *Engine) finishRun(ctx context.Context, run *proposerRun) (Outcome, error) {
	if run.pred != nil {
		select {
		case <-run.pred.finalized:
		case <-ctx.Done():
			return Outcome{RunID: run.runID}, fmt.Errorf("%w: run %s: %v", ErrBlocked, run.runID, ctx.Err())
		}
	}
	run.final.Do(func() { en.finalizeRun(ctx, run) })
	return run.outcome, run.outErr
}

// finalizeRun computes the outcome from a complete (or TTP-aborted, or
// force-invalidated) response set, broadcasts commit, and installs or rolls
// back locally. Runs exactly once per run, via finishRun.
func (en *Engine) finalizeRun(ctx context.Context, run *proposerRun) {
	defer close(run.finalized)

	en.mu.Lock()
	predInvalid := run.pred != nil && !run.pred.outcome.Valid
	out := Outcome{RunID: run.runID, Decisions: make(map[string]wire.Decision, len(run.parsed))}
	sendCommit := true
	selfContested := false
	switch {
	case run.aborted:
		out.Valid = false
		out.Diagnostic = "TTP-certified abort"
		// Recipients resolve through their own copy of the TTP certificate;
		// an incomplete commit would be rejected anyway.
		sendCommit = false
	case predInvalid || run.forced:
		// The paper's rollback rule generalized to the pipeline: the state
		// this run chained from was rolled back, so the run can never take
		// effect, whatever its own responses say. Recipients derive the same
		// verdict from the predecessor's commit (suffix cascade), so no
		// commit of our own is needed — the response set may be incomplete.
		out.Valid = false
		out.Diagnostic = "predecessor rolled back"
		if run.pred != nil && run.pred.outcome.Diagnostic != "" {
			out.Diagnostic += ": " + run.pred.outcome.Diagnostic
		}
		sendCommit = false
	case run.predTuple != en.agreed:
		// Another party's run committed between this run's initiation and
		// finalization: the base state is gone. The commit is still
		// broadcast — it is the evidence that closes the run — and each
		// recipient resolves it against its own agreed state at arrival
		// time. If this run's own response set is nevertheless vote-valid,
		// two genuine commits are competing for one predecessor: the
		// contest plane (contest.go) merges both into a convergent evidence
		// set and every party installs the same deterministic tie-break
		// winner, so the race no longer splits the group.
		out.Valid = false
		out.Diagnostic = "predecessor state no longer agreed"
		valid, _ := en.tallyLocked(run, out.Decisions)
		selfContested = valid && len(run.responses) == len(run.recips)
	default:
		out.Valid, out.Diagnostic = en.tallyLocked(run, out.Decisions)
	}

	commit := wire.Commit{
		RunID:    run.runID,
		Proposer: en.cfg.Ident.ID(),
		Object:   en.cfg.Object,
		Auth:     run.auth,
		Propose:  run.signed,
	}
	for _, r := range run.recips {
		if s, ok := run.responses[r]; ok {
			commit.Responds = append(commit.Responds, s)
		}
	}
	payload, embedded := commit.MarshalEmbedding()
	hints := proposeHint(embedded, run.signed.Body, run.digest)

	// Stage under en.mu: checkpoints must reach the store in agreed order or
	// a delta would not chain. If even staging fails the run must NOT count
	// as valid: nothing has been externalized, and advancing agreed without
	// a persisted checkpoint would let successors commit on top of a state
	// no recipient ever received the commit for.
	var next *agreedView
	var carried *wire.Propose
	if out.Valid {
		// run.propose was decoded from the signed proposal the evidence log
		// keeps, so the checkpoint never holds the buffer the application
		// handed to Propose.
		next, carried = &agreedView{run.propose.Proposed, run.newState}, &run.propose
	}
	base := en.agreedState
	fx := en.stageLocked(next, carried)
	if fx.err != nil {
		out.Valid = false
		out.Diagnostic = "checkpoint persistence failed: " + fx.err.Error()
		sendCommit = false
	} else if out.Valid {
		en.stats.RunsValid++
		// Remember the install: a late vote-valid rival for the same
		// predecessor reopens this window through the contest plane.
		en.recordInstallLocked(run.predTuple, run.propose.Proposed, payload, base)
	}
	if selfContested && en.contestAddLocked(run.predTuple, payload, run.propose) {
		// Our vote-valid commit lost the predecessor race locally: once the
		// commit (competing evidence) is out, converge the group on one
		// winner for the contested predecessor.
		fx.contest = &run.predTuple
	}
	if !out.Valid {
		en.stats.RunsInvalid++
		// Force the suffix down with this run; successors finalize (in
		// order) to "predecessor rolled back" outcomes.
		en.forceSuffixLocked(run)
		fx.rollback = fx.publish
	}
	en.removePipelineLocked(run)
	delete(en.runs, run.runID)
	en.completeLocked(run.runID, out)
	en.syncCurrentLocked()
	if sendCommit {
		fx.to, fx.commit = run.recips, payload
		en.stats.CommitsSent += uint64(len(run.recips))
	}
	if out.Valid && len(en.pipeline) == 0 {
		// Install into the application only when the burst has drained:
		// mid-pipeline the application object already holds the newer
		// speculative state, and re-installing run k's would regress it.
		// With window 1 the pipeline is always empty here: the paper's
		// per-run install.
		fx.install = fx.publish
	}
	seq := run.propose.Proposed.Seq
	fx.run, fx.seq, fx.verdict = run.runID, seq, fmt.Sprintf("valid=%t %s", out.Valid, out.Diagnostic)
	en.mu.Unlock()

	run.outcome = out
	if fx.err == nil {
		// The executor's one barrier makes the checkpoint and the commit
		// evidence durable together before the commit is externalized.
		fx.err = en.logEvidenceStaged(run.runID, seq, wire.KindCommit.String(), nrlog.DirSent, payload, hints...)
	}
	run.outErr = en.apply(ctx, fx)
	if run.outErr == nil && !out.Valid {
		if run.aborted {
			run.outErr = ErrAborted
		} else {
			run.outErr = fmt.Errorf("%w: %s", ErrVetoed, out.Diagnostic)
		}
	}
}

// HandleEnvelope dispatches an inbound protocol message. Unknown or
// malformed traffic is logged as evidence and otherwise ignored — the
// protocol is fail-safe, never fail-deadly.
func (en *Engine) HandleEnvelope(from string, env wire.Envelope) {
	switch env.Kind {
	case wire.KindPropose:
		en.handlePropose(from, env.Payload)
	case wire.KindRespond:
		en.handleRespond(from, env.Payload)
	case wire.KindCommit:
		en.handleCommit(from, env.Payload)
	case wire.KindAbortCert:
		en.handleAbortCert(from, env.Payload)
	case wire.KindGossipDigest:
		en.handleGossipDigest(from, env.Payload)
	case wire.KindGossipDelta:
		en.handleGossipDelta(from, env.Payload)
	default:
		_ = en.logEvidence("", "unknown-kind", nrlog.DirReceived, env.Marshal())
	}
}

// handlePropose is the recipient side of step 1: verify, check invariants,
// validate via the application upcall, and answer with a signed respond.
// Proposals are validated in chain order: one whose predecessor state has
// not been seen yet is buffered until the predecessor is answered or agreed
// (reliable delivery is unordered), and evaluated on its merits after a
// grace period so a genuinely unknown predecessor still earns its signed
// rejection.
func (en *Engine) handlePropose(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = en.logEvidence("", "malformed-propose", nrlog.DirReceived, payload)
		return
	}
	prop, err := wire.UnmarshalPropose(signed.Body)
	if err != nil {
		_ = en.logEvidence("", "malformed-propose", nrlog.DirReceived, payload)
		return
	}
	pred := prop.Pred

	en.mu.Lock()
	if !en.bootstrapped {
		en.mu.Unlock()
		return
	}
	// Duplicate propose (protocol-level retry): re-send our response or,
	// if already committed, re-send nothing — the proposer has it. If a
	// previous persistence attempt failed, the already-signed response
	// stands but was never sent; retry the persistence and send only once
	// it sticks.
	if rr, ok := en.responded[prop.RunID]; ok {
		if bytes.Equal(rr.propose.Body, signed.Body) {
			if !rr.durable {
				en.mu.Unlock()
				en.persistAndSendResponse(from, prop, rr)
				return
			}
			resp := rr.respond.Marshal()
			en.mu.Unlock()
			_ = en.send(context.Background(), from, wire.KindRespond, resp)
			return
		}
		// A different proposal under the same run id: evidence of
		// misbehaviour; the original response stands.
		en.mu.Unlock()
		_ = en.logEvidence(prop.RunID, "conflicting-propose", nrlog.DirReceived, payload)
		return
	}
	if _, done := en.completed[prop.RunID]; done {
		en.mu.Unlock()
		return
	}
	if en.propBuffered[prop.RunID] {
		// A protocol-level retry of a proposal that is already buffered
		// below, awaiting its predecessor.
		en.mu.Unlock()
		return
	}
	if pred != en.agreed && en.respondedByTupleLocked(pred) == nil &&
		pred.Seq >= en.agreed.Seq && !en.propWaited[prop.RunID] {
		en.propWaited[prop.RunID] = true
		en.propBuffered[prop.RunID] = true
		en.waitProps[pred] = append(en.waitProps[pred], pendingMsg{from: from, payload: payload, runID: prop.RunID})
		en.mu.Unlock()
		runID := prop.RunID
		en.cfg.Clock.AfterFunc(en.pendingGrace(), func() {
			// Expire only this proposal: others buffered on the same tuple
			// keep their own full grace period.
			en.mu.Lock()
			var expired []pendingMsg
			bucket := en.waitProps[pred]
			for i, m := range bucket {
				if m.runID == runID {
					expired = append(expired, m)
					bucket = append(bucket[:i], bucket[i+1:]...)
					break
				}
			}
			if len(bucket) == 0 {
				delete(en.waitProps, pred)
			} else {
				en.waitProps[pred] = bucket
			}
			en.mu.Unlock()
			en.dispatchProps(expired)
		})
		return
	}
	en.mu.Unlock()

	// The body is hashed once: its digest binds the proposal in the
	// evidence entry, is what the signature is checked against, and binds
	// the proposal again in the commit's evidence entry.
	digest := en.memo.digest(signed)
	if err := en.logEvidenceStaged(prop.RunID, prop.Proposed.Seq, wire.KindPropose.String(), nrlog.DirReceived, payload,
		nrlog.Hint{Field: signed.Body, Sum: digest}); err != nil {
		return
	}

	// The integrity assertion over the received content is computed once and
	// serves both the respond message and evaluatePropose's tuple check.
	recv := en.receivedContent(prop)
	recv.digest = digest
	decision, newState := en.evaluatePropose(from, signed, prop, recv)

	en.mu.Lock()
	if _, dup := en.responded[prop.RunID]; dup {
		// A grace-timer dispatch and a protocol-level retry can race into
		// two concurrent evaluations of one proposal; the first inserted
		// response stands and is the only one ever signed and sent —
		// emitting a second (the replayed-tuple evaluation rejects) would
		// hand out conflicting signed decisions for one run.
		en.mu.Unlock()
		return
	}
	if _, done := en.completed[prop.RunID]; done {
		en.mu.Unlock()
		return
	}
	resp := wire.Respond{
		RunID:             prop.RunID,
		Responder:         en.cfg.Ident.ID(),
		Object:            en.cfg.Object,
		Group:             en.group,
		Proposed:          prop.Proposed,
		Current:           en.current,
		ReceivedStateHash: recv.hash,
		Decision:          decision,
	}
	signedResp := wire.Sign(wire.KindRespond, resp.Marshal(), en.cfg.Ident, en.cfg.TSA)
	// Our own signature is valid by construction: seed the memo so this
	// respond's reappearance inside the proposer's commit costs no verify.
	en.memoOwnSigned(signedResp)
	rr := &respondedRun{
		runID:    prop.RunID,
		proposer: prop.Proposer,
		propose:  signed,
		digest:   digest,
		respond:  signedResp,
		decision: decision,
		newState: newState,
		proposed: prop.Proposed,
		pred:     pred,
	}
	en.responded[prop.RunID] = rr
	delete(en.propWaited, prop.RunID)
	en.stats.RespondsSent++
	// The proposal is answered: successors buffered on its tuple can now be
	// validated against the speculative chain, and a commit that overtook
	// the proposal can now be verified.
	wake := takeWaitingLocked(en.waitProps, prop.Proposed)
	early, held := en.early[prop.RunID]
	delete(en.early, prop.RunID)
	en.mu.Unlock()

	en.persistAndSendResponse(from, prop, rr)
	en.dispatchProps(wake)
	if held {
		en.handleCommit(early.from, early.payload)
	}
}

// persistAndSendResponse stages a recipient's run record and response
// evidence, issues one durability barrier, and only then sends the signed
// response (the response is the recipient's commitment — its evidence must
// be on disk first). On failure the answered entry stays, marked
// non-durable: the response is not sent, and the proposer's protocol retry
// re-enters here to try persistence again — the single signed decision is
// preserved, and it never leaves the party without evidence.
func (en *Engine) persistAndSendResponse(from string, prop wire.Propose, rr *respondedRun) {
	respRaw := rr.respond.Marshal()
	if err := en.saveRun(store.RunRecord{
		RunID:    prop.RunID,
		Object:   en.cfg.Object,
		Role:     "recipient",
		Proposed: prop.Proposed,
		Pred:     prop.Pred,
		Time:     en.cfg.Clock.Now(),
	}); err != nil {
		return
	}
	if err := en.logEvidenceStaged(prop.RunID, prop.Proposed.Seq, wire.KindRespond.String(), nrlog.DirSent, respRaw); err != nil {
		return
	}
	if err := en.barrier(); err != nil {
		return
	}
	en.mu.Lock()
	rr.durable = true
	en.mu.Unlock()
	_ = en.send(context.Background(), from, wire.KindRespond, respRaw)
}

// dispatchProps re-enters buffered proposals (outside en.mu).
func (en *Engine) dispatchProps(msgs []pendingMsg) {
	for _, m := range msgs {
		en.mu.Lock()
		delete(en.propBuffered, m.runID)
		en.mu.Unlock()
		en.handlePropose(m.from, m.payload)
	}
}

// dispatchCommits re-enters buffered commits (outside en.mu).
func (en *Engine) dispatchCommits(msgs []pendingMsg) {
	for _, m := range msgs {
		en.handleCommit(m.from, m.payload)
	}
}

// received is what a recipient derives once from an inbound proposal and
// hands from check to check: the signed body's digest, the integrity
// assertion over the carried content, and — for an overwrite — the
// received state already paged onto its base.
type received struct {
	digest [32]byte
	hash   [32]byte
	state  *pagestate.Paged
}

// receivedContent computes the recipient's integrity assertion over the state
// content actually received (§4.3: h(s') in the respond message). In update
// mode it is the flat hash of the update bytes (O(delta)). In overwrite
// mode it is the paged Merkle root of the received state, matching the
// HashState the proposer bound into the tuple: the state is rebased onto
// the base evaluatePropose validates against — the agreed state or the
// answered predecessor's — so only the pages that differ are copied and
// rehashed, and the rebased state is the one a commit installs. Holding no
// such base (a proposal evaluatePropose rejects unless the chain moves
// meanwhile), it roots the flat bytes.
func (en *Engine) receivedContent(prop wire.Propose) received {
	if prop.Mode == wire.ModeUpdate {
		return received{hash: crypto.Hash(prop.Update)}
	}
	en.mu.Lock()
	base := en.agreedState
	if prop.Pred != en.agreed {
		base = nil
		if rr := en.respondedByTupleLocked(prop.Pred); rr != nil {
			base = rr.newState
		}
	}
	en.mu.Unlock()
	if base == nil {
		return received{hash: pagestate.Root(prop.NewState, en.pageSize())}
	}
	st := base.Rebase(prop.NewState)
	return received{hash: st.Root(), state: st}
}

// evaluatePropose performs all §4.2/§4.4 consistency checks plus the
// application-specific validation, returning the decision and, for
// acceptable proposals, the state a commit would install. For a pipelined
// successor the checks run against the speculative chain: the predecessor
// must be the agreed state or a pending answered proposal, and the
// application validates against the state that predecessor would install.
// recv carries the body digest the signature is checked against and the
// integrity hash of the received content (receivedContent), so neither the
// body nor an overwrite's state is hashed twice.
func (en *Engine) evaluatePropose(from string, signed wire.Signed, prop wire.Propose, recv received) (wire.Decision, *pagestate.Paged) {
	if err := en.verifySignedDigest(signed, recv.digest); err != nil {
		return wire.Rejected(fmt.Sprintf("signature verification failed: %v", err)), nil
	}
	if signed.Signer() != prop.Proposer || from != prop.Proposer {
		return wire.Rejected("proposer identity mismatch between envelope, signature and proposal"), nil
	}
	if prop.Object != en.cfg.Object {
		return wire.Rejected("proposal for foreign object"), nil
	}
	pred := prop.Pred

	en.mu.Lock()
	defer en.mu.Unlock()

	if !slices.Contains(en.members, prop.Proposer) {
		return wire.Rejected("proposer is not a group member"), nil
	}
	if en.frozen {
		return wire.Rejected("membership change in progress"), nil
	}
	if prop.Group != en.group {
		// Inconsistent group identifiers lead to invalidation (§4.2).
		return wire.Rejected("inconsistent group identifier"), nil
	}
	if prop.Agreed.Seq > pred.Seq {
		return wire.Rejected("proposal's agreed tuple is ahead of its predecessor"), nil
	}
	// A second proposer extending a predecessor this party already answered
	// for someone else is the earliest contention signal: arm the proposer
	// lease before any commit race can even start.
	en.rivalProposeLocked(pred, prop.Proposer)
	var base *pagestate.Paged
	if pred == en.agreed {
		// Invariant 1 in its original form: our current state is the agreed
		// state, which is exactly the state the proposer builds on.
		if err := tuple.CheckRecipientView(en.current, en.agreed, pred); err != nil {
			return wire.Rejected(err.Error()), nil
		}
		base = en.currentState
	} else if rr := en.respondedByTupleLocked(pred); rr != nil {
		// Invariant 1 generalized to the pipeline: the proposal extends a
		// pending proposal we have answered, so we validate against the
		// state that predecessor would install. The final verdict still
		// hinges on the predecessor committing — a rollback cascades down.
		if rr.newState == nil {
			return wire.Rejected("predecessor proposal was structurally rejected"), nil
		}
		base = rr.newState
	} else {
		return wire.Rejected(fmt.Sprintf("unknown predecessor state tuple %v", pred)), nil
	}
	if err := tuple.CheckOrdering(prop.Proposed, pred, en.seen.MaxSeq()); err != nil {
		return wire.Rejected(err.Error()), nil
	}
	if err := en.seen.Observe(prop.Proposed); err != nil {
		// Invariant 4: replayed tuple.
		return wire.Rejected(err.Error()), nil
	}
	// Null state transition is detectable and rejected (§4.4).
	if prop.Proposed.HashState == pred.HashState {
		return wire.Rejected("null state transition"), nil
	}

	// The candidate state is retained even on an application-level veto:
	// under majority termination (§7) a vetoing minority member still
	// installs the state the group agreed on. Structural failures return
	// nil — they invalidate the run globally, whatever the application
	// decided.
	switch prop.Mode {
	case wire.ModeOverwrite:
		if !prop.Proposed.MatchesRoot(recv.hash) {
			return wire.Rejected("proposed state does not match its tuple hash"), nil
		}
		newState := recv.state
		if newState == nil {
			newState = base.Rebase(prop.NewState)
		}
		return en.cfg.Validator.ValidateState(prop.Proposer, base, prop.NewState), newState
	case wire.ModeUpdate:
		if crypto.Hash(prop.Update) != prop.UpdateHash {
			return wire.Rejected("update does not match its hash"), nil
		}
		// Validation comes before the apply so that a flat application
		// materialises base once for both calls (see Validator).
		decision := en.cfg.Validator.ValidateUpdate(prop.Proposer, base, prop.Update)
		applied, err := en.cfg.Validator.ApplyUpdate(base, prop.Update)
		if err != nil {
			return wire.Rejected(fmt.Sprintf("update not applicable: %v", err)), nil
		}
		if !prop.Proposed.MatchesRoot(applied.Root()) {
			// §4.3.1: recipients verify that applying the agreed update
			// yields a consistent new state — with paged replicas the check
			// is a root comparison, not a full-state rehash.
			return wire.Rejected("applied update does not yield the proposed state"), nil
		}
		return decision, applied
	default:
		return wire.Rejected("unknown coordination mode"), nil
	}
}

// handleRespond is the proposer side of step 2.
func (en *Engine) handleRespond(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = en.logEvidence("", "malformed-respond", nrlog.DirReceived, payload)
		return
	}
	resp, err := wire.UnmarshalRespond(signed.Body)
	if err != nil {
		_ = en.logEvidence("", "malformed-respond", nrlog.DirReceived, payload)
		return
	}

	en.mu.Lock()
	run, ok := en.runs[resp.RunID]
	if !ok {
		en.mu.Unlock()
		// Late or duplicate response after completion: benign.
		return
	}
	if _, dup := run.responses[resp.Responder]; dup {
		en.mu.Unlock()
		return
	}
	en.mu.Unlock()

	// Inbound evidence is staged, not fsynced inline: nothing leaves this
	// party between here and the finalize barrier that covers it, and a
	// crash in between merely re-receives the response (proposer retry /
	// recovery re-broadcast re-earns it).
	if err := en.logEvidenceStaged(resp.RunID, resp.Proposed.Seq, wire.KindRespond.String(), nrlog.DirReceived, payload); err != nil {
		return
	}
	if err := en.verifySigned(signed); err != nil {
		// Unverifiable responses cannot contribute to a decision; keep the
		// evidence and wait for a genuine response (retransmission).
		_ = en.logEvidence(resp.RunID, "unverifiable-respond", nrlog.DirLocal, []byte(err.Error()))
		return
	}
	if signed.Signer() != resp.Responder || from != resp.Responder {
		_ = en.logEvidence(resp.RunID, "respond-identity-mismatch", nrlog.DirLocal, []byte(from))
		return
	}

	en.mu.Lock()
	defer en.mu.Unlock()
	run, ok = en.runs[resp.RunID]
	if !ok {
		return
	}
	if !slices.Contains(run.recips, resp.Responder) {
		return
	}
	if resp.Proposed != run.propose.Proposed {
		// Response to something we did not propose: inconsistent, keep as
		// evidence; it does not fill the responder's slot.
		_, _ = en.cfg.Log.Append(resp.RunID, en.cfg.Object, "respond-tuple-mismatch", en.cfg.Ident.ID(), nrlog.DirLocal, payload)
		return
	}
	if _, dup := run.responses[resp.Responder]; dup {
		return
	}
	run.responses[resp.Responder] = signed
	run.parsed[resp.Responder] = resp
	if len(run.responses) == len(run.recips) {
		en.closeDoneLocked(run)
	}
}

// recipientRollback records a run rolled back at a recipient by the suffix
// cascade, for post-lock cleanup (store deletion, verdict evidence).
type recipientRollback struct {
	runID string
	seq   uint64
	diag  string
}

// cascadeLocked rolls back every pending answered run chained (transitively)
// to the dead tuple t: their predecessor can never become agreed, so they
// resolve as invalid at this party exactly as they do at the proposer
// (suffix rollback). Returns the rolled-back runs for post-lock cleanup and
// any proposals buffered on the dead tuples, which must be re-dispatched to
// earn their rejections.
func (en *Engine) cascadeLocked(t tuple.State, diag string) (rolled []recipientRollback, wake []pendingMsg) {
	reason := "predecessor rolled back: " + diag
	queue := []tuple.State{t}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		wake = append(wake, takeWaitingLocked(en.waitProps, cur)...)
		// Buffered successor commits resolve here, not via re-dispatch.
		delete(en.waitCommits, cur)
		for id, next := range en.responded {
			if next.pred != cur {
				continue
			}
			delete(en.responded, id)
			delete(en.propWaited, id)
			en.completeLocked(id, Outcome{RunID: id, Valid: false, Diagnostic: reason})
			rolled = append(rolled, recipientRollback{runID: id, seq: next.proposed.Seq, diag: reason})
			queue = append(queue, next.proposed)
		}
	}
	return rolled, wake
}

// finishRollbacks performs the out-of-lock half of a suffix cascade.
func (en *Engine) finishRollbacks(rolled []recipientRollback) {
	for _, r := range rolled {
		_ = en.cfg.Store.DeleteRun(r.runID)
		_ = en.logEvidenceSeq(r.runID, r.seq, "verdict", nrlog.DirLocal, []byte("valid=false "+r.diag))
	}
}

// handleCommit is the recipient side of step 3: verify the authenticator and
// the aggregated evidence, compute the group's decision independently, and
// install or discard. Commits resolve in chain order: a commit whose
// predecessor is still pending waits for the predecessor's own commit, and
// an invalid outcome cascades down the chain (suffix rollback).
func (en *Engine) handleCommit(from string, payload []byte) {
	commit, err := wire.UnmarshalCommit(payload)
	if err != nil {
		_ = en.logEvidence("", "malformed-commit", nrlog.DirReceived, payload)
		return
	}

	en.mu.Lock()
	if _, done := en.completed[commit.RunID]; done {
		en.mu.Unlock()
		return // idempotent
	}
	rr, responded := en.responded[commit.RunID]
	if !responded {
		// The commit may have overtaken its proposal: keep a copy to
		// re-dispatch once the proposal is answered. Until then it is
		// refused below, as a commit this party never answered.
		for id := range en.early {
			if len(en.early) < earlyCap {
				break
			}
			delete(en.early, id)
		}
		en.early[commit.RunID] = pendingMsg{from: from, payload: payload, runID: commit.RunID}
	}
	if responded && rr.pred != en.agreed {
		if en.respondedByTupleLocked(rr.pred) != nil {
			// The predecessor is answered but unresolved: hold this commit
			// until the predecessor's commit lands (reliable delivery is
			// unordered). Resolution — install, rollback or abort — drains
			// the buffer. Replayed copies (an adversary can re-wrap a
			// captured commit under fresh transport ids) do not stack.
			for _, m := range en.waitCommits[rr.pred] {
				if m.runID == commit.RunID {
					en.mu.Unlock()
					return
				}
			}
			en.waitCommits[rr.pred] = append(en.waitCommits[rr.pred], pendingMsg{from: from, payload: payload, runID: commit.RunID})
			en.mu.Unlock()
			return
		}
		// The predecessor is neither agreed nor pending: it can never
		// become agreed. Fall through to the verified path below — its
		// evidence checks run first, then the predecessor re-check
		// downgrades even a vote-valid commit to a rollback, so an
		// unverified payload never drives the resolution.
	}
	en.mu.Unlock()

	var seq uint64
	var hints []nrlog.Hint
	if responded {
		seq = rr.proposed.Seq
		hints = proposeHint(commit.Propose.Body, rr.propose.Body, rr.digest)
	}
	if err := en.logEvidenceStaged(commit.RunID, seq, wire.KindCommit.String(), nrlog.DirReceived, payload, hints...); err != nil {
		return
	}

	verdict, diag := en.verifyCommit(from, commit, rr, responded)
	if verdict == commitValid && rr.newState == nil {
		// We judged the proposal structurally inconsistent, so a valid
		// outcome cannot be genuine; never install a state we cannot check.
		verdict, diag = commitInvalidSilent, "valid commit for structurally rejected proposal"
	}
	if verdict == commitInvalidSilent {
		// Forged or inconsistent commit: evidence kept, no state change, and
		// the run stays active — a correct proposer's genuine commit can
		// still arrive. A commit this party never answered (or structurally
		// rejected) can nevertheless carry a vote-valid verdict another
		// majority produced: hand it to the contest plane, which re-verifies
		// it standalone and, if genuine, converges the group on one winner.
		_ = en.logEvidence(commit.RunID, "commit-rejected", nrlog.DirLocal, []byte(diag))
		en.noteContestedCommit(payload)
		return
	}

	en.mu.Lock()
	if _, done := en.completed[commit.RunID]; done {
		en.mu.Unlock()
		return // a cascade raced us while verifying
	}
	if _, still := en.responded[commit.RunID]; !still {
		en.mu.Unlock()
		return
	}
	contested := false
	if verdict == commitValid && rr.pred != en.agreed {
		// The chain moved underneath us while verifying: never install a
		// state whose predecessor is not our agreed state. The refused
		// commit is still vote-valid competing evidence — the contest plane
		// resolves the race deterministically below, outside the lock.
		verdict, diag = commitInvalid, "predecessor state no longer agreed"
		contested = true
	}
	out := Outcome{RunID: commit.RunID, Valid: verdict == commitValid, Diagnostic: diag,
		Decisions: decisionsOf(commit)}
	var next *agreedView
	var prop wire.Propose
	var carried *wire.Propose
	if verdict == commitValid {
		// The embedded proposal equals the answered one (verifyCommit); the
		// answered one is decoded, so the checkpoint keeps the propose
		// frame's bytes rather than the commit's copy of them.
		prop, _ = wire.UnmarshalPropose(rr.propose.Body)
		carried = &prop
		// Remember the install (with the pre-install base): a late
		// vote-valid rival for the same predecessor reopens this window
		// through the contest plane.
		en.recordInstallLocked(rr.pred, prop.Proposed, payload, en.agreedState)
		next = &agreedView{prop.Proposed, rr.newState}
	}
	// Update-mode commits persist only the update (delta checkpoint).
	fx := en.stageLocked(next, carried)
	delete(en.responded, commit.RunID)
	delete(en.propWaited, commit.RunID)
	en.completeLocked(commit.RunID, out)
	if verdict == commitValid {
		en.stats.RunsCommitted++
		en.syncCurrentLocked()
		fx.install = fx.publish
		// A staging or barrier failure skips only the install: the buffered
		// successors drained here must still be re-dispatched, since a
		// commit is sent only once.
		fx.wakeProps = takeWaitingLocked(en.waitProps, prop.Proposed)
		fx.wakeCommits = takeWaitingLocked(en.waitCommits, prop.Proposed)
	} else {
		fx.rolled, fx.wakeProps = en.cascadeLocked(rr.proposed, out.Diagnostic)
	}
	if contested {
		fx.contested = payload
	}
	fx.run, fx.seq, fx.verdict = commit.RunID, seq, fmt.Sprintf("valid=%t %s", out.Valid, out.Diagnostic)
	en.mu.Unlock()
	// A failure here externalized nothing and has no caller to tell: the
	// plane is fail-stop, and the staged tuple stays unpublished.
	_ = en.apply(context.Background(), fx)
}

type commitVerdict uint8

const (
	commitValid commitVerdict = iota
	commitInvalid
	commitInvalidSilent // forged/inconsistent: ignore, keep evidence
)

// proposeHint is the evidence hint for the proposal body a commit embeds:
// the digest d this party took of the propose body it signed or answered,
// handed over only when the embedded bytes equal that body, and bound to
// the embedded bytes' own memory.
func proposeHint(embedded, body []byte, d [32]byte) []nrlog.Hint {
	if !bytes.Equal(embedded, body) {
		return nil
	}
	return []nrlog.Hint{{Field: embedded, Sum: d}}
}

// verifyCommit re-derives the group decision from the commit's evidence.
// Any party can compute the decision over the authenticator and the
// concatenated signed responses (§4.3).
func (en *Engine) verifyCommit(from string, commit wire.Commit, rr *respondedRun, responded bool) (commitVerdict, string) {
	if !responded {
		// A complete commit must contain our own signed response; if we
		// never responded it cannot be genuine (§4.4).
		return commitInvalidSilent, "commit for a run this party never answered"
	}
	if from != rr.proposer || commit.Proposer != rr.proposer {
		return commitInvalidSilent, "commit not from the run's proposer"
	}
	if !bytes.Equal(commit.Propose.Body, rr.propose.Body) {
		// Selective sending of different proposals is revealed here (§4.4).
		return commitInvalidSilent, "commit embeds a different proposal than was answered"
	}
	prop, err := wire.UnmarshalPropose(commit.Propose.Body)
	if err != nil {
		return commitInvalidSilent, "embedded proposal malformed"
	}
	if crypto.Hash(commit.Auth) != prop.AuthCommit {
		// Only the proposer can produce the authenticator preimage.
		return commitInvalidSilent, "authenticator does not match commitment"
	}

	en.mu.Lock()
	members := append([]string(nil), en.members...)
	en.mu.Unlock()

	seen, valid, diag, err := en.tallyResponds(commit, prop, members)
	if err != nil {
		return commitInvalidSilent, err.Error()
	}
	// Completeness: one response per recipient, and this party's own
	// response unmodified. Under the §7 majority extension a commit
	// legitimately omits stragglers — including this party, if its answer
	// came after the proposer's deadline — so both checks relax to the
	// vote, which still demands a strict verified majority. A *tampered*
	// response can never reach here in either mode: every embedded
	// response already passed signature verification.
	if en.cfg.Termination != Majority {
		if m := missingResponder(members, prop.Proposer, seen); m != "" {
			return commitInvalidSilent, fmt.Sprintf("commit missing response from %s", m)
		}
		if _, ok := commitContains(commit.Responds, rr.respond); !ok {
			return commitInvalidSilent, "commit misrepresents this party's response"
		}
	}
	if valid {
		return commitValid, diag
	}
	return commitInvalid, diag
}

// tallyResponds verifies a commit's embedded responds for prop — each must
// pass signature verification (responds verified at receipt, and this
// party's own, hit the memo), be signed by its responder, belong to this
// run, and come once from a non-proposer member — and applies the vote. It
// returns the responders seen, the verdict and its diagnostic.
func (en *Engine) tallyResponds(commit wire.Commit, prop wire.Propose, members []string) (map[string]bool, bool, string, error) {
	seen := make(map[string]bool, len(commit.Responds))
	accepts := 1 // proposer
	consistent := true
	var diag string
	for _, s := range commit.Responds {
		if err := en.verifySigned(s); err != nil {
			return nil, false, "", fmt.Errorf("embedded response fails verification: %v", err)
		}
		resp, err := wire.UnmarshalRespond(s.Body)
		switch {
		case err != nil:
			return nil, false, "", errors.New("embedded response malformed")
		case resp.Responder != s.Signer():
			return nil, false, "", errors.New("embedded response signer mismatch")
		case resp.RunID != commit.RunID || resp.Proposed != prop.Proposed:
			return nil, false, "", errors.New("embedded response belongs to another run")
		case seen[resp.Responder]:
			return nil, false, "", errors.New("duplicate responder in commit")
		case !slices.Contains(members, resp.Responder) || resp.Responder == prop.Proposer:
			return nil, false, "", errors.New("response from non-recipient")
		}
		seen[resp.Responder] = true
		if resp.Decision.Accept {
			accepts++
		} else if diag == "" {
			diag = fmt.Sprintf("vetoed by %s: %s", resp.Responder, resp.Decision.Diagnostic)
		}
		if resp.ReceivedStateHash != assertedHash(prop) {
			consistent = false
			diag = fmt.Sprintf("%s asserts state integrity failure", resp.Responder)
		}
	}
	return seen, en.voteValid(consistent, accepts, len(members)), diag, nil
}

// tallyLocked applies the vote to a proposer run's collected responses,
// recording each responder's decision in decisions.
func (en *Engine) tallyLocked(run *proposerRun, decisions map[string]wire.Decision) (bool, string) {
	accepts := 1 // proposer is committed to acceptance by definition
	consistent := true
	var diag string
	for responder, resp := range run.parsed {
		decisions[responder] = resp.Decision
		if resp.Decision.Accept {
			accepts++
		} else if diag == "" {
			diag = fmt.Sprintf("vetoed by %s: %s", responder, resp.Decision.Diagnostic)
		}
		if resp.ReceivedStateHash != assertedHash(run.propose) {
			consistent = false
			diag = fmt.Sprintf("%s asserts state integrity failure", responder)
		}
		if resp.Group != run.propose.Group {
			consistent = false
			diag = fmt.Sprintf("%s holds inconsistent group identifier", responder)
		}
	}
	return en.voteValid(consistent, accepts, len(en.members)), diag
}

// voteValid is the termination policy: every member accepts, or under
// Majority a strict majority of the group (proposer included) does.
// Consistency failures invalidate unconditionally.
func (en *Engine) voteValid(consistent bool, accepts, members int) bool {
	if en.cfg.Termination == Majority {
		return consistent && accepts*2 > members
	}
	return consistent && accepts == members
}

// assertedHash is the integrity hash a respond must assert for prop (§4.3:
// h(s'), or the update's hash in the §4.3.1 variant).
func assertedHash(prop wire.Propose) [32]byte {
	if prop.Mode == wire.ModeUpdate {
		return prop.UpdateHash
	}
	return prop.Proposed.HashState
}

// missingResponder names a member other than proposer absent from seen.
func missingResponder(members []string, proposer string, seen map[string]bool) string {
	for _, m := range members {
		if m != proposer && !seen[m] {
			return m
		}
	}
	return ""
}

//b2b:unverified byte-equality membership probe only: want's fields are compared, never trusted; every embedded respond is verified in verifyCommit before use
func commitContains(responds []wire.Signed, want wire.Signed) (wire.Signed, bool) {
	for _, s := range responds {
		if bytes.Equal(s.Body, want.Body) && bytes.Equal(s.Sig.Sig, want.Sig.Sig) {
			return s, true
		}
	}
	return wire.Signed{}, false
}

func decisionsOf(commit wire.Commit) map[string]wire.Decision {
	out := make(map[string]wire.Decision, len(commit.Responds))
	for _, s := range commit.Responds {
		if resp, err := wire.UnmarshalRespond(s.Body); err == nil {
			out[resp.Responder] = resp.Decision
		}
	}
	return out
}

// handleAbortCert applies a TTP-certified abort (§7 extension): if a trusted
// TTP certifies that a run is aborted, both proposer and recipients resolve
// the blocked run as invalid — and, in a pipeline, every run chained to it
// rolls back with it.
func (en *Engine) handleAbortCert(from string, payload []byte) {
	signed, err := wire.UnmarshalSigned(payload)
	if err != nil {
		_ = en.logEvidence("", "malformed-abort-cert", nrlog.DirReceived, payload)
		return
	}
	cert, err := wire.UnmarshalAbortCert(signed.Body)
	if err != nil {
		_ = en.logEvidence("", "malformed-abort-cert", nrlog.DirReceived, payload)
		return
	}
	if en.cfg.TTP == "" || signed.Signer() != en.cfg.TTP || cert.TTP != en.cfg.TTP {
		_ = en.logEvidence(cert.RunID, "abort-cert-untrusted", nrlog.DirReceived, payload)
		return
	}
	if err := en.verifySigned(signed); err != nil {
		_ = en.logEvidence(cert.RunID, "abort-cert-unverifiable", nrlog.DirReceived, payload)
		return
	}
	if !cert.Aborted {
		return // certified decisions are delivered as ordinary commits
	}
	_ = en.logEvidence(cert.RunID, wire.KindAbortCert.String(), nrlog.DirReceived, payload)

	en.mu.Lock()
	if run, ok := en.runs[cert.RunID]; ok {
		// Proposer side: resolve the blocked run as aborted; successors are
		// forced down when the run finalizes.
		run.aborted = true
		en.closeDoneLocked(run)
		en.mu.Unlock()
		return
	}
	if rr, ok := en.responded[cert.RunID]; ok {
		// Recipient side: clear the active run; replica stays at agreed.
		// Pending runs chained to it roll back too.
		delete(en.responded, cert.RunID)
		delete(en.propWaited, cert.RunID)
		en.completeLocked(cert.RunID, Outcome{RunID: cert.RunID, Valid: false, Diagnostic: "TTP-certified abort"})
		rolled, wake := en.cascadeLocked(rr.proposed, "TTP-certified abort")
		en.mu.Unlock()
		_ = en.cfg.Store.DeleteRun(cert.RunID)
		en.finishRollbacks(rolled)
		en.dispatchProps(wake)
		return
	}
	en.mu.Unlock()
}

// BlockedEvidence returns, for a run this party holds open as a recipient,
// the signed propose/respond pair demonstrating that the run is active —
// the material a party would take to extra-protocol dispute resolution.
func (en *Engine) BlockedEvidence(runID string) ([]wire.Signed, error) {
	en.mu.Lock()
	defer en.mu.Unlock()
	rr, ok := en.responded[runID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRun, runID)
	}
	return []wire.Signed{rr.propose, rr.respond}, nil
}

// Outcome returns the recorded outcome of a completed run.
func (en *Engine) Outcome(runID string) (Outcome, bool) {
	en.mu.Lock()
	defer en.mu.Unlock()
	out, ok := en.completed[runID]
	return out, ok
}

// pendingGrace bounds how long a proposer waits for in-flight commits of
// runs it has answered before proposing anyway, and how long a recipient
// buffers a proposal whose predecessor has not arrived yet.
func (en *Engine) pendingGrace() time.Duration {
	if en.cfg.RetryInterval > 0 {
		return 8 * en.cfg.RetryInterval
	}
	return time.Second
}

// waitNoPending blocks until this party holds no answered-but-uncommitted
// runs and every staged agreed tuple is published (installed), or ctx
// expires.
func (en *Engine) waitNoPending(ctx context.Context) error {
	for {
		// Grab the change channel before reading state: a transition that
		// lands between the read and the select has already closed this
		// channel, so the wakeup cannot be missed.
		en.mu.Lock()
		ch := en.changed
		n := len(en.responded)
		settled := n == 0 && en.published.t == en.agreed
		en.mu.Unlock()
		if settled {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %d uncommitted runs pending or an agreed state not yet installed: %v", ErrBlocked, n, ctx.Err())
		case <-ch:
		}
	}
}

// WaitQuiescent blocks until this party holds no answered-but-uncommitted
// runs and every decided change is installed in the application and
// published (or discarded), or ctx expires. Applications call this (via the
// controller's Settle) before acting on the replica when another party has
// just coordinated a change. The install upcall must not wait on it: the
// publication it waits for follows that upcall.
func (en *Engine) WaitQuiescent(ctx context.Context) error {
	return en.waitNoPending(ctx)
}

// RecoverPendingRuns resumes coordination runs interrupted by a crash
// (§4.2: nodes eventually recover and resume participation in a protocol
// run). Proposer-side runs are re-entered, in pipeline order, with their
// original signed proposals and authenticators and re-broadcast; any suffix
// whose predecessor never became agreed — it chains from a state decided
// without us, or from a run that was itself dropped — is rolled back and
// deleted. Recipient-side records are dropped: the proposer's protocol-level
// retries re-deliver the proposal and the recipient re-validates. Call after
// Restore, before new proposals.
func (en *Engine) RecoverPendingRuns(ctx context.Context) ([]Outcome, error) {
	records, err := en.cfg.Store.PendingRuns()
	if err != nil {
		return nil, err
	}
	type pendingRec struct {
		rec    store.RunRecord
		signed wire.Signed
		prop   wire.Propose
	}
	var recs []pendingRec
	for _, rec := range records {
		if rec.Object != en.cfg.Object {
			continue
		}
		if rec.Role != "proposer" {
			_ = en.cfg.Store.DeleteRun(rec.RunID)
			continue
		}
		signed, err := wire.UnmarshalSigned(rec.Raw)
		if err != nil {
			_ = en.cfg.Store.DeleteRun(rec.RunID)
			continue
		}
		prop, err := wire.UnmarshalPropose(signed.Body)
		if err != nil {
			_ = en.cfg.Store.DeleteRun(rec.RunID)
			continue
		}
		recs = append(recs, pendingRec{rec: rec, signed: signed, prop: prop})
	}
	sort.SliceStable(recs, func(i, j int) bool {
		return recs[i].prop.Proposed.Seq < recs[j].prop.Proposed.Seq
	})

	en.mu.Lock()
	if !en.bootstrapped {
		en.mu.Unlock()
		return nil, ErrNotBootstrapd
	}
	recipients := en.recipientsLocked()
	expected := en.agreed
	prevState := en.agreedState
	var prev *proposerRun
	var chain []*proposerRun
	var dropped []pendingRec
	for _, r := range recs {
		pred := r.prop.Pred
		if len(recipients) == 0 || r.prop.Proposed.Seq <= en.agreed.Seq || pred != expected {
			// Suffix rollback on recovery: the run's base state is not (or
			// no longer) this party's agreed state — it was decided without
			// us, or its own predecessor was just dropped.
			dropped = append(dropped, r)
			continue
		}
		// Reconstruct the proposed state from the signed propose: run
		// records persist no state copy. Overwrite runs carry it verbatim;
		// update runs replay the delta on the predecessor's state (the
		// recovered agreed state, or the previous recovered run's state).
		// The tuple's state hash authenticates the result either way, so a
		// record whose state cannot be faithfully rebuilt is dropped like
		// any other orphan.
		var newState *pagestate.Paged
		switch r.prop.Mode {
		case wire.ModeOverwrite:
			newState = prevState.Rebase(r.prop.NewState)
		case wire.ModeUpdate:
			s, err := en.cfg.Validator.ApplyUpdate(prevState, r.prop.Update)
			if err != nil {
				dropped = append(dropped, r)
				continue
			}
			newState = s
		default:
			dropped = append(dropped, r)
			continue
		}
		if !r.prop.Proposed.MatchesRoot(newState.Root()) {
			dropped = append(dropped, r)
			continue
		}
		en.seen.ObserveRecovered(r.prop.Proposed)
		// The §7 deadline restarts post-crash: started is now.
		run := en.enterRunLocked(r.prop, r.signed, append([]byte(nil), r.rec.Raw...), crypto.Hash(r.signed.Body),
			append([]byte(nil), r.rec.Auth...), newState, recipients, prev)
		chain = append(chain, run)
		prev = run
		expected = r.prop.Proposed
		prevState = newState
	}
	// Re-enter the proposer's commitment: current is the pipeline tail.
	en.syncCurrentLocked()
	en.mu.Unlock()

	for _, r := range dropped {
		_ = en.cfg.Store.DeleteRun(r.rec.RunID)
		_ = en.logEvidenceSeq(r.rec.RunID, r.prop.Proposed.Seq, "recovery-rollback", nrlog.DirLocal, r.rec.Raw)
	}
	for _, run := range chain {
		payload := run.raw
		for _, r := range run.recips {
			_ = en.send(ctx, r, wire.KindPropose, payload)
		}
	}
	var outs []Outcome
	for _, run := range chain {
		out, err := en.awaitRun(ctx, run)
		outs = append(outs, out)
		if err != nil && !errors.Is(err, ErrVetoed) && !errors.Is(err, ErrAborted) {
			return outs, err
		}
	}
	return outs, nil
}
