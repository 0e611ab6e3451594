package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"b2b/internal/coord"
	"b2b/internal/core"
	"b2b/internal/faults"
	"b2b/internal/lab"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

// Config parameterises a scenario run.
type Config struct {
	// Dir is the storage root (every party gets a durability plane under
	// it). Required: the disk-usage invariant needs real storage.
	Dir string
	// Timeout bounds the whole run including the quiesce-and-heal end
	// phase (default 90s).
	Timeout time.Duration
	// Logf, when set, receives progress lines (soak reporting).
	Logf func(format string, args ...any)
}

// Report summarises what a scenario actually exercised. The invariant
// checker decides pass/fail; the report is for soak logs and calibration
// assertions.
type Report struct {
	Scenario      Scenario
	ValidRuns     int
	InvalidRuns   int
	SkippedSteps  int
	Attacks       int
	Crashes       int
	Restarts      int
	Evictions     int
	SkippedFaults int
	SiblingRuns   int // valid runs on co-resident sibling objects
	// OfflineWindows counts fired FaultOffline windows; Drained is the total
	// number of mailbox deposits delivered by reconnect drains (the windows'
	// own drains plus the end-phase sweeps).
	OfflineWindows int
	Drained        int
	FinalSeq       uint64
}

// relayHostID names the dedicated relay mailbox party of relay scenarios.
// It is deliberately outside the PartyID namespace: the host is not a group
// member and never sees plaintext.
const relayHostID = "relayhub"

// relayMailboxBytes caps each relay mailbox's bytes in relay scenarios; the
// invariant-7 disk budget is derived from it.
const relayMailboxBytes = 1 << 20

// Run executes one scenario and checks the global invariants. Any returned
// error carries the scenario seed, so a failing soak run is reproducible
// from the error message alone.
func Run(ctx context.Context, cfg Config, s Scenario) (*Report, error) {
	rep, err := run(ctx, cfg, s)
	if err != nil {
		return rep, fmt.Errorf("scenario seed=%#016x: %w", s.Seed, err)
	}
	return rep, nil
}

func run(ctx context.Context, cfg Config, s Scenario) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("invalid scenario: %w", err)
	}
	if cfg.Dir == "" {
		return nil, errors.New("scenario: Config.Dir is required")
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 90 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	ids := make([]string, s.Parties)
	diskFaults := make(map[string]lab.DiskSchedule, s.Parties)
	for i := range ids {
		ids[i] = PartyID(i)
		diskFaults[ids[i]] = lab.DiskSchedule{} // clean handle, armed mid-run
	}
	term := coord.Unanimous
	if s.Majority {
		term = coord.Majority
	}
	opts := lab.Options{
		Seed:              s.Seed,
		Termination:       term,
		StorageDir:        cfg.Dir,
		DeterministicKeys: true,
		PageSize:          s.PageSize,
		SnapshotEvery:     s.SnapshotEvery,
		Durability: store.Policy{
			SegmentSize:   s.SegmentSize,
			CompactAt:     s.CompactAt,
			SnapshotEvery: s.SnapshotEvery,
			RetainEntries: s.RetainEntries,
		},
		Transfer: xfer.Policy{
			ChunkSize:      s.ChunkSize,
			RequestTimeout: 250 * time.Millisecond,
		},
		DiskFaults: diskFaults,
	}
	worldIDs := ids
	if s.Relay {
		// The offline band: a mailbox host outside the group, the §7
		// response deadline so the majority keeps committing past the
		// sleeper, and a per-peer pending quota so the sleeper's backlog
		// spills to the relay instead of growing the senders' journals.
		worldIDs = append(append([]string{}, ids...), relayHostID)
		opts.Relay = relayHostID
		opts.RelayMaxMsgs = s.RelayMaxMsgs
		opts.RelayMaxBytes = relayMailboxBytes
		opts.ResponseDeadline = 250 * time.Millisecond
		opts.Quotas = core.QuotaPolicy{MaxPendingToPeer: 8}
	}
	w, err := lab.NewWorld(opts, worldIDs...)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	rt, err := buildRuntime(s, ids)
	if err != nil {
		return nil, err
	}
	ex := &executor{
		cfg:       cfg,
		s:         s,
		w:         w,
		rt:        rt,
		ids:       ids,
		rep:       &Report{Scenario: s},
		routers:   make(map[string]*router, len(ids)),
		crashed:   make(map[string]bool),
		evicted:   make(map[string]bool),
		restarted: make(map[string]bool),
		offline:   make(map[string]bool),
		expected:  rt.initial,
		samplers:  make(map[string]chan struct{}, len(ids)),
	}
	defer ex.abort()
	for _, id := range ids {
		ex.attachRouter(w.Party(id))
	}
	if err := w.Bind(scenarioObject, rt.mkV, nil); err != nil {
		return ex.rep, err
	}
	if err := w.Bootstrap(scenarioObject, rt.initial, ids); err != nil {
		return ex.rep, err
	}
	// Sibling tenants: separate accept-all groups on the same endpoints so
	// the scenario's faults also land on a multi-object dispatch path.
	for i := 1; i < s.objectCount(); i++ {
		sib := siblingObject(i)
		if err := w.Bind(sib, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
			return ex.rep, err
		}
		if err := w.Bootstrap(sib, []byte(fmt.Sprintf("%s-v0", sib)), ids); err != nil {
			return ex.rep, err
		}
		ex.siblings = append(ex.siblings, sib)
	}
	if s.Workload == PatchStorm {
		w.Party(ex.writer()).Engine(scenarioObject).SetWindow(s.Window)
	}
	for _, id := range ids {
		ex.watch(id)
	}

	if err := ex.drive(ctx); err != nil {
		return ex.rep, err
	}
	if err := ex.endPhase(ctx); err != nil {
		return ex.rep, err
	}
	if err := ex.checkInvariants(); err != nil {
		return ex.rep, err
	}
	if err := ex.takeAsyncErr(); err != nil {
		return ex.rep, err
	}
	return ex.rep, nil
}

// executor holds one scenario run's mutable state. The drive loop is
// single-threaded; fault reverts run on timers and touch only
// mutex-protected state.
type executor struct {
	cfg      Config
	s        Scenario
	w        *lab.World
	rt       *runtime
	ids      []string
	rep      *Report
	siblings []string // co-resident tenant objects (Objects > 1)

	mu        sync.Mutex
	outcomes  []recordedRun
	lastValid string // runID of the last valid run (replay-attack source)
	crashed   map[string]bool
	evicted   map[string]bool
	restarted map[string]bool
	offline   map[string]bool
	asyncErr  error
	heavy     bool
	aborted   bool

	wg       sync.WaitGroup // outstanding fault-revert timers
	expected []byte
	handles  []*coord.RunHandle
	routers  map[string]*router

	samplers map[string]chan struct{} // per party: stops its invariant-8 sampler
	swg      sync.WaitGroup           // running samplers
}

type recordedRun struct {
	out      coord.Outcome
	proposer string
}

// router is an executor-owned composition point for a party's interceptor:
// fault injections add and remove drop rules without clobbering each other
// (SetOnSend replaces wholesale; restarts re-attach the router).
type router struct {
	mu    sync.Mutex
	next  int
	rules map[int]func(to string, payload []byte) (faults.Action, []byte)
}

func (r *router) onSend(to string, payload []byte) (faults.Action, []byte) {
	r.mu.Lock()
	rules := make([]func(string, []byte) (faults.Action, []byte), 0, len(r.rules))
	for _, f := range r.rules {
		rules = append(rules, f)
	}
	r.mu.Unlock()
	for _, f := range rules {
		if act, p := f(to, payload); act != faults.Pass {
			return act, p
		}
	}
	return faults.Pass, nil
}

func (r *router) add(f func(string, []byte) (faults.Action, []byte)) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.rules[r.next] = f
	return r.next
}

func (r *router) remove(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.rules, id)
}

func (ex *executor) attachRouter(p *lab.Party) {
	ex.mu.Lock()
	r := ex.routers[p.ID]
	if r == nil {
		r = &router{rules: make(map[int]func(string, []byte) (faults.Action, []byte))}
		ex.routers[p.ID] = r
	}
	ex.mu.Unlock()
	p.Interceptor.SetOnSend(r.onSend)
}

func (ex *executor) writer() string { return ex.rt.actors[0] }

func (ex *executor) logf(format string, args ...any) {
	if ex.cfg.Logf != nil {
		ex.cfg.Logf(format, args...)
	}
}

// abort marks the run finished so fault-revert timers that fire after Run
// returns (failed scenarios do not wait for them) become no-ops instead of
// touching a closed world, and stops the invariant-8 samplers.
func (ex *executor) abort() {
	ex.mu.Lock()
	ex.aborted = true
	for id, stop := range ex.samplers {
		close(stop)
		delete(ex.samplers, id)
	}
	ex.mu.Unlock()
	ex.swg.Wait()
}

// watch samples invariant 8 at a party's current incarnation on every
// engine transition (coord.Engine.Watch), replacing any earlier sampler.
// Call it once the party's application holds the agreed state: after
// bootstrap, a restart's resync, a rejoin.
func (ex *executor) watch(id string) {
	ex.unwatch(id)
	p := ex.w.Party(id)
	en := p.Engine(scenarioObject)
	stop := make(chan struct{})
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.aborted {
		return
	}
	ex.samplers[id] = stop
	ex.swg.Add(1)
	go func() {
		defer ex.swg.Done()
		for {
			ch := en.Watch()
			if err := ex.checkPublication(p, en); err != nil {
				ex.fail(err)
				return
			}
			select {
			case <-ch:
			case <-stop:
				return
			}
		}
	}()
}

// unwatch stops a party's sampler before its engine is torn down or reset.
func (ex *executor) unwatch(id string) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if stop := ex.samplers[id]; stop != nil {
		close(stop)
		delete(ex.samplers, id)
	}
}

// resynced records that id's application was re-aligned with the agreed
// state outside the protocol (restart, rejoin) and resumes sampling it.
func (ex *executor) resynced(id string) {
	t, agreed := ex.w.Party(id).Engine(scenarioObject).Agreed()
	ex.rt.resync(id, agreed)
	ex.rt.installed[id].note(t.Seq)
	ex.watch(id)
}

// after schedules a fault revert; endPhase waits for all of them.
func (ex *executor) after(d time.Duration, fn func()) {
	ex.wg.Add(1)
	ex.w.Clk.AfterFunc(d, func() {
		defer ex.wg.Done()
		ex.mu.Lock()
		dead := ex.aborted
		ex.mu.Unlock()
		if !dead {
			fn()
		}
	})
}

func (ex *executor) fail(err error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.asyncErr == nil {
		ex.asyncErr = err
	}
}

func (ex *executor) takeAsyncErr() error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.asyncErr
}

// tryHeavy claims the single heavy-fault slot (structural faults are
// serialized; overlapping ones are skipped and reported, keeping every
// scenario drivable).
func (ex *executor) tryHeavy() bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.heavy {
		ex.rep.SkippedFaults++
		return false
	}
	ex.heavy = true
	return true
}

func (ex *executor) doneHeavy() {
	ex.mu.Lock()
	ex.heavy = false
	ex.mu.Unlock()
}

func (ex *executor) record(out coord.Outcome, proposer string) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.outcomes = append(ex.outcomes, recordedRun{out: out, proposer: proposer})
	if out.Valid {
		ex.lastValid = out.RunID
	}
}

// drive runs the workload script, firing scheduled faults before their step.
func (ex *executor) drive(ctx context.Context) error {
	for i, st := range ex.s.Steps {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("timed out before step %d: %w", i, err)
		}
		for _, f := range ex.s.Faults {
			if f.Step == i {
				ex.applyFault(ctx, f)
			}
		}
		switch ex.s.Workload {
		case PatchStorm:
			if err := ex.drivePatchStep(ctx, i, st); err != nil {
				return err
			}
		case Contention:
			ex.driveContentionStep(ctx, i, st)
		default:
			ex.driveAppStep(ctx, i, st)
		}
		if len(ex.siblings) > 0 && i%2 == 0 {
			ex.driveSiblingStep(ctx, i)
		}
	}
	// Drain the pipeline (patch storm).
	for len(ex.handles) > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("timed out draining pipeline: %w", err)
		}
		ex.collectHandle(ctx)
	}
	return nil
}

// drivePatchStep issues one pipelined update-mode run from the writer.
func (ex *executor) drivePatchStep(ctx context.Context, i int, st Step) error {
	en := ex.w.Party(ex.writer()).Engine(scenarioObject)
	upd := lab.Patch(st.A, patchBody(ex.s.Seed, i, st.B))
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("timed out at step %d: %w", i, err)
		}
		h, err := en.ProposeUpdateAsync(ctx, upd)
		if errors.Is(err, coord.ErrRunInFlight) {
			if len(ex.handles) > 0 {
				ex.collectHandle(ctx)
				continue
			}
			// The window is held by a non-workload run (e.g. an eviction);
			// wait for any engine transition and retry.
			select {
			case <-ctx.Done():
			case <-en.Watch():
			case <-ex.w.Clk.After(100 * time.Millisecond):
			}
			continue
		}
		if err != nil {
			ex.rep.InvalidRuns++
			return nil
		}
		ex.handles = append(ex.handles, h)
		return nil
	}
}

// driveSiblingStep issues one synchronous run on a sibling tenant object,
// rotating through the siblings. Sibling groups terminate unanimously, so
// the step is skipped outright while any party is down — the point is to
// interleave multi-object traffic through healthy dispatch windows, not to
// burn the scenario budget on runs that can only time out.
func (ex *executor) driveSiblingStep(ctx context.Context, i int) {
	ex.mu.Lock()
	busy := len(ex.crashed) > 0 || len(ex.evicted) > 0 || len(ex.offline) > 0
	ex.mu.Unlock()
	if busy {
		ex.rep.SkippedSteps++
		return
	}
	sib := ex.siblings[(i/2)%len(ex.siblings)]
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	out, err := ex.w.Party(ex.writer()).Engine(sib).Propose(sctx, []byte(fmt.Sprintf("%s step %d", sib, i)))
	if err != nil || !out.Valid {
		ex.rep.SkippedSteps++
		return
	}
	ex.rep.SiblingRuns++
}

func (ex *executor) collectHandle(ctx context.Context) {
	h := ex.handles[0]
	ex.handles = ex.handles[1:]
	out, err := h.Await(ctx)
	if err != nil {
		ex.rep.InvalidRuns++
		return
	}
	ex.record(out, ex.writer())
	if out.Valid {
		ex.rep.ValidRuns++
	} else {
		ex.rep.InvalidRuns++
	}
}

// driveAppStep plays one turn of the application script: wait until the
// actor's replica holds the last agreed state, apply the move locally,
// propose the result. Failures skip the step (the invariants, not the
// script, decide scenario health).
func (ex *executor) driveAppStep(ctx context.Context, i int, st Step) {
	actor := ex.rt.actors[i%len(ex.rt.actors)]
	en := ex.w.Party(actor).Engine(scenarioObject)
	// The actor must have installed the previous agreed state before moving
	// on it (turn-taking; WaitQuiescent would deadlock against omitted-commit
	// attacks, which pin responded runs until their abort certificate).
	if err := ex.w.WaitAgreed(scenarioObject, []string{actor}, ex.expected, 10*time.Second); err != nil {
		ex.rep.SkippedSteps++
		return
	}
	state, err := ex.rt.propose(actor, i, st, ex.expected)
	if err != nil {
		ex.rep.SkippedSteps++
		return
	}
	pctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	out, err := en.Propose(pctx, state)
	cancel()
	if err != nil {
		_, agreed := en.Agreed()
		ex.rt.resync(actor, agreed)
		ex.rep.InvalidRuns++
		return
	}
	ex.record(out, actor)
	if out.Valid {
		ex.expected = state
		ex.rep.ValidRuns++
	} else {
		_, agreed := en.Agreed()
		ex.rt.resync(actor, agreed)
		ex.rep.InvalidRuns++
	}
}

// driveContentionStep fires one proposal from EVERY party at once — the
// dueling-proposer shape. Losing a tie-break or a vote is expected here;
// what must hold is the new convergence invariant: the group ends on one
// branch and made aggregate forward progress.
func (ex *executor) driveContentionStep(ctx context.Context, i int, st Step) {
	type result struct {
		out   coord.Outcome
		err   error
		actor string
	}
	results := make(chan result, len(ex.rt.actors))
	for k, actor := range ex.rt.actors {
		go func(k int, actor string) {
			en := ex.w.Party(actor).Engine(scenarioObject)
			pctx, cancel := context.WithTimeout(ctx, 15*time.Second)
			defer cancel()
			out, err := en.Propose(pctx, contentionState(ex.s.Seed, i, k, st.A))
			results <- result{out: out, err: err, actor: actor}
		}(k, actor)
	}
	for range ex.rt.actors {
		r := <-results
		if r.err != nil {
			// A contended proposal that could not even complete its run
			// (e.g. rejected structurally mid-race) is a skipped step, not a
			// scenario failure.
			ex.rep.SkippedSteps++
			continue
		}
		ex.record(r.out, r.actor)
		if r.out.Valid {
			ex.rep.ValidRuns++
		} else {
			ex.rep.InvalidRuns++
		}
	}
}

// others returns every party id except the named one.
func (ex *executor) others(id string) []string {
	out := make([]string, 0, len(ex.ids)-1)
	for _, o := range ex.ids {
		if o != id {
			out = append(out, o)
		}
	}
	return out
}

// applyFault fires one scheduled injection.
func (ex *executor) applyFault(ctx context.Context, f Fault) {
	switch f.Kind {
	case FaultLinkFlaky:
		ex.logf("fault: flaky links drop=%.3f dup=%.3f delay=%s for %s", f.DropProb, f.DupProb, f.MaxDelay, f.Duration)
		ex.w.Net.SetDefaultFaults(transport.Faults{DropProb: f.DropProb, DupProb: f.DupProb, MaxDelay: f.MaxDelay})
		ex.after(f.Duration, func() {
			ex.w.Net.SetDefaultFaults(transport.Faults{})
		})

	case FaultPartition:
		if !ex.tryHeavy() {
			return
		}
		victim := PartyID(f.Party)
		ex.logf("fault: partition %s for %s", victim, f.Duration)
		ex.w.Net.Partition(ex.others(victim), []string{victim})
		ex.after(f.Duration, func() {
			ex.w.Net.Heal()
			ex.doneHeavy()
		})

	case FaultCrash:
		if !ex.tryHeavy() {
			return
		}
		victim := PartyID(f.Party)
		ex.logf("fault: crash %s for %s", victim, f.Duration)
		ex.crash(victim)
		ex.after(f.Duration, func() {
			defer ex.doneHeavy()
			ex.restart(victim)
		})

	case FaultDisk:
		if !ex.tryHeavy() {
			return
		}
		victim := PartyID(f.Party)
		d := ex.w.Party(victim).Disk
		if d == nil {
			ex.doneHeavy()
			ex.rep.SkippedFaults++
			return
		}
		ex.logf("fault: disk fault at %s (torn=%t), restart after %s", victim, f.Torn, f.Duration)
		writes, syncs := d.Counters()
		if f.Torn {
			d.TornWriteAt(writes + 2)
		} else {
			d.FailSyncAt(syncs + 1)
		}
		ex.after(f.Duration, func() {
			defer ex.doneHeavy()
			// Fail-stop: a dead durability plane takes the process with it.
			ex.crash(victim)
			ex.restart(victim)
		})

	case FaultEvict:
		if !ex.tryHeavy() {
			return
		}
		victim := PartyID(f.Party)
		ex.logf("fault: evict %s (heal after %s)", victim, f.Duration)
		ex.w.Net.Partition(ex.others(victim), []string{victim})
		ectx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := ex.w.Party(ex.writer()).Manager(scenarioObject).Evict(ectx, victim)
		cancel()
		if err != nil {
			// Could not evict (e.g. pipeline contention): undo and skip.
			ex.w.Net.Heal()
			ex.doneHeavy()
			ex.rep.SkippedFaults++
			return
		}
		ex.mu.Lock()
		ex.evicted[victim] = true
		ex.rep.Evictions++
		ex.mu.Unlock()
		ex.after(f.Duration, func() {
			ex.w.Net.Heal()
			ex.doneHeavy()
		})

	case FaultStaleKill:
		if !ex.tryHeavy() {
			return
		}
		victim := PartyID(f.Party)
		ex.logf("fault: stale-kill %s (commits dropped %s, then mid-transfer death)", victim, f.Duration)
		// Starve the victim of commits so it falls behind while still
		// answering runs.
		type ruleRef struct {
			r  *router
			id int
		}
		var rules []ruleRef
		ex.mu.Lock()
		for id, r := range ex.routers {
			if id == victim {
				continue
			}
			rules = append(rules, ruleRef{r: r, id: r.add(faults.DropEnvelopeKinds(victim, wire.KindCommit))})
		}
		ex.mu.Unlock()
		ex.after(f.Duration, func() {
			defer ex.doneHeavy()
			for _, ref := range rules {
				ref.r.remove(ref.id)
			}
			// The stale victim starts catching up; its plane dies mid-transfer
			// (armed fsync/torn-write fault), then the process crash-restarts
			// and completes recovery from its WAL plus the surviving peers.
			if d := ex.w.Party(victim).Disk; d != nil {
				writes, syncs := d.Counters()
				if f.Torn {
					d.TornWriteAt(writes + 2)
				} else {
					d.FailSyncAt(syncs + 1)
				}
				cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, _ = ex.w.Party(victim).Xfer(scenarioObject).CatchUp(cctx)
				cancel()
			}
			ex.crash(victim)
			ex.restart(victim)
		})

	case FaultAdversary:
		ex.attack(ctx, f)

	case FaultOffline:
		if !ex.tryHeavy() {
			return
		}
		victim := PartyID(f.Party)
		ex.logf("fault: offline %s for %s (traffic spills to the relay)", victim, f.Duration)
		// Offline means cut from everyone, the relay host included: the
		// mailbox fills from the majority side, not from the victim polling.
		ex.w.Net.Partition(append(ex.others(victim), relayHostID), []string{victim})
		ex.mu.Lock()
		ex.offline[victim] = true
		ex.rep.OfflineWindows++
		ex.mu.Unlock()
		ex.after(f.Duration, func() {
			defer ex.doneHeavy()
			// Reconnect with the would-be serving sponsor down: crash one
			// other non-actor (when the group has one to spare) before
			// healing, so the drain and catch-up below can only be served
			// by the survivors.
			sponsor := ""
			ex.mu.Lock()
			for i := ex.s.actorCount(); i < ex.s.Parties; i++ {
				id := PartyID(i)
				if id != victim && !ex.crashed[id] && !ex.evicted[id] {
					sponsor = id
					break
				}
			}
			ex.mu.Unlock()
			if sponsor != "" {
				ex.crash(sponsor)
			}
			ex.w.Net.Heal()
			dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if cl := ex.w.Party(victim).Relay; cl != nil {
				if n, err := cl.Drain(dctx); err == nil {
					ex.mu.Lock()
					ex.rep.Drained += n
					ex.mu.Unlock()
				}
			}
			_, _ = ex.w.Party(victim).Xfer(scenarioObject).CatchUp(dctx)
			ex.mu.Lock()
			delete(ex.offline, victim)
			ex.mu.Unlock()
			if sponsor != "" {
				ex.restart(sponsor)
			}
		})
	}
}

func (ex *executor) crash(id string) {
	ex.unwatch(id)
	ex.w.Crash(id)
	ex.mu.Lock()
	ex.crashed[id] = true
	ex.rep.Crashes++
	ex.mu.Unlock()
}

// restart brings a crashed party back over its WAL: fresh stack, router
// re-attached, application replica resynced, pending runs recovered and
// catch-up attempted. Restart failures fail the scenario.
func (ex *executor) restart(id string) {
	p, err := ex.w.Restart(id)
	if err != nil {
		ex.fail(fmt.Errorf("restart %s: %w", id, err))
		return
	}
	ex.mu.Lock()
	delete(ex.crashed, id)
	ex.restarted[id] = true
	ex.rep.Restarts++
	ex.mu.Unlock()
	ex.attachRouter(p)
	ex.resynced(id)
	rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _ = p.Engine(scenarioObject).RecoverPendingRuns(rctx)
	_, _ = p.Xfer(scenarioObject).CatchUp(rctx)
	for _, sib := range ex.siblings {
		_, _ = p.Engine(sib).RecoverPendingRuns(rctx)
		_, _ = p.Xfer(sib).CatchUp(rctx)
	}
}

// attack fires one adversary injection from the attacker at EVERY other
// party — the invariant checker then verifies every recipient's final state
// and evidence chain, not just a chosen victim's.
func (ex *executor) attack(ctx context.Context, f Fault) {
	attacker := PartyID(f.Party)
	ex.mu.Lock()
	down := ex.crashed[attacker] || ex.evicted[attacker] || ex.offline[attacker]
	ex.mu.Unlock()
	if down {
		ex.rep.SkippedFaults++
		return
	}
	p := ex.w.Party(attacker)
	adv := ex.w.Adversary(attacker, scenarioObject)
	en := p.Engine(scenarioObject)
	g, _ := en.Group()
	agreed, _ := en.Agreed()
	spec := faults.ProposalSpec{Group: g, Agreed: agreed, Seq: agreed.Seq + 1}
	recipients := ex.others(attacker)
	marker := []byte(adversaryMarker)
	actx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	ex.logf("fault: adversary %s attack=%s", attacker, f.Attack)

	var err error
	switch f.Attack {
	case AttackReplayRun:
		signed, ok := ex.capturedPropose(p)
		if !ok {
			ex.rep.SkippedFaults++
			return
		}
		err = adv.ReplayRun(actx, signed, recipients)
	case AttackStaleSequence:
		stale := spec
		stale.Seq = agreed.Seq // does not exceed the agreed sequence
		_, err = adv.StaleSequence(actx, stale, marker, recipients)
	case AttackWrongGroup:
		_, err = adv.WrongGroup(actx, spec, marker, recipients)
	case AttackForgedCommit:
		for _, victim := range recipients {
			if _, e := adv.ForgedCommit(actx, spec, marker, victim, ex.others(victim)); e != nil && err == nil {
				err = e
			}
		}
	case AttackMismatchedState:
		_, err = adv.MismatchedState(actx, spec, recipients)
	case AttackOmittedCommit:
		_, err = adv.OmittedCommit(actx, spec, marker, recipients)
	}
	if err != nil {
		// Sending can fail when the world is mid-fault; the attack simply
		// did not land.
		ex.rep.SkippedFaults++
		return
	}
	ex.rep.Attacks++
}

// capturedPropose digs the signed propose of the last valid run out of the
// attacker's own evidence log — a faithful replay of a genuinely observed,
// correctly signed message.
func (ex *executor) capturedPropose(p *lab.Party) (wire.Signed, bool) {
	ex.mu.Lock()
	runID := ex.lastValid
	ex.mu.Unlock()
	if runID == "" {
		return wire.Signed{}, false
	}
	entries, err := p.Log.ByRun(runID)
	if err != nil {
		return wire.Signed{}, false
	}
	for _, e := range entries {
		if e.Kind != wire.KindPropose.String() {
			continue
		}
		if signed, err := wire.UnmarshalSigned(e.Payload); err == nil {
			return signed, true
		}
	}
	return wire.Signed{}, false
}

// endPhase heals every fault, restores every party and drives the world to
// convergence: the quiesce-and-heal half of invariant 1 and the whole of
// invariant 4.
func (ex *executor) endPhase(ctx context.Context) error {
	// Let scheduled reverts finish (restarts, heals, stale-kill recoveries).
	done := make(chan struct{})
	go func() {
		ex.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("fault reverts did not finish: %w", ctx.Err())
	}
	ex.w.Net.Heal()
	ex.w.Net.SetDefaultFaults(transport.Faults{})

	// Restart anything still down (a crash whose revert was skipped).
	ex.mu.Lock()
	var down []string
	for id := range ex.crashed {
		down = append(down, id)
	}
	ex.mu.Unlock()
	for _, id := range down {
		ex.restart(id)
	}

	// Rejoin evicted parties through the connection protocol (the state
	// arrives as a transfer session, never inside the Welcome).
	ex.mu.Lock()
	var out []string
	for id := range ex.evicted {
		out = append(out, id)
	}
	ex.mu.Unlock()
	for _, id := range out {
		p := ex.w.Party(id)
		ex.unwatch(id)
		p.Engine(scenarioObject).Reset()
		jctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		err := p.Manager(scenarioObject).Join(jctx, ex.writer())
		cancel()
		if err != nil {
			return fmt.Errorf("evicted party %s could not rejoin: %w", id, err)
		}
		ex.resynced(id)
		ex.mu.Lock()
		ex.restarted[id] = true
		ex.mu.Unlock()
	}

	// Convergence rounds: event-driven waits interleaved with catch-up
	// nudges for anyone still behind. WaitQuiescent is deliberately not
	// used — omitted-commit attacks pin responded runs at their recipients
	// until an abort certificate, but agreed-state convergence does not
	// depend on those resolving.
	clk := ex.w.Clk
	deadline := clk.Now().Add(30 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d.Add(-2 * time.Second)
	}
	var lastErr error
	converged := false
	for !converged && clk.Now().Before(deadline) {
		if _, err := ex.w.WaitConverged(scenarioObject, ex.ids, 2*time.Second); err == nil {
			converged = true
			break
		} else {
			lastErr = err
		}
		// Silent divergence is unfixable: when every party holds the SAME
		// agreed tuple but the bytes differ, a replica's actual state has
		// drifted from the identity it acknowledged — no amount of
		// catch-up (which compares tuples) can repair it. Fail fast.
		if err := ex.detectSilentDivergence(); err != nil {
			return err
		}
		for _, id := range ex.ids {
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_, _ = ex.w.Party(id).Xfer(scenarioObject).CatchUp(cctx)
			cancel()
		}
	}
	if !converged {
		return fmt.Errorf("invariant 1 (convergence after quiesce+heal) violated: %w", lastErr)
	}
	// Sibling tenants converge too: their groups never change membership,
	// so only parties that crashed mid-run can be behind, and catch-up
	// nudges close that gap.
	for _, sib := range ex.siblings {
		sibDone := false
		for !sibDone && clk.Now().Before(deadline) {
			if _, err := ex.w.WaitConverged(sib, ex.ids, 2*time.Second); err == nil {
				sibDone = true
				break
			} else {
				lastErr = err
			}
			for _, id := range ex.ids {
				cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				_, _ = ex.w.Party(id).Xfer(sib).CatchUp(cctx)
				cancel()
			}
		}
		if !sibDone {
			return fmt.Errorf("invariant 1 (sibling %s convergence after quiesce+heal) violated: %w", sib, lastErr)
		}
	}

	// Relay sweep: straggling retransmissions (backed-off senders, restart
	// recovery) can deposit a few more frames after the offline window's own
	// drain, so every member polls until the hosted mailboxes stay empty —
	// the precondition of invariant 7.
	if ex.s.Relay {
		hub := ex.w.Party(relayHostID).RelayServer
		for clk.Now().Before(deadline) {
			if msgs, _ := hub.TotalParked(); msgs == 0 {
				break
			}
			for _, id := range ex.ids {
				cl := ex.w.Party(id).Relay
				if cl == nil || hub.Depth(id) == 0 {
					continue
				}
				dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				n, err := cl.Drain(dctx)
				cancel()
				if err == nil {
					ex.mu.Lock()
					ex.rep.Drained += n
					ex.mu.Unlock()
				}
			}
			<-clk.After(50 * time.Millisecond)
		}
	}
	return nil
}

// detectSilentDivergence reports an error when all parties agree on the
// state tuple yet hold different bytes — a replica whose in-memory state no
// longer matches the Merkle identity it signed for. Catch-up is driven by
// tuple comparison, so this condition never heals on its own; surfacing it
// immediately turns an eventual convergence timeout into a precise
// diagnosis (and is what the mutation smoke build must trip).
func (ex *executor) detectSilentDivergence() error {
	ref := ex.w.Party(ex.ids[0]).Engine(scenarioObject)
	refTuple, refState := ref.Agreed()
	for _, id := range ex.ids[1:] {
		t, s := ex.w.Party(id).Engine(scenarioObject).Agreed()
		if t != refTuple {
			return nil // genuinely behind: catch-up can still fix this
		}
		if !bytes.Equal(s, refState) {
			return fmt.Errorf(
				"invariant 1 (convergence after quiesce+heal) violated: %s and %s hold the same agreed tuple (seq=%d) but different state bytes — a replica silently diverged from its acknowledged state identity",
				ex.ids[0], id, refTuple.Seq)
		}
	}
	return nil
}
