// Package lab assembles complete B2BObjects deployments for tests,
// experiments and examples: a set of participants (full middleware stacks)
// over an in-memory fault-injecting network, with a shared CA and
// time-stamping service. The experiment harness (cmd/b2bbench), the safety
// and liveness suites and the benchmark file all build on it.
package lab

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/core"
	"b2b/internal/crypto"
	"b2b/internal/faults"
	"b2b/internal/group"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/relay"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/tuple"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

// Party is one organisation's full stack in the lab world.
type Party struct {
	ID          string
	Ident       *crypto.Identity
	Verifier    *crypto.Verifier
	Rel         *transport.Reliable
	Interceptor *faults.Interceptor
	Log         nrlog.Log
	Store       store.Store
	Part        *core.Participant
	// Plane is the party's durability plane when the world was built with
	// Options.StorageDir (nil for in-memory storage). SegLog is the
	// plane-backed evidence log (anchor/archive inspection).
	Plane  *store.Plane
	SegLog *nrlog.Segmented
	// Disk is the fault-injecting filesystem under the party's plane when
	// the world was built with an Options.DiskFaults entry for it (or the
	// party was restarted): the handle for scheduling fsync failures and
	// torn writes mid-run. Nil otherwise.
	Disk *faults.DiskFS
	// Relay is the party's relay client when the world was built with
	// Options.Relay naming another party (nil for the host itself and for
	// worlds without a relay). RelayServer is the hosted mailbox service on
	// the Options.Relay party.
	Relay       *relay.Client
	RelayServer *relay.Server
}

// Engine returns the coordination engine for object (panics if unbound:
// lab worlds are test fixtures, misuse is a programming error).
func (p *Party) Engine(object string) *coord.Engine {
	en, err := p.Part.Engine(object)
	if err != nil {
		panic(err)
	}
	return en
}

// Manager returns the membership manager for object.
func (p *Party) Manager(object string) *group.Manager {
	m, err := p.Part.Manager(object)
	if err != nil {
		panic(err)
	}
	return m
}

// Xfer returns the state-transfer manager for object.
func (p *Party) Xfer(object string) *xfer.Manager {
	x, err := p.Part.Xfer(object)
	if err != nil {
		panic(err)
	}
	return x
}

// Options configures world construction.
type Options struct {
	Seed          uint64
	Termination   coord.Termination
	TTP           string
	RetryInterval time.Duration
	// ResponseDeadline enables the §7 deadline under Majority termination:
	// a proposer concludes a run with a strict majority of responses after
	// this long instead of blocking on an unreachable member.
	ResponseDeadline time.Duration
	// Batching enables the reliable layer's throughput path: per-peer frame
	// coalescing and cumulative acks (transport.WithBatching).
	Batching bool
	// BatchWindow overrides the batch flush window (default 200µs in the
	// lab — short enough to keep in-memory latency sane, long enough that
	// a protocol step's ack and reply coalesce).
	BatchWindow time.Duration
	// Start is the origin of the world's simulated clock (zero: 2002-06-23
	// UTC).
	Start time.Time
	// StorageDir, when set, gives every party durable storage under
	// <StorageDir>/<id>: the durability plane, one segment WAL shared by
	// checkpoints, run records and evidence.
	StorageDir string
	// Durability tunes the plane (zero: defaults).
	Durability store.Policy
	// FS injects a filesystem under a party's plane; parties not in the
	// map use the real filesystem. For disk-fault injection prefer
	// DiskFaults, which wraps this (or the real filesystem) in a
	// faults.DiskFS and exposes the handle as Party.Disk.
	FS map[string]store.FS
	// DiskFaults installs a fault-injecting filesystem (faults.DiskFS)
	// under the named parties' durability planes as a first-class knob: the
	// schedule's counters are armed at construction and the handle is
	// exposed as Party.Disk for mid-run injection. A zero DiskSchedule
	// installs a clean handle (faults injectable later). This is the single
	// injection surface shared by hand-written tests and the scenario
	// generator.
	DiskFaults map[string]DiskSchedule
	// DeterministicKeys derives every identity (and the CA/TSA) from Seed,
	// so a world re-created over the same StorageDir can verify signatures
	// and anchors made by its previous incarnation — the crash-recovery
	// harness.
	DeterministicKeys bool
	// SnapshotEvery bounds delta checkpoint chains in the engines (zero:
	// Durability.SnapshotEvery, else the coord default).
	SnapshotEvery int
	// Transfer tunes the state-transfer plane (zero: defaults).
	Transfer xfer.Policy
	// PageSize sets the paged state identity's page granularity for every
	// party (zero: the pagestate default, 4 KiB). The large-object benchmark
	// sets it to the object size to reconstruct the flat-hash baseline.
	PageSize int
	// Quotas applies per-group resource quotas and admission control to
	// every party (zero: uncapped).
	Quotas core.QuotaPolicy
	// Relay names the party hosting the relay mailbox service (store-and-
	// forward for offline members). Every other party gets a relay client:
	// its catch-up drains the mailbox, and traffic over
	// Quotas.MaxPendingToPeer parks there instead of shedding. Prekeys are
	// published to every party at world construction. "" disables the
	// relay plane entirely.
	Relay string
	// RelayMaxMsgs / RelayMaxBytes cap each hosted mailbox (zero: the
	// relay defaults). Oldest deposits are evicted with evidence.
	RelayMaxMsgs  int
	RelayMaxBytes int64
}

// DiskSchedule arms a party's faults.DiskFS at world construction (both
// counters 1-based; zero never fires). The zero schedule installs a clean
// fault-injection handle.
type DiskSchedule struct {
	FailSyncAt  int // n-th fsync (across all files) fails and crashes the FS
	TornWriteAt int // n-th write persists only its first half, then crashes
}

func (s DiskSchedule) arm(d *faults.DiskFS) {
	if s.FailSyncAt > 0 {
		d.FailSyncAt(s.FailSyncAt)
	}
	if s.TornWriteAt > 0 {
		d.TornWriteAt(s.TornWriteAt)
	}
}

// World is a lab deployment.
type World struct {
	Net     *transport.Network
	Clk     *clock.Sim
	CA      *crypto.CA
	TSA     *crypto.TSA
	Parties map[string]*Party
	order   []string

	opts   Options
	idents map[string]*crypto.Identity

	// mu guards Parties (Restart swaps entries while scenario drivers read
	// concurrently) and binders. Access parties through Party(), not the
	// map, when a restart can race.
	mu      sync.Mutex
	binders map[string]binder // object -> validator factories, for Restart
}

// binder remembers how an object was bound so a restarted party can rebind
// it without the test re-supplying the factories.
type binder struct {
	mkV  func(id string) coord.Validator
	mkMV func(id string) group.Validator
}

// NewWorld creates parties with the given ids; every party trusts the shared
// CA/TSA and holds every other party's certificate (certificates are
// exchanged out of band between contracting organisations).
func NewWorld(opts Options, ids ...string) (*World, error) {
	start := opts.Start
	if start.IsZero() {
		start = time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)
	}
	if opts.RetryInterval == 0 {
		opts.RetryInterval = 25 * time.Millisecond
	}
	clk := clock.NewSim(start)
	seed32 := func(name string) []byte {
		h := crypto.Hash([]byte(fmt.Sprintf("lab-seed-%d-%s", opts.Seed, name)))
		return h[:]
	}
	var ca *crypto.CA
	var tsa *crypto.TSA
	var err error
	if opts.DeterministicKeys {
		ca, err = crypto.NewCAFromSeed("lab-ca", seed32("ca"), clk, 10*365*24*time.Hour)
		if err != nil {
			return nil, err
		}
		tsa, err = crypto.NewTSAFromSeed("lab-tsa", seed32("tsa"), clk)
		if err != nil {
			return nil, err
		}
	} else {
		ca, err = crypto.NewCA("lab-ca", clk, 10*365*24*time.Hour)
		if err != nil {
			return nil, err
		}
		tsa, err = crypto.NewTSA("lab-tsa", clk)
		if err != nil {
			return nil, err
		}
	}
	w := &World{
		Net:     transport.NewNetwork(opts.Seed),
		Clk:     clk,
		CA:      ca,
		TSA:     tsa,
		Parties: make(map[string]*Party),
		order:   append([]string(nil), ids...),
		opts:    opts,
		idents:  make(map[string]*crypto.Identity, len(ids)),
		binders: make(map[string]binder),
	}

	for _, id := range ids {
		var ident *crypto.Identity
		if opts.DeterministicKeys {
			ident, err = crypto.NewIdentityFromSeed(id, seed32("id-"+id))
		} else {
			ident, err = crypto.NewIdentity(id)
		}
		if err != nil {
			return nil, err
		}
		ca.Issue(ident)
		w.idents[id] = ident
	}
	for _, id := range ids {
		var disk *faults.DiskFS
		fs := opts.FS[id]
		if sched, ok := opts.DiskFaults[id]; ok {
			disk = faults.NewDiskFS(fs)
			sched.arm(disk)
			fs = disk
		}
		p, err := w.buildParty(id, fs, disk)
		if err != nil {
			return nil, err
		}
		w.Parties[id] = p
	}
	if opts.Relay != "" {
		if _, ok := w.Parties[opts.Relay]; !ok {
			return nil, fmt.Errorf("lab: relay host %q is not a party", opts.Relay)
		}
		// Publish every member's sealing prekey once all endpoints exist,
		// so any party can seal deposits to any other from the start.
		ctx := context.Background()
		for _, id := range ids {
			if cl := w.Parties[id].Relay; cl != nil {
				if err := cl.PublishPrekey(ctx, w.order); err != nil {
					return nil, fmt.Errorf("lab: publishing prekey for %s: %w", id, err)
				}
			}
		}
	}
	return w, nil
}

// buildParty assembles one organisation's full stack: endpoint, reliable
// layer, interceptor, storage (over fs when non-nil) and participant. It is
// the single construction path shared by NewWorld and Restart — a restarted
// party is a fresh stack over the same storage directory and identity.
func (w *World) buildParty(id string, fs store.FS, disk *faults.DiskFS) (*Party, error) {
	opts := w.opts
	v := crypto.NewVerifier(w.CA, w.TSA)
	for _, other := range w.order {
		if err := v.AddCertificate(w.idents[other].Certificate()); err != nil {
			return nil, err
		}
	}
	relOpts := []transport.ReliableOption{transport.WithRetryInterval(5 * time.Millisecond)}
	if opts.Batching {
		window := opts.BatchWindow
		if window == 0 {
			window = 200 * time.Microsecond
		}
		relOpts = append(relOpts, transport.WithBatching(window, 0))
	}
	rel, err := transport.NewReliable(w.Net.Endpoint(id), relOpts...)
	if err != nil {
		return nil, err
	}
	ic := faults.NewInterceptor(rel)
	p := &Party{
		ID:          id,
		Ident:       w.idents[id],
		Verifier:    v,
		Rel:         rel,
		Interceptor: ic,
		Disk:        disk,
	}
	if opts.StorageDir != "" {
		pl, err := store.OpenPlane(filepath.Join(opts.StorageDir, id), opts.Durability, fs)
		if err != nil {
			return nil, err
		}
		p.Store = store.NewSegmented(pl)
		p.SegLog = nrlog.OpenSegmented(pl, w.Clk, w.idents[id])
		p.Log = p.SegLog
		if err := pl.Start(); err != nil {
			return nil, err
		}
		p.Plane = pl
	} else {
		p.Log, p.Store = nrlog.NewMemory(w.Clk), store.NewMemory()
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = opts.Durability.SnapshotEvery
	}
	iconn := &interceptedConn{Interceptor: ic, rel: rel}
	cfg := core.Config{
		Ident:            w.idents[id],
		Verifier:         v,
		TSA:              w.TSA,
		Conn:             iconn,
		Log:              p.Log,
		Store:            p.Store,
		Clock:            w.Clk,
		Termination:      opts.Termination,
		TTP:              opts.TTP,
		RetryInterval:    opts.RetryInterval,
		ResponseDeadline: opts.ResponseDeadline,
		SnapshotEvery:    snapEvery,
		Transfer:         opts.Transfer,
		PageSize:         opts.PageSize,
		Quotas:           opts.Quotas,
	}
	// Relay plane: members get sealing keys and a prekey directory before
	// the runtime is built (the directory feeds Welcome construction, the
	// drain hook feeds catch-up); the client itself is built after, so the
	// closure late-binds it.
	var relayKeys *relay.SealKeys
	var relayDir *relay.Directory
	var relayClient *relay.Client
	relayMember := opts.Relay != "" && id != opts.Relay
	if relayMember {
		var err error
		relayKeys, err = relay.NewSealKeys()
		if err != nil {
			return nil, err
		}
		relayDir = relay.NewDirectory(v)
		cfg.Prekeys = relayDir
		cfg.Drain = func(ctx context.Context) (int, error) {
			if relayClient == nil {
				return 0, nil
			}
			return relayClient.Drain(ctx)
		}
	}
	part, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	p.Part = part
	if relayMember {
		relayClient, err = relay.NewClient(relay.ClientConfig{
			Ident:  w.idents[id],
			TSA:    w.TSA,
			Conn:   iconn,
			Relay:  opts.Relay,
			Keys:   relayKeys,
			Dir:    relayDir,
			Inject: part.Inject,
			Clock:  w.Clk,
		})
		if err != nil {
			return nil, err
		}
		part.SetRelayHandler(relayClient.HandleEnvelope)
		part.SetRelayDeposit(relayClient.Deposit)
		p.Relay = relayClient
	}
	if opts.Relay == id {
		dir := ""
		if opts.StorageDir != "" {
			dir = filepath.Join(opts.StorageDir, id+".relay")
		}
		srv, err := relay.NewServer(relay.ServerConfig{
			Conn:            iconn,
			Verifier:        v,
			Dir:             dir,
			Durability:      opts.Durability,
			Log:             p.Log,
			MaxMailboxMsgs:  opts.RelayMaxMsgs,
			MaxMailboxBytes: opts.RelayMaxBytes,
		})
		if err != nil {
			return nil, err
		}
		part.SetRelayHandler(srv.HandleEnvelope)
		p.RelayServer = srv
	}
	return p, nil
}

// interceptedConn routes outbound traffic through the party's interceptor
// (Dolev-Yao hook) while inbound handling stays on the reliable layer.
type interceptedConn struct {
	*faults.Interceptor
	rel *transport.Reliable
}

func (c *interceptedConn) SetHandler(h transport.Handler) {
	c.rel.SetHandler(h)
}

// PendingTo surfaces the reliable layer's per-peer backlog through the
// interceptor, so the runtime's peer throttling and the relay spill path
// (QuotaPolicy.MaxPendingToPeer) see it in lab worlds too.
func (c *interceptedConn) PendingTo(to string) int { return c.rel.PendingTo(to) }

func (c *interceptedConn) Close() error { return c.rel.Close() }

// Party returns the named party (the current incarnation, after restarts).
func (w *World) Party(id string) *Party {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Parties[id]
}

// IDs returns party ids in creation order.
func (w *World) IDs() []string { return append([]string(nil), w.order...) }

// Close shuts the world down.
func (w *World) Close() {
	w.mu.Lock()
	parties := make([]*Party, 0, len(w.Parties))
	for _, p := range w.Parties {
		parties = append(parties, p)
	}
	w.mu.Unlock()
	for _, p := range parties {
		_ = p.Part.Close()
		if p.RelayServer != nil {
			_ = p.RelayServer.Close()
		}
		if p.Plane != nil {
			_ = p.Plane.Close()
		}
	}
	w.Net.Close()
}

// Bind binds object at every party using per-party validators. The
// factories are remembered so a restarted party rebinds the same objects.
func (w *World) Bind(object string, mkV func(id string) coord.Validator, mkMV func(id string) group.Validator) error {
	w.mu.Lock()
	w.binders[object] = binder{mkV: mkV, mkMV: mkMV}
	w.mu.Unlock()
	for _, id := range w.order {
		if err := w.BindAt(id, object); err != nil {
			return err
		}
	}
	return nil
}

// RegisterBinder records an object's validator factories without binding it
// anywhere — pair with BindAt/BindLazyAt for staggered or lazy assembly.
func (w *World) RegisterBinder(object string, mkV func(id string) coord.Validator, mkMV func(id string) group.Validator) {
	w.mu.Lock()
	w.binders[object] = binder{mkV: mkV, mkMV: mkMV}
	w.mu.Unlock()
}

// BindAt binds a previously Bind-registered object at one party (the
// restart path, or staggered world assembly).
func (w *World) BindAt(id, object string) error {
	w.mu.Lock()
	b, ok := w.binders[object]
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("lab: object %q was never bound via Bind", object)
	}
	var mv group.Validator
	if b.mkMV != nil {
		mv = b.mkMV(id)
	}
	_, _, err := w.Party(id).Part.Bind(object, b.mkV(id), mv)
	return err
}

// BindLazyAt is BindAt through the runtime's lazy path: the binding stays an
// idle stub (no engines, no goroutines, near-zero memory) until traffic or
// an accessor materializes it — the multi-tenant fast path E20 measures.
func (w *World) BindLazyAt(id, object string) error {
	w.mu.Lock()
	b, ok := w.binders[object]
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("lab: object %q was never bound via Bind", object)
	}
	var mv group.Validator
	if b.mkMV != nil {
		mv = b.mkMV(id)
	}
	return w.Party(id).Part.BindLazy(object, b.mkV(id), mv)
}

// Crash fail-stops a party: its stack closes (dropping queued traffic and
// in-flight runs exactly as a process death would), its endpoint leaves the
// network, and its durability plane closes. State on disk survives; Restart
// brings the party back over it.
func (w *World) Crash(id string) {
	p := w.Party(id)
	_ = p.Part.Close()
	if p.RelayServer != nil {
		_ = p.RelayServer.Close()
	}
	if p.Plane != nil {
		_ = p.Plane.Close()
	}
}

// Restart rebuilds a crashed party over its storage directory: fresh stack,
// fresh network endpoint, same identity, clean disk (a new faults.DiskFS
// handle replaces any tripped one — the crashed process's file descriptors
// died with it). Every Bind-registered object is rebound and restored from
// the WAL; an object with no checkpoint on disk (crashed before bootstrap)
// is left bound but unbootstrapped. The caller resumes protocol
// participation via RecoverPendingRuns / CatchUp.
func (w *World) Restart(id string) (*Party, error) {
	var fs store.FS
	var disk *faults.DiskFS
	if w.opts.StorageDir != "" {
		disk = faults.NewDiskFS(nil)
		fs = disk
	}
	p, err := w.buildParty(id, fs, disk)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.Parties[id] = p
	objects := make([]string, 0, len(w.binders))
	for object := range w.binders {
		objects = append(objects, object)
	}
	w.mu.Unlock()
	for _, object := range objects {
		if err := w.BindAt(id, object); err != nil {
			return nil, err
		}
		if err := p.Engine(object).Restore(); err != nil {
			if errors.Is(err, store.ErrNoCheckpoint) {
				continue
			}
			return nil, fmt.Errorf("lab: restarting %s: %w", id, err)
		}
	}
	if w.opts.Relay != "" {
		// Re-exchange prekeys, best-effort: the restarted member learns its
		// peers' sealing keys again (its directory died with the process).
		// Its own fresh key set restarts at epoch 1, which peers holding the
		// old incarnation's higher-or-equal epoch ignore — deposits sealed
		// to the dead key are skipped at drain and catch-up covers them.
		ctx := context.Background()
		w.mu.Lock()
		parties := make([]*Party, 0, len(w.Parties))
		for _, q := range w.Parties {
			parties = append(parties, q)
		}
		w.mu.Unlock()
		for _, q := range parties {
			if q.Relay != nil {
				_ = q.Relay.PublishPrekey(ctx, w.order)
			}
		}
	}
	return p, nil
}

// Bootstrap initialises the founding members of object with the initial
// state. Members not in founding are left unbootstrapped (they may Join).
func (w *World) Bootstrap(object string, initial []byte, founding []string) error {
	for _, id := range founding {
		if err := w.Party(id).Engine(object).Bootstrap(initial, founding); err != nil {
			return fmt.Errorf("lab: bootstrapping %s: %w", id, err)
		}
	}
	return nil
}

// WaitAgreed blocks until every listed party's agreed state for object
// equals want, or the deadline passes. The wait is event-driven: it parks
// on the first non-matching engine's change notification (coord.Watch)
// instead of polling, so randomized soaks aren't timing-sensitive under
// the race detector. The watch channel is grabbed before the state is
// read — a transition landing between read and park has already closed
// that channel, so wakeups cannot be missed.
func (w *World) WaitAgreed(object string, parties []string, want []byte, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		var waitCh <-chan struct{}
		for _, id := range parties {
			en := w.Party(id).Engine(object)
			ch := en.Watch()
			if _, s := en.Agreed(); !bytes.Equal(s, want) {
				waitCh = ch
				break
			}
		}
		if waitCh == nil {
			return nil
		}
		select {
		case <-timer.C:
			return fmt.Errorf("lab: replicas did not converge to %d-byte state within %v", len(want), d)
		case <-waitCh:
		}
	}
}

// WaitConverged blocks until every listed party's agreed tuple and state
// for object are identical (whatever the value — the global-invariant
// form of WaitAgreed) and returns the common state. Event-driven like
// WaitAgreed.
func (w *World) WaitConverged(object string, parties []string, d time.Duration) ([]byte, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		// When parties 0 and i disagree, one of the two must transition
		// before the group can be equal — parking on both channels is a
		// sufficient wake condition.
		var waitCh, refCh <-chan struct{}
		var first tuple.State
		var firstState []byte
		for i, id := range parties {
			en := w.Party(id).Engine(object)
			ch := en.Watch()
			t, s := en.Agreed()
			if i == 0 {
				first, firstState = t, s
				refCh = ch
				continue
			}
			if t != first || !bytes.Equal(s, firstState) {
				waitCh = ch
				break
			}
		}
		if waitCh == nil {
			return firstState, nil
		}
		select {
		case <-timer.C:
			return nil, fmt.Errorf("lab: %d replicas did not converge within %v", len(parties), d)
		case <-waitCh:
		case <-refCh:
		}
	}
}

// Adversary compromises a party: returns a message-crafting adversary bound
// to its identity and connection. The party's honest engines keep running;
// the adversary speaks alongside them (a corrupted process).
func (w *World) Adversary(id, object string) *faults.Adversary {
	p := w.Party(id)
	return &faults.Adversary{
		Ident:  p.Ident,
		TSA:    w.TSA,
		Conn:   p.Rel,
		Object: object,
	}
}

// PatchValidator returns a coord.Validator for fixed-size objects whose
// updates are in-place patches: "[u32 BE offset][bytes]" replacing that
// window of the state. Unlike AcceptAllValidator's append semantics the
// state size stays constant, which is the E17 workload — a large object
// receiving a stream of small updates.
func PatchValidator() coord.Validator { return patchAll{} }

type patchAll struct{}

func (patchAll) ValidateState(_ string, _, _ []byte) wire.Decision  { return wire.Accepted }
func (patchAll) ValidateUpdate(_ string, _, _ []byte) wire.Decision { return wire.Accepted }

func (patchAll) ApplyUpdate(current, update []byte) ([]byte, error) {
	if len(update) < 4 {
		return nil, fmt.Errorf("lab: patch update too short: %d bytes", len(update))
	}
	off := int(binary.BigEndian.Uint32(update))
	body := update[4:]
	if off+len(body) > len(current) {
		return nil, fmt.Errorf("lab: patch [%d,%d) outside %d-byte state", off, off+len(body), len(current))
	}
	out := append([]byte(nil), current...)
	copy(out[off:], body)
	return out, nil
}

func (patchAll) Installed([]byte, tuple.State)  {}
func (patchAll) RolledBack([]byte, tuple.State) {}

// The paged fast path (coord.PagedValidator): a patch clones the base —
// sharing every unchanged page copy-on-write — and rewrites only the pages
// the patch touches, so applying a 64-byte patch to a 16 MiB object costs
// O(delta · log S) instead of a full-state copy. This is the validator the
// large-object benchmarks (BenchmarkLargeObjectSmallUpdate, b2bbench -exp
// E19) measure.
func (patchAll) ApplyUpdatePaged(current *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	if len(update) < 4 {
		return nil, fmt.Errorf("lab: patch update too short: %d bytes", len(update))
	}
	off := int(binary.BigEndian.Uint32(update))
	body := update[4:]
	if off+len(body) > current.Size() {
		return nil, fmt.Errorf("lab: patch [%d,%d) outside %d-byte state", off, off+len(body), current.Size())
	}
	out := current.Clone()
	if err := out.WriteAt(off, body); err != nil {
		return nil, err
	}
	return out, nil
}

func (patchAll) ValidateStatePaged(string, *pagestate.Paged, []byte) wire.Decision {
	return wire.Accepted
}
func (patchAll) ValidateUpdatePaged(string, *pagestate.Paged, []byte) wire.Decision {
	return wire.Accepted
}
func (patchAll) InstalledPaged(*pagestate.Paged, tuple.State)  {}
func (patchAll) RolledBackPaged(*pagestate.Paged, tuple.State) {}

// Patch encodes an in-place update for PatchValidator.
func Patch(offset int, body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(offset))
	copy(out[4:], body)
	return out
}

// AcceptAllValidator returns a coord.Validator accepting every change, with
// update-append semantics.
func AcceptAllValidator() coord.Validator { return acceptAll{} }

type acceptAll struct{}

func (acceptAll) ValidateState(_ string, _, _ []byte) wire.Decision  { return wire.Accepted }
func (acceptAll) ValidateUpdate(_ string, _, _ []byte) wire.Decision { return wire.Accepted }
func (acceptAll) ApplyUpdate(current, update []byte) ([]byte, error) {
	return append(append([]byte(nil), current...), update...), nil
}
func (acceptAll) Installed([]byte, tuple.State)  {}
func (acceptAll) RolledBack([]byte, tuple.State) {}

// Paged fast path: append shares the whole prefix copy-on-write.
func (acceptAll) ApplyUpdatePaged(current *pagestate.Paged, update []byte) (*pagestate.Paged, error) {
	out := current.Clone()
	if err := out.Append(update); err != nil {
		return nil, err
	}
	return out, nil
}

func (acceptAll) ValidateStatePaged(string, *pagestate.Paged, []byte) wire.Decision {
	return wire.Accepted
}
func (acceptAll) ValidateUpdatePaged(string, *pagestate.Paged, []byte) wire.Decision {
	return wire.Accepted
}
func (acceptAll) InstalledPaged(*pagestate.Paged, tuple.State)  {}
func (acceptAll) RolledBackPaged(*pagestate.Paged, tuple.State) {}

// NewPatchWorld builds the canonical large-object patch workload fixture: a
// two-party world ("org00" proposes, "org01" receives) bound to one
// PatchValidator object of size bytes, bootstrapped and ready to drive.
// Shared by BenchmarkLargeObjectSmallUpdate and b2bbench -exp E19 so the
// benchmark and the CI bar always measure the same workload.
func NewPatchWorld(opts Options, object string, size int) (*World, error) {
	w, err := NewWorld(opts, "org00", "org01")
	if err != nil {
		return nil, err
	}
	if err := w.Bind(object, func(string) coord.Validator { return PatchValidator() }, nil); err != nil {
		w.Close()
		return nil, err
	}
	base := make([]byte, size)
	for i := range base {
		base[i] = byte(i * 31)
	}
	if err := w.Bootstrap(object, base, []string{"org00", "org01"}); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// DrivePatchRuns streams rounds pipelined update-mode coordination runs of
// 64-byte patches (offset stride 64, wrapping) from org00 at the given
// pipeline window, awaits every outcome in order, and waits for the
// recipient to install the last commit. The other half of NewPatchWorld's
// shared workload contract.
func DrivePatchRuns(ctx context.Context, w *World, object string, size, rounds, window int) error {
	en := w.Party("org00").Engine(object)
	en.SetWindow(window)
	var handles []*coord.RunHandle
	collect := func() error {
		h := handles[0]
		handles = handles[1:]
		_, err := h.Await(ctx)
		return err
	}
	for i := 0; i < rounds; i++ {
		upd := Patch((i*64)%(size-64), []byte(fmt.Sprintf("upd-%08d-%048d", i, i)))
		for {
			h, err := en.ProposeUpdateAsync(ctx, upd)
			if errors.Is(err, coord.ErrRunInFlight) && len(handles) > 0 {
				if err := collect(); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return err
			}
			handles = append(handles, h)
			break
		}
	}
	for len(handles) > 0 {
		if err := collect(); err != nil {
			return err
		}
	}
	return w.Party("org01").Engine(object).WaitQuiescent(ctx)
}
