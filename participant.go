package b2b

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/core"
	"b2b/internal/crypto"
	"b2b/internal/group"
	"b2b/internal/metrics"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/relay"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/xfer"
)

// Errors returned by the public API.
var (
	ErrNotUpdatable = errors.New("b2b: object does not implement UpdatableObject")
	ErrVetoed       = coord.ErrVetoed
	ErrBlocked      = coord.ErrBlocked
	ErrRejected     = group.ErrRejected
	ErrNoScope      = errors.New("b2b: Leave without matching Enter")
	ErrNoPending    = errors.New("b2b: no deferred coordination pending")
	ErrBusyPending  = errors.New("b2b: previous deferred coordination not yet collected")
	// ErrDivergent: the application object failed to install an agreed state
	// (Object.ApplyState returned an error), so the local replica no longer
	// matches what the sharing group agreed. Coordination is refused until
	// Restore re-installs the agreed state.
	ErrDivergent = errors.New("b2b: replica divergent: agreed state not installed")
	// ErrQuotaExceeded: a group configured with WithQuotas is over one of its
	// caps — admission control refused a coordination run, or inbound traffic
	// was shed. Inspect with errors.Is.
	ErrQuotaExceeded = core.ErrQuotaExceeded
	// ErrNoRelay: a relay operation was invoked on a participant built
	// without WithRelay.
	ErrNoRelay = relay.ErrNoRelay
)

// Mode selects the communication mode of a Controller (paper §5).
type Mode int

// Communication modes.
const (
	// Synchronous: Leave/Connect/Disconnect block until coordination
	// completes; validation failure surfaces as an error.
	Synchronous Mode = iota + 1
	// DeferredSynchronous: Leave returns immediately; CoordCommit blocks
	// until completion.
	DeferredSynchronous
	// Asynchronous: Leave returns immediately; completion is signalled via
	// the Callback (EventCoordComplete).
	Asynchronous
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Synchronous:
		return "synchronous"
	case DeferredSynchronous:
		return "deferred-synchronous"
	case Asynchronous:
		return "asynchronous"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// TrustDomain holds the certification authority and time-stamping service
// that all contracting organisations accept (§4.2). In production these are
// independent trusted services; here they are constructed once and their
// material distributed to participants.
type TrustDomain struct {
	CA  *crypto.CA
	TSA *crypto.TSA
	clk clock.Clock
}

// NewTrustDomain creates a trust domain with fresh CA and TSA keys.
func NewTrustDomain(clk clock.Clock) (*TrustDomain, error) {
	if clk == nil {
		clk = clock.Wall{}
	}
	ca, err := crypto.NewCA("b2b-ca", clk, 10*365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	tsa, err := crypto.NewTSA("b2b-tsa", clk)
	if err != nil {
		return nil, err
	}
	return &TrustDomain{CA: ca, TSA: tsa, clk: clk}, nil
}

// Issue creates an identity for a party and certifies it.
func (td *TrustDomain) Issue(id string) (*crypto.Identity, error) {
	ident, err := crypto.NewIdentity(id)
	if err != nil {
		return nil, err
	}
	td.CA.Issue(ident)
	return ident, nil
}

// Option configures a Participant.
type Option func(*participantOpts)

type participantOpts struct {
	clk              clock.Clock
	mode             Mode
	termination      coord.Termination
	storageDir       string
	durability       DurabilityPolicy
	transfer         TransferPolicy
	paging           PagingPolicy
	retryInterval    time.Duration
	responseDeadline time.Duration
	opTimeout        time.Duration
	peerCerts        []crypto.Certificate
	quotas           core.QuotaPolicy
	relayID          string
	relayHost        bool
	relayHostDir     string
}

// WithClock substitutes the time source (tests use a simulated clock).
func WithClock(clk clock.Clock) Option {
	return func(o *participantOpts) { o.clk = clk }
}

// WithMode sets the default communication mode for controllers (default
// Synchronous).
func WithMode(m Mode) Option {
	return func(o *participantOpts) { o.mode = m }
}

// WithMajorityTermination enables the §7 majority-vote termination extension
// instead of the paper's unanimous rule.
func WithMajorityTermination() Option {
	return func(o *participantOpts) { o.termination = coord.Majority }
}

// WithResponseDeadline enables the §7 response deadline under majority
// termination: a proposer that has waited this long concludes a run with
// the responses at hand, provided they form a strict majority of the group
// — an offline member no longer blocks coordination (its missed traffic
// parks at the relay when one is configured, and catch-up covers the rest).
// Zero (the default) keeps the paper's wait-for-all behaviour.
func WithResponseDeadline(d time.Duration) Option {
	return func(o *participantOpts) { o.responseDeadline = d }
}

// WithFileStorage persists the non-repudiation log and checkpoint store
// under dir (default: in-memory, no crash durability). Storage goes through
// the durability plane: one append-only segment WAL shared by checkpoints,
// run records and evidence, with group-commit fsync and bounded retention
// (see docs/ARCHITECTURE.md, "Durability plane"). Tune retention with
// WithDurability.
func WithFileStorage(dir string) Option {
	return func(o *participantOpts) { o.storageDir = dir }
}

// DurabilityPolicy tunes the durability plane's segment size, compaction
// threshold, delta-snapshot cadence and evidence retention. The zero value
// selects the defaults documented on the fields.
type DurabilityPolicy = store.Policy

// WithDurability sets the durability plane policy (only meaningful together
// with WithFileStorage).
func WithDurability(p DurabilityPolicy) Option {
	return func(o *participantOpts) { o.durability = p }
}

// TransferPolicy tunes the state-transfer plane, through which every joiner
// receives the agreed state: the chunk size and flow-control window of
// transfer sessions, and the per-attempt progress timeout. The zero value
// selects the defaults documented on the fields.
type TransferPolicy = xfer.Policy

// WithTransfer sets the state-transfer policy.
func WithTransfer(p TransferPolicy) Option {
	return func(o *participantOpts) { o.transfer = p }
}

// PagingPolicy tunes the paged Merkle state identity: the page granularity
// object state is split into for hashing and copy-on-write replica sharing.
// The zero value selects the defaults documented on the fields (4 KiB
// pages). Unlike the transfer policy this is a protocol parameter, not a
// local knob: HashState binds the page size, so every member of a sharing
// group must configure the same value or its proposals are vetoed as state
// integrity failures.
type PagingPolicy = pagestate.Policy

// WithPaging sets the paged state identity policy.
func WithPaging(p PagingPolicy) Option {
	return func(o *participantOpts) { o.paging = p }
}

// QuotaPolicy caps what any single sharing group may consume on this
// endpoint — resident pagestate pages, pending inbound bytes, served
// transfer sessions, peer backlog — and enables admission control. Every cap
// is per group; zero fields are uncapped. See the core runtime's field docs.
type QuotaPolicy = core.QuotaPolicy

// RuntimeStats snapshots the multi-tenant runtime: worker pool, active vs
// bound objects, queue depths, quota shedding.
type RuntimeStats = core.RuntimeStats

// GroupUsage is one sharing group's resource accounting in quota units.
type GroupUsage = core.GroupUsage

// WithQuotas sets per-group resource quotas and enables admission control.
// Coordination initiated on a group over its caps fails with
// ErrQuotaExceeded; inbound traffic beyond MaxPendingBytes is shed (and
// recorded as "quota-shed" evidence — the peer's protocol retry restores
// liveness once the backlog drains).
func WithQuotas(q QuotaPolicy) Option {
	return func(o *participantOpts) { o.quotas = q }
}

// WithRetryInterval tunes the protocol-level retry period.
func WithRetryInterval(d time.Duration) Option {
	return func(o *participantOpts) { o.retryInterval = d }
}

// WithOperationTimeout bounds synchronous operations that take no context
// (Controller.Leave). Default 30s.
func WithOperationTimeout(d time.Duration) Option {
	return func(o *participantOpts) { o.opTimeout = d }
}

// WithPeerCertificates registers the certificates of known peer
// organisations (exchanged out of band when the contract is set up).
func WithPeerCertificates(certs ...crypto.Certificate) Option {
	return func(o *participantOpts) { o.peerCerts = append(o.peerCerts, certs...) }
}

// WithRelay names the relay host (another participant, built with
// WithRelayHost) this participant uses for store-and-forward delivery:
// outbound traffic beyond QuotaPolicy.MaxPendingToPeer is sealed to the
// recipient's prekey and parked in its mailbox instead of shed, and this
// participant's own mailbox is drained during every catch-up (and on
// RelayDrain). The relay never sees plaintext — deposits are end-to-end
// signed by the protocol layer and sealed to a per-epoch X25519 prekey
// (see docs/PROTOCOL.md §11). Call RelayPublishPrekey once peers are
// reachable so they can seal deposits to this participant.
func WithRelay(relayID string) Option {
	return func(o *participantOpts) { o.relayID = relayID }
}

// WithRelayHost makes this participant host the relay mailbox service for
// its trust domain. dir "" keeps mailboxes in memory; otherwise they are
// durable under dir (a dedicated segment WAL — deposits survive a relay
// restart). Mailboxes are bounded (relay defaults), evicting oldest-first
// with evidence. The host stores only sealed blobs it cannot read.
func WithRelayHost(dir string) Option {
	return func(o *participantOpts) { o.relayHost, o.relayHostDir = true, dir }
}

// Participant is one organisation's middleware runtime (the deployment of
// B2BObjects middleware inside an organisation, Fig 1).
type Participant struct {
	part *core.Participant
	opts participantOpts
	reg  *metrics.Registry
}

// NewParticipant assembles a participant from an identity issued by the
// trust domain and a transport connection. The connection is typically
// transport.NewReliable over a TCP or in-memory endpoint.
func NewParticipant(ident *crypto.Identity, td *TrustDomain, conn core.Conn, opts ...Option) (*Participant, error) {
	o := participantOpts{
		clk:       clock.Clock(clock.Wall{}),
		mode:      Synchronous,
		opTimeout: 30 * time.Second,
	}
	if td != nil && td.clk != nil {
		o.clk = td.clk
	}
	for _, opt := range opts {
		opt(&o)
	}

	vfr := crypto.NewVerifier(td.CA, td.TSA)
	if err := vfr.AddCertificate(ident.Certificate()); err != nil {
		return nil, fmt.Errorf("b2b: own certificate: %w", err)
	}
	for _, cert := range o.peerCerts {
		if err := vfr.AddCertificate(cert); err != nil {
			return nil, fmt.Errorf("b2b: peer certificate %s: %w", cert.Subject, err)
		}
	}

	reg := metrics.NewRegistry()
	cfg := core.Config{
		Ident:            ident,
		Verifier:         vfr,
		TSA:              td.TSA,
		Conn:             conn,
		Clock:            o.clk,
		Durability:       o.durability,
		Termination:      o.termination,
		RetryInterval:    o.retryInterval,
		ResponseDeadline: o.responseDeadline,
		Transfer:         o.transfer,
		PageSize:         o.paging.PageSize,
		Quotas:           o.quotas,
		Relay:            o.relayID,
		Metrics:          reg,
	}
	if o.storageDir != "" {
		cfg.PlaneDir = filepath.Join(o.storageDir, ident.ID()+".wal")
	}
	if o.relayHost {
		cfg.RelayHost = &core.RelayHost{Dir: o.relayHostDir}
	}
	part, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	p := &Participant{part: part, opts: o, reg: reg}
	p.registerMetrics()
	return p, nil
}

// registerMetrics publishes the participant's planes into its metrics
// registry as callback gauges: coordination counters summed across bound
// objects, transfer-plane counters likewise, durability-plane disk usage,
// and the multi-tenant runtime's scheduler/quota state. Sampled only when a
// snapshot or dump is taken — zero cost on the protocol hot path.
func (p *Participant) registerMetrics() {
	sumCoord := func(pick func(coord.Stats) uint64) func() int64 {
		return func() int64 { return int64(pick(p.part.CoordStats())) }
	}
	p.reg.SetFunc("coord.runs_proposed", sumCoord(func(s coord.Stats) uint64 { return s.RunsProposed }))
	p.reg.SetFunc("coord.runs_valid", sumCoord(func(s coord.Stats) uint64 { return s.RunsValid }))
	p.reg.SetFunc("coord.runs_invalid", sumCoord(func(s coord.Stats) uint64 { return s.RunsInvalid }))
	p.reg.SetFunc("coord.runs_committed", sumCoord(func(s coord.Stats) uint64 { return s.RunsCommitted }))
	p.reg.SetFunc("coord.sig_verifies", sumCoord(func(s coord.Stats) uint64 { return s.SigVerifies }))
	p.reg.SetFunc("coord.sig_memo_hits", sumCoord(func(s coord.Stats) uint64 { return s.SigMemoHits }))

	sumXfer := func(pick func(xfer.Stats) uint64) func() int64 {
		return func() int64 { return int64(pick(p.part.XferStats())) }
	}
	p.reg.SetFunc("xfer.sessions_served", sumXfer(func(s xfer.Stats) uint64 { return s.SessionsServed }))
	p.reg.SetFunc("xfer.bytes_sent", sumXfer(func(s xfer.Stats) uint64 { return s.BytesSent }))
	p.reg.SetFunc("xfer.sessions_fetched", sumXfer(func(s xfer.Stats) uint64 { return s.SessionsFetched }))
	p.reg.SetFunc("xfer.bytes_fetched", sumXfer(func(s xfer.Stats) uint64 { return s.BytesFetched }))

	p.reg.SetFunc("storage.disk_bytes", p.StorageUsage)

	rt := func(pick func(RuntimeStats) int64) func() int64 {
		return func() int64 { return pick(p.part.RuntimeStats()) }
	}
	p.reg.SetFunc("runtime.workers", rt(func(s RuntimeStats) int64 { return int64(s.Workers) }))
	p.reg.SetFunc("runtime.bound", rt(func(s RuntimeStats) int64 { return int64(s.Bound) }))
	p.reg.SetFunc("runtime.materialized", rt(func(s RuntimeStats) int64 { return int64(s.Materialized) }))
	p.reg.SetFunc("runtime.active", rt(func(s RuntimeStats) int64 { return int64(s.Active) }))
	p.reg.SetFunc("runtime.pending_msgs", rt(func(s RuntimeStats) int64 { return int64(s.PendingMsgs) }))
	p.reg.SetFunc("runtime.pending_bytes", rt(func(s RuntimeStats) int64 { return s.PendingBytes }))
	p.reg.SetFunc("runtime.parked_msgs", rt(func(s RuntimeStats) int64 { return int64(s.ParkedMsgs) }))
	p.reg.SetFunc("runtime.parked_bytes", rt(func(s RuntimeStats) int64 { return s.ParkedBytes }))
	p.reg.SetFunc("runtime.sessions", rt(func(s RuntimeStats) int64 { return int64(s.Sessions) }))
	p.reg.SetFunc("runtime.handled", rt(func(s RuntimeStats) int64 { return int64(s.Handled) }))
	p.reg.SetFunc("runtime.parked", rt(func(s RuntimeStats) int64 { return int64(s.Parked) }))
	p.reg.SetFunc("runtime.shed", rt(func(s RuntimeStats) int64 { return int64(s.Shed) }))
}

// ID returns the participant's identity name.
func (p *Participant) ID() string { return p.part.ID() }

// Log returns the participant's non-repudiation log for evidence inspection.
func (p *Participant) Log() nrlog.Log { return p.part.Log() }

// Bind attaches an application Object under the given name and returns its
// Controller. The callback (optional, may be nil) receives coordCallback
// events.
func (p *Participant) Bind(object string, obj Object, cb Callback) (*Controller, error) {
	adapter := &objectAdapter{object: object, obj: obj, cb: cb}
	engine, manager, err := p.part.Bind(object, adapter, &membershipAdapter{obj: obj})
	if err != nil {
		return nil, err
	}
	xm, err := p.part.Xfer(object)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		object:    object,
		obj:       obj,
		adapter:   adapter,
		engine:    engine,
		manager:   manager,
		xfer:      xm,
		mode:      p.opts.mode,
		cb:        cb,
		opTimeout: p.opts.opTimeout,
	}
	if p.opts.quotas != (core.QuotaPolicy{}) {
		c.admit = func(ctx context.Context) error { return p.part.Admit(ctx, object) }
	}
	return c, nil
}

// TransferStats reports the state-transfer plane's counters for a bound
// object: sessions served (delta vs snapshot), chunks and payload bytes in
// both directions.
func (p *Participant) TransferStats(object string) (xfer.Stats, error) {
	xm, err := p.part.Xfer(object)
	if err != nil {
		return xfer.Stats{}, err
	}
	return xm.Stats(), nil
}

// RuntimeStats snapshots the multi-tenant runtime: worker-pool size, bound
// vs materialized vs active objects, queue depths in messages and bytes,
// parked (per-sender waiting) traffic, served transfer sessions, and
// messages handled/parked/shed since start.
func (p *Participant) RuntimeStats() RuntimeStats {
	return p.part.RuntimeStats()
}

// GroupUsage reports one bound object's sharing-group resource accounting in
// the units quotas are expressed in (resident pagestate pages, pending and
// parked inbound bytes, served transfer sessions, traffic shed).
func (p *Participant) GroupUsage(object string) (GroupUsage, error) {
	return p.part.GroupUsage(object)
}

// MetricsSnapshot returns a point-in-time view of every metric the
// participant exposes, keyed by dotted name: coordination counters
// ("coord.runs_proposed", ...), transfer-plane counters
// ("xfer.sessions_served", ...), durability-plane usage
// ("storage.disk_bytes") and the multi-tenant runtime
// ("runtime.active", "runtime.shed", ...) — the one API unifying what
// Stats, TransferStats, StorageUsage and RuntimeStats report separately.
func (p *Participant) MetricsSnapshot() map[string]int64 {
	return p.reg.Snapshot()
}

// DumpMetrics writes the metrics snapshot to w in expvar-style text form,
// one "name value" line per metric, sorted by name.
func (p *Participant) DumpMetrics(w io.Writer) error {
	return p.reg.Dump(w)
}

// RelayDrain empties this participant's relay mailbox now: everything
// parked for it while it was unreachable is unsealed and re-injected into
// normal inbound dispatch (signature verification included — the relay is
// not trusted). Catch-up calls it automatically; call it directly after a
// reconnect that needs no state transfer. Returns the number of envelopes
// delivered, or ErrNoRelay without WithRelay.
func (p *Participant) RelayDrain(ctx context.Context) (int, error) {
	cl := p.part.RelayClient()
	if cl == nil {
		return 0, ErrNoRelay
	}
	return cl.Drain(ctx)
}

// RelayPublishPrekey signs and announces this participant's current sealing
// prekey to the given peers and the relay host. Peers can only park traffic
// for this participant once they hold a prekey; sponsors also forward the
// directory to joiners inside Welcomes.
func (p *Participant) RelayPublishPrekey(ctx context.Context, peers ...string) error {
	cl := p.part.RelayClient()
	if cl == nil {
		return ErrNoRelay
	}
	return cl.PublishPrekey(ctx, peers)
}

// RelayRotatePrekey advances the sealing epoch and announces the new
// prekey. Deposits sealed under epochs older than the retained previous one
// become unreadable to everyone including this participant — forward
// secrecy for the relay hop.
func (p *Participant) RelayRotatePrekey(ctx context.Context, peers ...string) error {
	cl := p.part.RelayClient()
	if cl == nil {
		return ErrNoRelay
	}
	return cl.Rotate(ctx, peers)
}

// RelayParked reports the hosted relay's total parked messages and sealed
// bytes across all mailboxes (zeros without WithRelayHost).
func (p *Participant) RelayParked() (msgs int, bytes int64) {
	srv := p.part.RelayServer()
	if srv == nil {
		return 0, 0
	}
	return srv.TotalParked()
}

// RelayStorageUsage reports the hosted relay's on-disk size in bytes (zero
// without WithRelayHost, or with in-memory mailboxes).
func (p *Participant) RelayStorageUsage() int64 {
	srv := p.part.RelayServer()
	if srv == nil {
		return 0
	}
	return srv.DiskUsage()
}

// Close shuts the participant down.
func (p *Participant) Close() error { return p.part.Close() }

// Compact forces a durability-plane compaction now: the live set (latest
// snapshots, delta chains, pending runs, anchored evidence suffix) is
// rewritten into a fresh segment and dead segments are deleted. A no-op
// error-free call requires file storage.
func (p *Participant) Compact() error {
	pl := p.part.Plane()
	if pl == nil {
		return errors.New("b2b: Compact requires file storage")
	}
	return pl.Compact()
}

// StorageUsage reports the durability plane's on-disk size in bytes (zero
// without file storage). Archives are not counted: they are
// the operator's to retain or ship off-host.
func (p *Participant) StorageUsage() int64 {
	pl := p.part.Plane()
	if pl == nil {
		return 0
	}
	return pl.DiskUsage()
}

// EvidenceArchives lists the evidence archive files written by anchored
// truncation, oldest first, as names relative to the plane's archive
// directory. Empty without file storage or before the first
// cut. Each archive is a JSON-lines evidence file (read and verified by
// nrlog.ReadArchive) whose chain splices onto the anchor recorded in the
// live log — handing
// an archive plus the signed anchor to arbitration reproduces the full
// evidence trail.
func (p *Participant) EvidenceArchives() ([]string, error) {
	sl := p.part.SegLog()
	if sl == nil {
		return nil, nil
	}
	return sl.Archives()
}

// Clock returns the participant's clock.
func (p *Participant) Clock() clock.Clock { return p.opts.clk }

// MemoryPair is a convenience for examples and tests: a fresh in-memory
// network whose endpoints are wrapped in the reliable delivery layer.
type MemoryNetwork struct {
	net *transport.Network
}

// NewMemoryNetwork creates an in-memory network (seed fixes fault
// randomness; irrelevant when no faults are configured).
func NewMemoryNetwork(seed uint64) *MemoryNetwork {
	return &MemoryNetwork{net: transport.NewNetwork(seed)}
}

// EndpointOption configures the reliable layer under a MemoryNetwork
// endpoint (an opaque alias for the internal transport option type, so
// external consumers can use the constructors exported here).
type EndpointOption = transport.ReliableOption

// BatchedDelivery returns an endpoint option enabling the transport's
// throughput path: per-peer frame coalescing into multi-frame datagrams and
// cumulative acks, flushed on a time/size window. Zero values select the
// transport defaults (1ms / 64KB). Delivery stays eventual and once-only.
func BatchedDelivery(window time.Duration, maxBytes int) EndpointOption {
	return transport.WithBatching(window, maxBytes)
}

// Endpoint returns a reliable connection for a party id. Extra options are
// passed to the reliable layer — e.g. BatchedDelivery to coalesce frames
// and acks into multi-frame datagrams on high-throughput deployments.
func (m *MemoryNetwork) Endpoint(id string, opts ...EndpointOption) (core.Conn, error) {
	rel, err := transport.NewReliable(m.net.Endpoint(id),
		append([]transport.ReliableOption{transport.WithRetryInterval(5 * time.Millisecond)}, opts...)...)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// Underlying exposes the raw network (fault injection in tests).
func (m *MemoryNetwork) Underlying() *transport.Network { return m.net }

// Close shuts the network down.
func (m *MemoryNetwork) Close() { m.net.Close() }
