// Package b2b is B2BObjects: distributed object middleware for dependable
// information sharing between organisations, after Cook, Shrivastava and
// Wheater (DSN 2002).
//
// Organisations share the state of application objects by holding replicas
// and coordinating every change through a non-repudiable multi-party
// validation protocol: a proposed new state is valid only if every sharing
// party's locally evaluated, application-specific validation accepts it, and
// every protocol step generates signed, time-stamped evidence stored in each
// party's non-repudiation log. The middleware guarantees safety — invalid
// state is never installed at a correctly behaving party, and no party can
// misrepresent the validity of state or the actions of others — and, when
// all parties behave, liveness despite a bounded number of temporary network
// and node failures.
//
// # Programming model (paper §5, Fig 4)
//
// The application implements Object (the paper's B2BObject interface): state
// access plus validation upcalls. Binding an Object to a Participant yields
// a Controller (the paper's B2BObjectController), which demarcates state
// access:
//
//	ctrl.Enter()
//	ctrl.Overwrite()          // this scope writes object state
//	obj.Set(...)              // arbitrary application logic
//	err := ctrl.Leave()       // coordinates the change with all parties
//
// Enter/Leave nest; coordination happens at the outermost Leave when
// Overwrite or Update was indicated. Examine marks read-only scopes.
// Controllers operate in three communication modes: Synchronous (Leave
// blocks for the outcome), DeferredSynchronous (Leave returns immediately,
// CoordCommit blocks) and Asynchronous (completion via the callback).
//
// Membership of the sharing group is managed by the connection and
// disconnection protocols (§4.5) through Controller.Connect and
// Controller.Disconnect, with sponsor-coordinated admission, state transfer
// and eviction.
//
// # Pipelined coordination
//
// By default a party holds at most one coordination run in flight per
// object, as the paper specifies: on a wide-area link every change pays a
// full round trip before the next can start. Controller.SetPipelineWindow
// raises that limit:
//
//	ctrl.SetPipelineWindow(4)
//	for i := 0; i < 4; i++ {
//		ctrl.Enter()
//		ctrl.Overwrite()
//		obj.Set(...)
//		_ = ctrl.Leave()       // DeferredSynchronous: returns immediately
//	}
//	for i := 0; i < 4; i++ {
//		err := ctrl.CoordCommit(ctx)  // outcomes collected in Leave order
//	}
//
// Up to W runs overlap, each proposal chained to its predecessor's proposed
// state through an explicit predecessor tuple; recipients validate and
// resolve runs in chain order, and a veto of run k rolls back the whole
// suffix k+1..W at every party — the paper's rollback rule generalized
// (ErrVetoed with a "predecessor rolled back" diagnostic). Outcome delivery
// is ordered per object: CoordCommit collects oldest-first and callbacks
// fire in Leave order. The window is a distribution policy, not application
// logic: W=1 (the default) reproduces the paper's serialized protocol
// exactly. See docs/ARCHITECTURE.md for the design and safety argument and
// docs/PROTOCOL.md for the wire format.
//
// # Batched delivery
//
// BatchedDelivery is the transport's throughput path: frames bound for one
// peer coalesce into multi-frame datagrams and acknowledgements into
// cumulative acks, flushed on a time/size window, with delivery semantics
// unchanged (eventual, once-only). Enable it per endpoint:
//
//	conn, _ := net.Endpoint("org-a", b2b.BatchedDelivery(time.Millisecond, 0))
//
// Batching composes with pipelining: overlapping runs share datagrams.
//
// # State transfer and catch-up
//
// Large objects do not ride inside a single Welcome frame: past the inline
// cap (default 64 KiB, WithTransfer) a join defers the state and the new
// member fetches it as a chunked, flow-controlled transfer session from the
// sponsor — or any other member, if the sponsor dies mid-transfer —
// verified against the agreed tuple the membership evidence authenticates.
// The same plane is the anti-entropy path for a member that missed commits
// (crash after responding, partition, a proposer that lost its
// retransmission outbox): Controller.CatchUp asks live peers for the
// missing state and installs it into engine and object:
//
//	net.Underlying().Heal()               // partition over
//	if err := ctrl.CatchUp(ctx); err != nil {
//		// no live peer could serve us
//	}
//
// A peer whose delta checkpoint chain still covers the stale member's
// tuple serves only the missing runs' update bytes — O(runs behind ·
// delta) instead of O(state) — each step folded through the application's
// ApplyUpdate and hash-verified exactly like crash recovery; otherwise a
// chunked snapshot travels. CatchUp degrades to a local Resync when every
// reachable peer confirms currency, so it is safe wherever Resync is used.
// See docs/ARCHITECTURE.md, "State transfer", for the safety argument and
// docs/PROTOCOL.md §9 for the session wire format.
//
// # Durable storage and retention
//
// WithFileStorage persists everything a party must survive a crash with —
// checkpoints of agreed states, in-flight run records, and the
// non-repudiation log — through the durability plane: one append-only
// segment WAL with group-commit fsync (one durability barrier per protocol
// step, barriers of overlapping runs coalesced), delta checkpoints for
// update-mode runs (the update bytes travel to disk, not the whole
// object), and bounded retention via compaction. WithDurability tunes the
// policy:
//
//	p, _ := b2b.NewParticipant(ident, td, conn,
//		b2b.WithFileStorage("/var/lib/b2b"),
//		b2b.WithDurability(b2b.DurabilityPolicy{
//			SegmentSize:   1 << 20,  // rotate segments at 1 MiB
//			CompactAt:     8 << 20,  // compact when the WAL passes 8 MiB
//			SnapshotEvery: 32,       // full snapshot every 32 delta checkpoints
//			RetainEntries: 512,      // evidence entries kept in the WAL
//		}))
//
// Compaction never destroys evidence: the pruned prefix of the
// non-repudiation log moves to an archive file and the cut is recorded as
// a signed anchor carrying the chain hash, so the retained suffix still
// verifies (nrlog.Verify) and archive + anchor reproduce the full chain
// for arbitration. Participant.EvidenceArchives lists the archives,
// Participant.StorageUsage reports the WAL's bounded on-disk size, and
// Participant.Compact forces a cycle. The plane is the only durable layout.
// See docs/ARCHITECTURE.md, "Durability plane".
//
// # Multi-tenant quotas and runtime introspection
//
// One Participant hosts many objects on one runtime: bindings are lazily
// materialized and idle objects hold no goroutine and under 1 KiB of
// memory, so an endpoint scales to tens of thousands of bound objects
// (cmd/b2bbench -exp E20). A shared worker pool schedules only objects
// with pending traffic,
// preserving per-object serial execution while isolating tenants from each
// other's backlogs. WithQuotas arms per-group resource caps and admission
// control:
//
//	p, _ := b2b.NewParticipant(ident, td, conn,
//		b2b.WithQuotas(b2b.QuotaPolicy{
//			MaxResidentPages: 4096,    // agreed-state footprint per group
//			MaxPendingBytes:  1 << 20, // inbound queue bytes per group
//			MaxSessions:      2,       // transfer sessions per group
//			MaxTotalSessions: 16,      // transfer sessions per endpoint
//		}))
//
// Inbound traffic past MaxPendingBytes is shed with a "quota-shed"
// evidence entry (the protocol's retransmission recovers liveness);
// Controller scopes that would start new coordination on an over-cap group
// fail with ErrQuotaExceeded. Participant.RuntimeStats and
// Participant.GroupUsage report scheduler and per-group usage;
// Participant.MetricsSnapshot and DumpMetrics unify coordination,
// transfer, storage and runtime counters behind one registry. See
// docs/ARCHITECTURE.md, "Multi-tenant runtime".
//
// # Module layout
//
// The public API lives in this root package (Participant, Controller,
// Object, TrustDomain). The machinery is under internal/:
//
//   - internal/transport — the communication substrate: an in-memory
//     fault-injecting network, a TCP transport, and the Reliable wrapper
//     providing the paper's eventual once-only delivery. Reliable optionally
//     batches: per-peer frame coalescing into multi-frame datagrams plus
//     cumulative acks (transport.WithBatching), with batch-aware journaling
//     (transport.FileJournal) so crash recovery retransmits exactly the
//     unacked set.
//   - internal/wire — canonical protocol message encodings, the signed
//     evidence envelope, and the multi-frame batch container.
//   - internal/coord — the propose/respond/commit coordination engine (§4.3).
//   - internal/group — connection/disconnection membership protocols (§4.5).
//   - internal/xfer — the state-transfer/anti-entropy plane: chunked,
//     flow-controlled sessions serving delta suffixes or snapshots, behind
//     deferred Welcomes and Controller.CatchUp.
//   - internal/core — the multi-tenant participant runtime: a shared
//     worker pool schedules only active objects (serially per object,
//     concurrently across objects) over one shared connection, with lazy
//     binding materialization, per-group quotas and admission control.
//   - internal/crypto, internal/nrlog, internal/store, internal/clock,
//     internal/tuple, internal/canon — identities and signing, the
//     non-repudiation log, checkpoint store, time, state tuples, encoding.
//   - internal/pagestate — the paged Merkle state identity behind every
//     tuple's HashState, and the copy-on-write replica representation that
//     makes per-run cost O(delta), independent of object size (tune with
//     WithPaging; see docs/ARCHITECTURE.md, "State identity").
//   - internal/lab, internal/faults — test worlds and adversarial fault
//     injection; internal/ttp, internal/rmi, internal/apps — §7 extensions,
//     remote invocation, example applications.
//
// Commands: cmd/b2bnode (a networked node), cmd/b2bdemo (a scripted demo),
// and cmd/b2bbench, which regenerates the paper's evaluation artefacts:
//
//	go run ./cmd/b2bbench -list     # enumerate experiments
//	go run ./cmd/b2bbench -exp all  # run everything
//	go run ./cmd/b2bbench -exp E15  # transport batching + multi-object throughput
//	go run ./cmd/b2bbench -exp E16  # pipelined coordination: runs/sec vs window W
//	go run ./cmd/b2bbench -exp E17  # durability plane: delta checkpoints, group commit
//	go run ./cmd/b2bbench -exp E17 -soak  # the CI soak: >=10k runs, bounded disk
//	go run ./cmd/b2bbench -exp E18  # state transfer: delta catch-up vs snapshot, chunked join
//	go run ./cmd/b2bbench -exp E19  # paged Merkle identity: O(delta) runs on large objects
//
// Benchmarks (message complexity, state size, communication modes, batching,
// multi-object and pipelined throughput) run with:
//
//	go test -bench . -benchtime 100x .
package b2b
