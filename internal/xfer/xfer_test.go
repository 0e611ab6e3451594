package xfer_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/faults"
	"b2b/internal/lab"
	"b2b/internal/tuple"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

const obj = "ledger"

// bigState builds a deterministic pseudo-random state of n bytes.
func bigState(n int) []byte {
	out := make([]byte, n)
	x := uint32(2463534242)
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = byte(x)
	}
	return out
}

func joinCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestJoinDeferredWelcome: a joiner receives a Welcome without state and
// fetches it as a chunked snapshot session from the sponsor, verified
// against the evidence-authenticated agreed tuple.
func TestJoinDeferredWelcome(t *testing.T) {
	pol := xfer.Policy{ChunkSize: 16 << 10, RequestTimeout: 300 * time.Millisecond}
	w, err := lab.NewWorld(lab.Options{Seed: 42, Transfer: pol}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := bigState(200 << 10)
	if err := w.Bootstrap(obj, initial, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	if err := w.Party("c").Manager(obj).Join(joinCtx(t), "a"); err != nil {
		t.Fatalf("join: %v", err)
	}
	_, got := w.Party("c").Engine(obj).Agreed()
	if !bytes.Equal(got, initial) {
		t.Fatalf("joiner state: %d bytes, want %d", len(got), len(initial))
	}
	// Sponsor of the join is the most recently joined member, "b".
	st := w.Party("b").Xfer(obj).Stats()
	if st.SnapshotSessions != 1 {
		t.Fatalf("sponsor snapshot sessions = %d, want 1", st.SnapshotSessions)
	}
	if want := uint64((200<<10)/(16<<10)) + 1; st.ChunksSent < want-1 {
		t.Fatalf("sponsor sent %d chunks, want >= %d", st.ChunksSent, want-1)
	}
	cst := w.Party("c").Xfer(obj).Stats()
	if cst.SessionsFetched != 1 || cst.BytesFetched < 200<<10 {
		t.Fatalf("joiner fetch stats = %+v", cst)
	}
}

// TestCatchUpSnapshot: a member whose commits were selectively omitted
// (§4.4) catches up over the network from any live peer with a verified
// snapshot, and installs it into engine and store.
func TestCatchUpSnapshot(t *testing.T) {
	pol := xfer.Policy{RequestTimeout: 300 * time.Millisecond}
	w, err := lab.NewWorld(lab.Options{Seed: 44, Transfer: pol}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(obj, []byte("genesis"), []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	// The proposer omits its commit to c: c answers the run, then never
	// learns the outcome — a deterministically lagging party.
	w.Party("a").Interceptor.SetOnSend(faults.DropEnvelopeKinds("c", wire.KindCommit))

	ctx := joinCtx(t)
	newState := []byte("genesis+rev1")
	if _, err := w.Party("a").Engine(obj).Propose(ctx, newState); err != nil {
		t.Fatalf("propose: %v", err)
	}
	if err := w.WaitAgreed(obj, []string{"a", "b"}, newState, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, got := w.Party("c").Engine(obj).Agreed(); !bytes.Equal(got, []byte("genesis")) {
		t.Fatalf("c should be stale, agreed = %q", got)
	}

	advanced, err := w.Party("c").Xfer(obj).CatchUp(ctx)
	if err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if !advanced {
		t.Fatal("catch-up reported no progress")
	}
	if _, got := w.Party("c").Engine(obj).Agreed(); !bytes.Equal(got, newState) {
		t.Fatalf("c after catch-up: %q", got)
	}
	// A second catch-up is a no-op: every peer confirms currency.
	advanced, err = w.Party("c").Xfer(obj).CatchUp(ctx)
	if err != nil || advanced {
		t.Fatalf("second catch-up: advanced=%t err=%v", advanced, err)
	}
}

// TestCatchUpDeltas: with plane storage retaining the delta checkpoint
// chain, a member N runs behind syncs with O(N·delta) bytes — the delta
// suffix — instead of the full object, each step hash-verified.
func TestCatchUpDeltas(t *testing.T) {
	const stateSize = 256 << 10
	const runs = 24
	pol := xfer.Policy{RequestTimeout: 300 * time.Millisecond}
	w, err := lab.NewWorld(lab.Options{
		Seed:          45,
		Transfer:      pol,
		StorageDir:    t.TempDir(),
		SnapshotEvery: 1024,
	}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(obj, func(string) coord.Validator { return lab.PatchValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := bigState(stateSize)
	if err := w.Bootstrap(obj, initial, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	w.Party("a").Interceptor.SetOnSend(faults.DropEnvelopeKinds("c", wire.KindCommit))

	ctx := joinCtx(t)
	state := append([]byte(nil), initial...)
	for i := 0; i < runs; i++ {
		patch := lab.Patch(i*8, []byte{byte(i), 1, 2, 3})
		copy(state[i*8:], patch[4:])
		if _, err := w.Party("a").Engine(obj).ProposeUpdate(ctx, patch); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if err := w.WaitAgreed(obj, []string{"a", "b"}, state, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	advanced, err := w.Party("c").Xfer(obj).CatchUp(ctx)
	if err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if !advanced {
		t.Fatal("catch-up reported no progress")
	}
	if _, got := w.Party("c").Engine(obj).Agreed(); !bytes.Equal(got, state) {
		t.Fatal("c did not converge to the agreed state")
	}
	// The transfer must have been the delta suffix, orders of magnitude
	// smaller than the object.
	cst := w.Party("c").Xfer(obj).Stats()
	if cst.BytesFetched == 0 || cst.BytesFetched > stateSize/10 {
		t.Fatalf("delta catch-up moved %d bytes (object is %d)", cst.BytesFetched, stateSize)
	}
	served := false
	for _, id := range []string{"a", "b"} {
		if st := w.Party(id).Xfer(obj).Stats(); st.DeltaSessions > 0 {
			served = true
		}
	}
	if !served {
		t.Fatal("no peer served a delta session")
	}
}

// TestFetchResumesAfterChunkLoss: a transfer that loses its first chunk
// window re-opens the session at the requester's high-water mark and
// completes — the crash/loss-mid-transfer resumption rule.
func TestFetchResumesAfterChunkLoss(t *testing.T) {
	pol := xfer.Policy{ChunkSize: 4 << 10, Window: 4, RequestTimeout: 200 * time.Millisecond}
	w, err := lab.NewWorld(lab.Options{Seed: 46, Transfer: pol}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := bigState(64 << 10)
	if err := w.Bootstrap(obj, initial, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	// Drop the first 6 chunk transmissions from a, then heal.
	var dropped atomic.Int32
	drop := faults.DropEnvelopeKinds("b", wire.KindStateChunk)
	w.Party("a").Interceptor.SetOnSend(func(to string, payload []byte) (faults.Action, []byte) {
		act, repl := drop(to, payload)
		if act == faults.Drop {
			if dropped.Add(1) > 6 {
				return faults.Pass, nil
			}
		}
		return act, repl
	})

	ctx := joinCtx(t)
	res, err := w.Party("b").Xfer(obj).Fetch(ctx, "a", tuple.State{}, tuple.State{})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(res.State, initial) {
		t.Fatal("fetched state differs")
	}
	if dropped.Load() < 6 {
		t.Fatalf("fault injector only saw %d chunks", dropped.Load())
	}
}

// TestFetchEmptyState: an empty agreed state travels as a snapshot of no
// chunks and no unit hashes, which fold to the empty state's root.
func TestFetchEmptyState(t *testing.T) {
	pol := xfer.Policy{RequestTimeout: 100 * time.Millisecond}
	w, err := lab.NewWorld(lab.Options{Seed: 53, Transfer: pol}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(obj, []byte{}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := w.Party("b").Xfer(obj).Fetch(ctx, "a", tuple.State{}, tuple.State{})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if res.Mode != wire.XferSnapshot || len(res.State) != 0 || res.Chunks != 0 {
		t.Fatalf("fetched mode %v, %d bytes in %d chunks; want an empty snapshot", res.Mode, len(res.State), res.Chunks)
	}
}

// TestJoinFailsOverWhenSponsorDies: the sponsor welcomes the subject and
// then serves nothing (its transfer traffic is blackholed — a sponsor crash
// right after the Welcome); the joiner times the sponsor out and fetches
// the deferred state from another member.
func TestJoinFailsOverWhenSponsorDies(t *testing.T) {
	pol := xfer.Policy{ChunkSize: 16 << 10, RequestTimeout: 150 * time.Millisecond}
	w, err := lab.NewWorld(lab.Options{Seed: 47, Transfer: pol}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := bigState(128 << 10)
	if err := w.Bootstrap(obj, initial, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// Sponsor b answers the membership run and sends the Welcome, but its
	// transfer plane is dead.
	w.Party("b").Interceptor.SetOnSend(faults.DropEnvelopeKinds("",
		wire.KindStateOffer, wire.KindStateChunk, wire.KindStateDone))

	if err := w.Party("c").Manager(obj).Join(joinCtx(t), "a"); err != nil {
		t.Fatalf("join with dead sponsor: %v", err)
	}
	_, got := w.Party("c").Engine(obj).Agreed()
	if !bytes.Equal(got, initial) {
		t.Fatal("joiner state differs")
	}
	if st := w.Party("a").Xfer(obj).Stats(); st.SnapshotSessions == 0 {
		t.Fatal("failover peer a served no session")
	}
}

// TestRequesterRestartsSession: a requester that dies mid-transfer (its
// fetch is cancelled) and comes back opens a fresh session and completes;
// the sponsor's orphaned session is reaped by its idle timeout.
func TestRequesterRestartsSession(t *testing.T) {
	pol := xfer.Policy{ChunkSize: 4 << 10, Window: 2, RequestTimeout: 150 * time.Millisecond}
	w, err := lab.NewWorld(lab.Options{Seed: 48, Transfer: pol}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := bigState(64 << 10)
	if err := w.Bootstrap(obj, initial, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	// First attempt: the link eats every chunk, and the requester dies
	// (its fetch context expires) mid-transfer with the session incomplete.
	w.Party("a").Interceptor.SetOnSend(faults.DropEnvelopeKinds("b", wire.KindStateChunk))
	shortCtx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	_, err = w.Party("b").Xfer(obj).Fetch(shortCtx, "a", tuple.State{}, tuple.State{})
	cancel()
	if err == nil {
		t.Fatal("expected the interrupted fetch to fail")
	}
	w.Party("a").Interceptor.SetOnSend(nil)

	// The restarted requester succeeds with a fresh session.
	res, err := w.Party("b").Xfer(obj).Fetch(joinCtx(t), "a", tuple.State{}, tuple.State{})
	if err != nil {
		t.Fatalf("restarted fetch: %v", err)
	}
	if !bytes.Equal(res.State, initial) {
		t.Fatal("fetched state differs")
	}
}

// TestCorruptChunkRejectedAtReceipt: an on-path adversary corrupts a chunk's
// payload and recomputes its CRC, so the transport-level checksum passes.
// Under the flat-hash scheme this was only caught at the final whole-payload
// hash check, after the entire transfer; with the Merkle unit hashes inside
// the signed offer the requester rejects the chunk the moment it arrives —
// before StateDone — and the session completes through the resume rule once
// the genuine bytes are re-earned. Pages above pagestate.MaxPageSize are
// verified in their 4 MiB units like any other.
func TestCorruptChunkRejectedAtReceipt(t *testing.T) {
	for _, c := range []struct {
		name                 string
		pageSize, chunkSize  int
		stateSize, corruptAt int
	}{
		{"4KiB-pages", 0, 8 << 10, 64 << 10, 3},
		// One full 8 MiB page and one short page; chunk 1 is the second
		// unit of the full page.
		{"8MiB-pages", 8 << 20, 1 << 20, 9 << 20, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			pol := xfer.Policy{ChunkSize: c.chunkSize, Window: 2, RequestTimeout: 200 * time.Millisecond}
			w, err := lab.NewWorld(lab.Options{Seed: 49, Transfer: pol, PageSize: c.pageSize}, "a", "b")
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
				t.Fatal(err)
			}
			initial := bigState(c.stateSize)
			if err := w.Bootstrap(obj, initial, []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}

			// Corrupt the first transmission of one chunk: flip a payload
			// byte and recompute the CRC so only end-to-end verification
			// can catch it.
			var corrupted atomic.Int32
			w.Party("a").Interceptor.SetOnSend(func(to string, payload []byte) (faults.Action, []byte) {
				env, err := wire.UnmarshalEnvelope(payload)
				if err != nil || env.Kind != wire.KindStateChunk {
					return faults.Pass, nil
				}
				ch, err := wire.UnmarshalStateChunk(env.Payload)
				if err != nil || ch.Index != uint64(c.corruptAt) || !corrupted.CompareAndSwap(0, 1) {
					return faults.Pass, nil
				}
				ch.Payload = append([]byte(nil), ch.Payload...)
				ch.Payload[100] ^= 0xff
				ch.CRC = crc32.Checksum(ch.Payload, crc32.MakeTable(crc32.Castagnoli))
				env.Payload = ch.Marshal()
				return faults.Tamper, env.Marshal()
			})

			res, err := w.Party("b").Xfer(obj).Fetch(joinCtx(t), "a", tuple.State{}, tuple.State{})
			if err != nil {
				t.Fatalf("fetch despite transient corruption: %v", err)
			}
			if !bytes.Equal(res.State, initial) {
				t.Fatal("fetched state differs")
			}
			if corrupted.Load() != 1 {
				t.Fatalf("fault injector never corrupted chunk %d", c.corruptAt)
			}
			// The rejection must have happened at chunk receipt (evidence
			// kind state-chunk-rejected), not at the final payload-hash
			// check.
			entries, err := w.Party("b").Log.Entries()
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, e := range entries {
				if e.Kind == "state-chunk-rejected" {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("no state-chunk-rejected evidence: corruption was not caught at receipt")
			}
		})
	}
}

// TestWindowBoundsSponsorOutbox: the cumulative-ack window is a transfer's
// one flow control. The sponsor's transport outbox to the requester (frames
// sent and not yet acknowledged) stays below twice the window at every chunk
// it sends, however many chunks the snapshot has. The link is undelayed: the
// in-memory network then delivers each endpoint's datagrams in order, so the
// transport ack of a chunk is processed before the StateAck sent after it.
// On a delayed link each datagram is delivered by its own timer goroutine,
// either may be processed first, and the outbox briefly holds chunks the
// requester already has (under a loaded test run, 2 x window at 2 ms).
func TestWindowBoundsSponsorOutbox(t *testing.T) {
	for _, window := range []int{2, 4, 8} {
		t.Run(fmt.Sprint(window), func(t *testing.T) {
			pol := xfer.Policy{ChunkSize: 16 << 10, Window: window, RequestTimeout: time.Second}
			w, err := lab.NewWorld(lab.Options{Seed: 52, Transfer: pol}, "a", "b")
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
				t.Fatal(err)
			}
			initial := bigState(1 << 20) // 64 chunks
			if err := w.Bootstrap(obj, initial, []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}
			var chunks, peak atomic.Int32
			sponsor := w.Party("a")
			sponsor.Interceptor.SetOnSend(func(to string, payload []byte) (faults.Action, []byte) {
				env, err := wire.UnmarshalEnvelope(payload)
				if err != nil || env.Kind != wire.KindStateChunk {
					return faults.Pass, nil
				}
				chunks.Add(1)
				p := int32(sponsor.Rel.PendingTo(to))
				for old := peak.Load(); p > old && !peak.CompareAndSwap(old, p); old = peak.Load() {
				}
				return faults.Pass, nil
			})

			res, err := w.Party("b").Xfer(obj).Fetch(joinCtx(t), "a", tuple.State{}, tuple.State{})
			if err != nil {
				t.Fatalf("fetch: %v", err)
			}
			if !bytes.Equal(res.State, initial) {
				t.Fatal("fetched state differs")
			}
			t.Logf("window %d: %d chunk sends, outbox to the requester peaked at %d", window, chunks.Load(), peak.Load())
			if chunks.Load() < 64 {
				t.Fatalf("only %d chunk sends, want at least 64", chunks.Load())
			}
			if p := peak.Load(); p >= int32(2*window) {
				t.Fatalf("outbox to the requester reached %d at a chunk send, want below 2 x window = %d", p, 2*window)
			}
		})
	}
}

// TestForgedOfferRejected: a snapshot offer whose page hashes do not reach
// the agreed tuple's Merkle root is discarded outright — a sponsor cannot
// substitute a different state under its own valid signature.
func TestForgedOfferRejected(t *testing.T) {
	pol := xfer.Policy{ChunkSize: 8 << 10, RequestTimeout: 150 * time.Millisecond}
	w, err := lab.NewWorld(lab.Options{Seed: 50, Transfer: pol}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(obj, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(obj, bigState(32<<10), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one page hash in every outbound offer (and re-sign? The
	// interceptor is the sponsor itself here — it can sign anything, which
	// is exactly the attack the tuple-root binding defeats).
	w.Party("a").Interceptor.SetOnSend(func(to string, payload []byte) (faults.Action, []byte) {
		env, err := wire.UnmarshalEnvelope(payload)
		if err != nil || env.Kind != wire.KindStateOffer {
			return faults.Pass, nil
		}
		signed, err := wire.UnmarshalSigned(env.Payload)
		if err != nil {
			return faults.Pass, nil
		}
		offer, err := wire.UnmarshalStateOffer(signed.Body)
		if err != nil || offer.Mode != wire.XferSnapshot {
			return faults.Pass, nil
		}
		offer.PageHashes[0][0] ^= 0xff
		resigned := wire.Sign(wire.KindStateOffer, offer.Marshal(), w.Party("a").Ident, w.TSA)
		env.Payload = resigned.Marshal()
		return faults.Tamper, env.Marshal()
	})

	shortCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := w.Party("b").Xfer(obj).Fetch(shortCtx, "a", tuple.State{}, tuple.State{}); err == nil {
		t.Fatal("fetch completed under a forged offer")
	}
	entries, err := w.Party("b").Log.Entries()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Kind == "state-offer-merkle-mismatch" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("forged offer left no state-offer-merkle-mismatch evidence")
	}
}
