package lab

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/faults"
	"b2b/internal/wire"
	"b2b/internal/xfer"
)

// These are the state-transfer scenarios of the lab: a partitioned member
// that is evicted, comes back and re-enters through a Welcome and a
// chunked transfer session; and a requester whose durability plane dies
// mid-transfer and recovers across a process restart. Both run with deterministic seeds and
// deterministic keys so restarted worlds verify their predecessors' state.

const xferObj = "shared-ledger"

func xferState(n int) []byte {
	out := make([]byte, n)
	x := uint32(88172645)
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = byte(x)
	}
	return out
}

// TestPartitionEvictRejoinChunked: c is partitioned away; the remaining
// members evict it and keep advancing the object; after the partition heals
// c's anti-entropy request is refused (it is no longer a member), so it
// resets and rejoins — receiving the now-large state as a chunked transfer
// session instead of one giant Welcome frame.
func TestPartitionEvictRejoinChunked(t *testing.T) {
	pol := xfer.Policy{ChunkSize: 16 << 10, RequestTimeout: 150 * time.Millisecond}
	w, err := NewWorld(Options{
		Seed:              71,
		Transfer:          pol,
		StorageDir:        t.TempDir(),
		DeterministicKeys: true,
		SnapshotEvery:     1024,
	}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Bind(xferObj, func(string) coord.Validator { return PatchValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := xferState(128 << 10)
	if err := w.Bootstrap(xferObj, initial, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Partition c, then evict it: disconnection does not need the
	// evictee's participation (§4.5.1).
	w.Net.Partition([]string{"a", "b"}, []string{"c"})
	if err := w.Party("a").Manager(xferObj).Evict(ctx, "c"); err != nil {
		t.Fatalf("evict: %v", err)
	}

	// The surviving pair advances the object.
	state := append([]byte(nil), initial...)
	for i := 0; i < 8; i++ {
		patch := Patch(i*16, []byte{0xee, byte(i)})
		copy(state[i*16:], patch[4:])
		if _, err := w.Party("a").Engine(xferObj).ProposeUpdate(ctx, patch); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if err := w.WaitAgreed(xferObj, []string{"a", "b"}, state, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	w.Net.Heal()

	// c's anti-entropy path is closed: it is not a member any more, so no
	// peer serves it and catch-up times out without progress.
	cuCtx, cuCancel := context.WithTimeout(ctx, 3*time.Second)
	advanced, err := w.Party("c").Xfer(xferObj).CatchUp(cuCtx)
	cuCancel()
	if advanced || err == nil {
		t.Fatalf("evicted member caught up: advanced=%t err=%v", advanced, err)
	}

	// The way back in is the connection protocol; the Welcome carries no
	// state, so the rebuilt state arrives as a chunked transfer session.
	w.Party("c").Engine(xferObj).Reset()
	if err := w.Party("c").Manager(xferObj).Join(ctx, "a"); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if _, got := w.Party("c").Engine(xferObj).Agreed(); !bytes.Equal(got, state) {
		t.Fatal("rejoined member did not converge")
	}
	served := w.Party("a").Xfer(xferObj).Stats().SnapshotSessions +
		w.Party("b").Xfer(xferObj).Stats().SnapshotSessions
	if served == 0 {
		t.Fatal("rejoin did not use the transfer plane")
	}
}

// TestCrashMidTransferDiskFault: the requester's durability plane dies
// (injected fsync failure) while it is catching up; the party restarts over
// the same WAL, restores, and completes catch-up from the surviving peers.
// Uses the first-class injection knobs: Options.DiskFaults arms the party's
// faults.DiskFS (exposed as Party.Disk), and World.Crash/Restart replace
// the whole-world teardown-and-rebuild the original test needed — the
// surviving peers keep running throughout.
func TestCrashMidTransferDiskFault(t *testing.T) {
	dir := t.TempDir()
	pol := xfer.Policy{RequestTimeout: 150 * time.Millisecond}
	opts := Options{
		Seed:              72,
		Transfer:          pol,
		StorageDir:        dir,
		DeterministicKeys: true,
		SnapshotEvery:     1024,
		DiskFaults:        map[string]DiskSchedule{"c": {}},
	}
	w, err := NewWorld(opts, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cFS := w.Party("c").Disk
	if err := w.Bind(xferObj, func(string) coord.Validator { return PatchValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	initial := xferState(64 << 10)
	if err := w.Bootstrap(xferObj, initial, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// c answers runs but never sees their commits: deterministically stale.
	w.Party("a").Interceptor.SetOnSend(faults.DropEnvelopeKinds("c", wire.KindCommit))
	state := append([]byte(nil), initial...)
	for i := 0; i < 6; i++ {
		patch := Patch(i*4, []byte{0xaa, byte(i)})
		copy(state[i*4:], patch[4:])
		if _, err := w.Party("a").Engine(xferObj).ProposeUpdate(ctx, patch); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if err := w.WaitAgreed(xferObj, []string{"a", "b"}, state, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The next fsync on c's plane fails: its catch-up session dies with the
	// durability plane (fail-stop), before anything could be installed.
	_, syncs := cFS.Counters()
	cFS.FailSyncAt(syncs + 1)
	cuCtx, cuCancel := context.WithTimeout(ctx, 2*time.Second)
	advanced, err := w.Party("c").Xfer(xferObj).CatchUp(cuCtx)
	cuCancel()
	if advanced || err == nil {
		t.Fatalf("catch-up survived a dead plane: advanced=%t err=%v", advanced, err)
	}
	if !cFS.Crashed() {
		t.Fatal("disk fault never tripped")
	}
	if _, got := w.Party("c").Engine(xferObj).Agreed(); !bytes.Equal(got, initial) {
		t.Fatal("a failed catch-up must not move the agreed state")
	}

	// Crash only c and bring it back: same WAL, clean disk, fresh stack and
	// endpoint. Restart rebinds and restores; then c catches up for real
	// from the still-running peers.
	w.Crash("c")
	c, err := w.Restart("c")
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if _, got := c.Engine(xferObj).Agreed(); !bytes.Equal(got, initial) {
		t.Fatal("c restored to an unexpected state")
	}
	advanced, err = c.Xfer(xferObj).CatchUp(ctx)
	if err != nil {
		t.Fatalf("catch-up after restart: %v", err)
	}
	if !advanced {
		t.Fatal("catch-up after restart made no progress")
	}
	if _, got := c.Engine(xferObj).Agreed(); !bytes.Equal(got, state) {
		t.Fatal("c did not converge after restart")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
}
