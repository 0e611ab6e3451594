package lab

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/faults"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// installLog is an accept-all application that records what reached it
// through the install upcall.
type installLog struct {
	coord.Validator
	mu    sync.Mutex
	t     tuple.State
	state []byte
	n     int
}

func (l *installLog) Installed(state *pagestate.Paged, t tuple.State) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t, l.state = t, state.Bytes()
	l.n++
}

func (l *installLog) last() (tuple.State, []byte, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t, l.state, l.n
}

// publishWorld is a two-party world on plane storage with a fault-injecting
// disk under bob, bootstrapped on obj with installLog applications.
func publishWorld(t *testing.T, obj string) (*World, map[string]*installLog) {
	t.Helper()
	w, err := NewWorld(Options{
		Seed:       26,
		StorageDir: t.TempDir(),
		DiskFaults: map[string]DiskSchedule{"bob": {}},
	}, "alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	apps := map[string]*installLog{"alice": {Validator: AcceptAllValidator()}, "bob": {Validator: AcceptAllValidator()}}
	if err := w.Bind(obj, func(id string) coord.Validator { return apps[id] }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(obj, []byte("v0"), []string{"alice", "bob"}); err != nil {
		t.Fatal(err)
	}
	return w, apps
}

// TestCommitPublishesAfterInstall pins the commit-application contract at a
// recipient: stage → barrier → install → publish. Alice's commit is held
// back until bob's disk parks every fsync on a gate, then delivered: while
// the commit's barrier is parked the run is staged but neither durable nor
// installed, so WaitQuiescent must not return and AgreedTuple must not
// move. Once the gate opens, the application object and the published tuple
// agree. (Publishing before the barrier let the Fig 5 transcript's next
// player move on a stale board.)
func TestCommitPublishesAfterInstall(t *testing.T) {
	const obj = "doc"
	w, apps := publishWorld(t, obj)
	alice, bob := w.Party("alice"), w.Party("bob")
	en := bob.Engine(obj)
	before := en.AgreedTuple()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	alice.Interceptor.SetOnSend(faults.DropEnvelopeKinds("bob", wire.KindCommit))
	if out, err := alice.Engine(obj).Propose(ctx, []byte("v1")); err != nil || !out.Valid {
		t.Fatalf("run outcome: valid=%v err=%v", out.Valid, err)
	}
	alice.Interceptor.SetOnSend(nil)

	parked, gate := make(chan struct{}), make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer release()
	bob.Disk.SetSyncDelay(func() {
		parkOnce.Do(func() { close(parked) })
		<-gate
	})
	for i, c := range alice.Interceptor.Captured() {
		if env, err := wire.UnmarshalEnvelope(c.Payload); err == nil && env.Kind == wire.KindCommit && c.To == "bob" {
			if err := alice.Interceptor.Replay(ctx, i); err != nil {
				t.Fatalf("replaying the commit: %v", err)
			}
		}
	}
	select {
	case <-parked:
	case <-ctx.Done():
		t.Fatal("bob's commit barrier never reached the disk")
	}

	qctx, qcancel := context.WithTimeout(ctx, 200*time.Millisecond)
	err := en.WaitQuiescent(qctx)
	qcancel()
	if err == nil {
		t.Error("WaitQuiescent returned while the commit's barrier was parked")
	}
	if got := en.AgreedTuple(); got != before {
		t.Errorf("AgreedTuple advanced to seq %d before the commit was durable and installed", got.Seq)
	}
	if _, _, n := apps["bob"].last(); n != 0 {
		t.Errorf("the application received %d installs before the commit was durable", n)
	}

	release()
	if err := en.WaitQuiescent(ctx); err != nil {
		t.Fatalf("WaitQuiescent after the barrier: %v", err)
	}
	tup, state := en.Agreed()
	gotT, gotState, n := apps["bob"].last()
	if n != 1 || gotT != tup || !bytes.Equal(gotState, state) || !bytes.Equal(state, []byte("v1")) {
		t.Fatalf("application holds seq %d %q after %d installs; agreed is seq %d %q", gotT.Seq, gotState, n, tup.Seq, state)
	}
}

// TestCommitOvertakingProposalInstalls: under §7 majority termination a
// commit may legitimately omit a member's response, so it can reach that
// member before the proposal does. The member refuses it then — it cannot
// yet verify the run — but must install it once the proposal arrives and is
// answered; the proposer sends its commit only once.
func TestCommitOvertakingProposalInstalls(t *testing.T) {
	const obj = "doc"
	ids := []string{"a", "b", "c", "d"}
	w, err := NewWorld(Options{Seed: 27, Termination: coord.Majority, ResponseDeadline: 50 * time.Millisecond}, ids...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind(obj, func(string) coord.Validator { return AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap(obj, []byte("v0"), ids); err != nil {
		t.Fatal(err)
	}
	a, d := w.Party("a"), w.Party("d")
	a.Interceptor.SetOnSend(faults.DropEnvelopeKinds("d", wire.KindPropose))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := a.Engine(obj).Propose(ctx, []byte("v1"))
	if err != nil || !out.Valid {
		t.Fatalf("run outcome: valid=%v err=%v", out.Valid, err)
	}
	for refused := false; !refused; time.Sleep(time.Millisecond) {
		if ctx.Err() != nil {
			t.Fatal("d never received the commit")
		}
		entries, _ := d.Log.ByRun(out.RunID)
		for _, e := range entries {
			refused = refused || e.Kind == "commit-rejected"
		}
	}

	a.Interceptor.SetOnSend(nil)
	for i, c := range a.Interceptor.Captured() {
		if env, err := wire.UnmarshalEnvelope(c.Payload); err == nil && env.Kind == wire.KindPropose && c.To == "d" {
			if err := a.Interceptor.Replay(ctx, i); err != nil {
				t.Fatalf("replaying the proposal: %v", err)
			}
			break
		}
	}
	if err := w.WaitAgreed(obj, ids, []byte("v1"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCatchUpCheckpointPublishesNothing: a catch-up install whose
// checkpoint cannot be made durable must report the failure and leave no
// trace an observer can see — the agreed tuple unchanged and no install
// upcall.
func TestFailedCatchUpCheckpointPublishesNothing(t *testing.T) {
	const obj = "doc"
	w, apps := publishWorld(t, obj)
	bob := w.Party("bob")
	en := bob.Engine(obj)
	before := en.AgreedTuple()

	state := []byte("caught up")
	next := tuple.NewStateSized(before.Seq+1, []byte("catch-up"), state, en.PageSize())
	_, syncs := bob.Disk.Counters()
	bob.Disk.FailSyncAt(syncs + 1)
	if err := en.InstallCatchUp(next, state); err == nil {
		t.Fatal("InstallCatchUp succeeded although its checkpoint's fsync failed")
	}
	if got := en.AgreedTuple(); got != before {
		t.Errorf("AgreedTuple moved to seq %d on a failed catch-up checkpoint", got.Seq)
	}
	if _, _, n := apps["bob"].last(); n != 0 {
		t.Errorf("the application received %d installs from a failed catch-up", n)
	}
}
