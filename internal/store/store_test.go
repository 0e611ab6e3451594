package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"b2b/internal/tuple"
)

func sampleCheckpoint(object string, seq uint64, state string) Checkpoint {
	return Checkpoint{
		Object:  object,
		Tuple:   tuple.NewState(seq, []byte{byte(seq)}, []byte(state)),
		State:   []byte(state),
		Group:   tuple.InitialGroup([]string{"alice", "bob"}),
		Members: []string{"alice", "bob"},
		Time:    time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC),
	}
}

func testStoreSuite(t *testing.T, s Store) {
	t.Helper()

	// No checkpoint yet.
	if _, err := s.Latest("order"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty: %v", err)
	}

	// Save/Latest round-trip.
	cp1 := sampleCheckpoint("order", 1, "state-v1")
	if err := s.SaveCheckpoint(cp1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Latest("order")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != cp1.Tuple || !bytes.Equal(got.State, cp1.State) {
		t.Fatalf("Latest mismatch: %+v", got)
	}
	if len(got.Members) != 2 || got.Members[0] != "alice" {
		t.Fatalf("members = %v", got.Members)
	}

	// A delta chained on it becomes Latest; the reconstruction chain keeps
	// both (a store with bounded retention prunes only before
	// the latest full snapshot).
	cp2 := sampleCheckpoint("order", 2, "state-v2")
	cp2.State = nil
	cp2.Delta, cp2.Update, cp2.Pred = true, []byte("+v2"), cp1.Tuple
	if err := s.SaveCheckpoint(cp2); err != nil {
		t.Fatal(err)
	}
	got, err = s.Latest("order")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple.Seq != 2 || !got.Delta || !bytes.Equal(got.Update, cp2.Update) || got.Pred != cp1.Tuple {
		t.Fatalf("Latest = %+v", got)
	}
	chain, err := s.Chain("order")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].Tuple.Seq != 1 || chain[1].Tuple.Seq != 2 || chain[0].Delta || !chain[1].Delta {
		t.Fatalf("chain = %+v", chain)
	}

	// Separate objects are independent.
	if err := s.SaveCheckpoint(sampleCheckpoint("game", 5, "board")); err != nil {
		t.Fatal(err)
	}
	gameCP, err := s.Latest("game")
	if err != nil {
		t.Fatal(err)
	}
	if gameCP.Tuple.Seq != 5 {
		t.Fatal("cross-object leakage")
	}

	// Run records.
	r := RunRecord{
		RunID:    "run-1",
		Object:   "order",
		Role:     "proposer",
		Proposed: tuple.NewState(3, []byte("r"), []byte("v3")),
		State:    []byte("v3"),
		Auth:     []byte("auth-preimage"),
		Time:     time.Date(2002, 6, 23, 1, 0, 0, 0, time.UTC),
	}
	if err := s.SaveRun(r); err != nil {
		t.Fatal(err)
	}
	pend, err := s.PendingRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].RunID != "run-1" || !bytes.Equal(pend[0].Auth, r.Auth) {
		t.Fatalf("pending = %+v", pend)
	}
	if err := s.DeleteRun("run-1"); err != nil {
		t.Fatal(err)
	}
	pend, err = s.PendingRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 0 {
		t.Fatalf("pending after delete = %+v", pend)
	}
	// Deleting a missing run is not an error.
	if err := s.DeleteRun("nonexistent"); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryStore(t *testing.T) {
	testStoreSuite(t, NewMemory())
}

// TestMemoryStoreKeepsOnlyTheChain: a full checkpoint supersedes every
// checkpoint before it, so the memory store retains the reconstruction chain
// (the last full snapshot and its deltas) and no earlier snapshot.
func TestMemoryStoreKeepsOnlyTheChain(t *testing.T) {
	s := NewMemory()
	seq := uint64(0)
	save := func(delta bool) Checkpoint {
		seq++
		cp := sampleCheckpoint("order", seq, fmt.Sprintf("state-%d", seq))
		if delta {
			cp.Delta, cp.State, cp.Update = true, nil, []byte{byte(seq)}
		}
		if err := s.SaveCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	save(false)
	for range 3 {
		save(true)
	}
	want := []Checkpoint{save(false), save(true), save(true)}

	if n := len(s.cps["order"]); n != len(want) {
		t.Fatalf("retained %d checkpoints, want %d", n, len(want))
	}
	chain, err := s.Chain("order")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chain, want) {
		t.Fatalf("chain = %+v, want %+v", chain, want)
	}
	latest, err := s.Latest("order")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(latest, want[len(want)-1]) {
		t.Fatalf("latest = %+v, want %+v", latest, want[len(want)-1])
	}
}

// mustOpenFileStore opens the file-backed Store — a Segmented over a Plane,
// which is what WithFileStorage deploys — and closes its plane when the test
// ends.
func mustOpenFileStore(t *testing.T) Store {
	t.Helper()
	pl, st := openSegmented(t, t.TempDir(), Policy{})
	t.Cleanup(func() { _ = pl.Close() })
	return st
}

func TestFileStore(t *testing.T) {
	testStoreSuite(t, mustOpenFileStore(t))
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	pl, s := openSegmented(t, dir, Policy{})
	if err := s.SaveCheckpoint(sampleCheckpoint("order", 1, "v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveRun(RunRecord{RunID: "run-9", Object: "order", Role: "recipient"}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh plane over the same directory simulates crash+recovery.
	pl2, s2 := openSegmented(t, dir, Policy{})
	defer func() { _ = pl2.Close() }()
	cp, err := s2.Latest("order")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp.State, []byte("v1")) {
		t.Fatal("checkpoint lost across reopen")
	}
	pend, err := s2.PendingRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].RunID != "run-9" {
		t.Fatalf("pending runs lost: %+v", pend)
	}
}

func TestRollbackScenario(t *testing.T) {
	// The rollback path used by the coordinator: after a veto, the proposer
	// re-installs Latest (the last agreed state).
	s := NewMemory()
	agreed := sampleCheckpoint("order", 4, "agreed-state")
	if err := s.SaveCheckpoint(agreed); err != nil {
		t.Fatal(err)
	}
	// Proposer had optimistically moved to a proposed state (recorded only
	// as a pending run, never checkpointed).
	if err := s.SaveRun(RunRecord{RunID: "run-7", Object: "order", Role: "proposer", State: []byte("proposed-state")}); err != nil {
		t.Fatal(err)
	}
	// Veto: recover the agreed state.
	cp, err := s.Latest("order")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp.State, []byte("agreed-state")) {
		t.Fatal("rollback target is not the agreed state")
	}
	if err := s.DeleteRun("run-7"); err != nil {
		t.Fatal(err)
	}
}

func TestRunRecordRawPersistence(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Store
	}{
		{name: "memory", s: NewMemory()},
		{name: "file", s: mustOpenFileStore(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := []byte("signed-propose-bytes")
			if err := tc.s.SaveRun(RunRecord{
				RunID: "r-raw", Object: "o", Role: "proposer",
				Raw: raw, Auth: []byte("a"),
			}); err != nil {
				t.Fatal(err)
			}
			pend, err := tc.s.PendingRuns()
			if err != nil || len(pend) != 1 {
				t.Fatalf("pending=%v err=%v", pend, err)
			}
			if !bytes.Equal(pend[0].Raw, raw) {
				t.Fatalf("raw = %q", pend[0].Raw)
			}
		})
	}
}

func TestPendingRunsPipelineOrder(t *testing.T) {
	for _, mk := range []struct {
		name string
		mk   func(t *testing.T) Store
	}{
		{name: "memory", mk: func(*testing.T) Store { return NewMemory() }},
		{name: "file", mk: mustOpenFileStore},
	} {
		t.Run(mk.name, func(t *testing.T) {
			s := mk.mk(t)
			// Saved out of order, across two objects; PendingRuns must come
			// back ordered by object then proposal sequence, with each
			// record's predecessor tuple intact (pipeline recovery order).
			pred := tuple.NewState(1, []byte("r1"), []byte("s1"))
			recs := []RunRecord{
				{RunID: "c", Object: "obj", Proposed: tuple.NewState(3, []byte("r3"), []byte("s3")), Pred: tuple.NewState(2, []byte("r2"), []byte("s2")), Role: "proposer"},
				{RunID: "z", Object: "aaa", Proposed: tuple.NewState(9, []byte("r9"), []byte("s9")), Role: "proposer"},
				{RunID: "b", Object: "obj", Proposed: tuple.NewState(2, []byte("r2"), []byte("s2")), Pred: pred, Role: "proposer"},
			}
			for _, r := range recs {
				if err := s.SaveRun(r); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.PendingRuns()
			if err != nil {
				t.Fatal(err)
			}
			var order []string
			for _, r := range got {
				order = append(order, r.RunID)
			}
			want := []string{"z", "b", "c"}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("order = %v, want %v", order, want)
				}
			}
			if got[1].Pred != pred {
				t.Fatalf("Pred tuple not persisted: %+v", got[1].Pred)
			}
			if got[2].Pred.Seq != 2 {
				t.Fatalf("chained Pred = %+v", got[2].Pred)
			}
		})
	}
}
