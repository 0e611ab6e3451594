package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"b2b/internal/crypto"
	"b2b/internal/tuple"
)

func openSegmented(t *testing.T, dir string, pol Policy) (*Plane, *Segmented) {
	t.Helper()
	pl, err := OpenPlane(dir, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := NewSegmented(pl)
	if err := pl.Start(); err != nil {
		t.Fatal(err)
	}
	return pl, st
}

func mkTuple(seq uint64, state []byte) tuple.State {
	var rnd []byte = crypto.MustNonce()
	return tuple.NewState(seq, rnd, state)
}

func TestSegmentedCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	pl, st := openSegmented(t, dir, Policy{})

	if _, err := st.Latest("order"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty store: %v", err)
	}

	state := []byte("full-state")
	cp := Checkpoint{
		Object:  "order",
		Tuple:   mkTuple(1, state),
		State:   state,
		Group:   tuple.InitialGroup([]string{"a", "b"}),
		Members: []string{"a", "b"},
		Time:    time.Date(2002, 6, 23, 12, 0, 0, 0, time.UTC),
	}
	if err := st.SaveCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	pl2, st2 := openSegmented(t, dir, Policy{})
	defer func() { _ = pl2.Close() }()
	got, err := st2.Latest("order")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != cp.Tuple || !bytes.Equal(got.State, state) || got.Group != cp.Group ||
		len(got.Members) != 2 || !got.Time.Equal(cp.Time) {
		t.Fatalf("checkpoint did not roundtrip: %+v", got)
	}
}

func TestSegmentedDeltaChain(t *testing.T) {
	dir := t.TempDir()
	pl, st := openSegmented(t, dir, Policy{})

	base := []byte("v0")
	t0 := mkTuple(1, base)
	if err := st.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: t0, State: base}); err != nil {
		t.Fatal(err)
	}
	// Two deltas chained on the snapshot.
	s1 := append(append([]byte(nil), base...), []byte("+u1")...)
	t1 := mkTuple(2, s1)
	if err := st.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: t1, Delta: true, Update: []byte("+u1"), Pred: t0}); err != nil {
		t.Fatal(err)
	}
	s2 := append(append([]byte(nil), s1...), []byte("+u2")...)
	t2 := mkTuple(3, s2)
	if err := st.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: t2, Delta: true, Update: []byte("+u2"), Pred: t1}); err != nil {
		t.Fatal(err)
	}

	// A delta that does not chain from the tip is refused.
	err := st.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: mkTuple(9, nil), Delta: true, Update: []byte("+bad"), Pred: t0})
	if err == nil {
		t.Fatal("mis-chained delta accepted")
	}
	// A delta for an object with no snapshot is refused.
	if err := st.SaveCheckpoint(Checkpoint{Object: "ghost", Tuple: mkTuple(1, nil), Delta: true, Update: []byte("u")}); err == nil {
		t.Fatal("orphan delta accepted")
	}

	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	pl2, st2 := openSegmented(t, dir, Policy{})
	defer func() { _ = pl2.Close() }()
	chain, err := st2.Chain("obj")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length %d, want 3", len(chain))
	}
	if chain[0].Delta || !bytes.Equal(chain[0].State, base) {
		t.Fatalf("chain head is not the snapshot: %+v", chain[0])
	}
	if !chain[1].Delta || !bytes.Equal(chain[1].Update, []byte("+u1")) || chain[1].Pred != t0 {
		t.Fatalf("first delta wrong: %+v", chain[1])
	}
	if !chain[2].Delta || chain[2].Pred != t1 || chain[2].Tuple != t2 {
		t.Fatalf("second delta wrong: %+v", chain[2])
	}
	latest, err := st2.Latest("obj")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Tuple != t2 {
		t.Fatalf("Latest tuple %v, want %v", latest.Tuple, t2)
	}

	// A new snapshot starts a fresh chain (retention bound).
	t3 := mkTuple(4, s2)
	if err := st2.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: t3, State: s2}); err != nil {
		t.Fatal(err)
	}
	chain, err = st2.Chain("obj")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0].Tuple != t3 {
		t.Fatalf("snapshot did not reset the chain: %d elements", len(chain))
	}
}

// TestSegmentedDuplicateCheckpointTolerated: a checkpoint staged
// concurrently with a compaction is written twice; replay must fold the
// identical copy of the chain tip into one.
func TestSegmentedDuplicateCheckpointTolerated(t *testing.T) {
	dir := t.TempDir()
	pl, st := openSegmented(t, dir, Policy{})
	base := []byte("v0")
	t0 := mkTuple(1, base)
	if err := st.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: t0, State: base}); err != nil {
		t.Fatal(err)
	}
	s1 := append(append([]byte(nil), base...), []byte("+u")...)
	t1 := mkTuple(2, s1)
	delta := Checkpoint{Object: "obj", Tuple: t1, Delta: true, Update: []byte("+u"), Pred: t0}
	if err := st.SaveCheckpoint(delta); err != nil {
		t.Fatal(err)
	}
	if err := pl.Append(RecCheckpointDelta, encodeCheckpoint(delta)); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	pl2, st2 := openSegmented(t, dir, Policy{})
	defer func() { _ = pl2.Close() }()
	chain, err := st2.Chain("obj")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[1].Tuple != t1 {
		t.Fatalf("chain after duplicate tip: %d elements", len(chain))
	}
}

// TestSegmentedMembershipRecheckpoint: a membership change re-checkpoints
// the same state tuple under a new group; that must replace the chain tip
// (and survive replay), not be mistaken for a duplicate record.
func TestSegmentedMembershipRecheckpoint(t *testing.T) {
	dir := t.TempDir()
	pl, st := openSegmented(t, dir, Policy{})
	base := []byte("v0")
	t0 := mkTuple(1, base)
	g1 := tuple.InitialGroup([]string{"a", "b"})
	if err := st.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: t0, State: base, Group: g1, Members: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	g2 := tuple.NewGroup(g1.Seq+1, crypto.MustNonce(), []string{"a", "b", "c"})
	if err := st.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: t0, State: base, Group: g2, Members: []string{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Compact(); err != nil { // the membership record must be in the live set
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	pl2, st2 := openSegmented(t, dir, Policy{})
	defer func() { _ = pl2.Close() }()
	got, err := st2.Latest("obj")
	if err != nil {
		t.Fatal(err)
	}
	if got.Group != g2 || len(got.Members) != 3 {
		t.Fatalf("membership checkpoint lost: group %v members %v", got.Group, got.Members)
	}
}

func TestSegmentedRunRecords(t *testing.T) {
	dir := t.TempDir()
	pl, st := openSegmented(t, dir, Policy{})

	for i := 0; i < 3; i++ {
		r := RunRecord{
			RunID:    fmt.Sprintf("run-%d", i),
			Object:   "obj",
			Role:     "proposer",
			Proposed: mkTuple(uint64(i+2), []byte("s")),
			Pred:     mkTuple(uint64(i+1), []byte("p")),
			Auth:     []byte{byte(i)},
			Raw:      bytes.Repeat([]byte{0xAA}, 16),
			Time:     time.Date(2002, 6, 23, 0, 0, i, 0, time.UTC),
		}
		if err := st.SaveRun(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.DeleteRun("run-1"); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	pl2, st2 := openSegmented(t, dir, Policy{})
	defer func() { _ = pl2.Close() }()
	runs, err := st2.PendingRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("pending runs %d, want 2 (one deleted)", len(runs))
	}
	if runs[0].RunID != "run-0" || runs[1].RunID != "run-2" {
		t.Fatalf("pending runs misordered: %s, %s", runs[0].RunID, runs[1].RunID)
	}
	if runs[0].Role != "proposer" || !bytes.Equal(runs[0].Auth, []byte{0}) || len(runs[0].Raw) != 16 {
		t.Fatalf("run record did not roundtrip: %+v", runs[0])
	}
}

func TestSegmentedCompactionRetainsLiveSet(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{SegmentSize: 8 << 10, CompactAt: 32 << 10}
	pl, st := openSegmented(t, dir, pol)
	defer func() { _ = pl.Close() }()

	// Many full snapshots: dead weight for the compactor.
	state := bytes.Repeat([]byte("s"), 1024)
	var last tuple.State
	for i := 0; i < 200; i++ {
		last = mkTuple(uint64(i+1), state)
		if err := st.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: last, State: state}); err != nil {
			t.Fatal(err)
		}
	}
	pending := RunRecord{RunID: "live-run", Object: "obj", Proposed: mkTuple(999, nil)}
	if err := st.SaveRun(pending); err != nil {
		t.Fatal(err)
	}
	if err := pl.Compact(); err != nil {
		t.Fatal(err)
	}
	if usage := pl.DiskUsage(); usage > pol.CompactAt {
		t.Fatalf("disk usage %d after forced compaction, want <= %d", usage, pol.CompactAt)
	}
	// Live state intact after compaction + reopen.
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	pl2, st2 := openSegmented(t, dir, pol)
	defer func() { _ = pl2.Close() }()
	got, err := st2.Latest("obj")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != last {
		t.Fatalf("latest checkpoint lost in compaction: %v != %v", got.Tuple, last)
	}
	runs, err := st2.PendingRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].RunID != "live-run" {
		t.Fatalf("pending run lost in compaction: %+v", runs)
	}
}

// TestMemoryDefensiveCopies is the regression test for the aliasing bug:
// Latest/Chain used to return Checkpoints whose State and Members slices
// aliased the stored copies, so a caller mutating the returned state
// silently corrupted history.
func TestMemoryDefensiveCopies(t *testing.T) {
	s := NewMemory()
	state := []byte("agreed-state")
	cp := Checkpoint{
		Object:  "obj",
		Tuple:   mkTuple(1, state),
		State:   state,
		Members: []string{"alice", "bob"},
	}
	if err := s.SaveCheckpoint(cp); err != nil {
		t.Fatal(err)
	}

	got, err := s.Latest("obj")
	if err != nil {
		t.Fatal(err)
	}
	got.State[0] = 'X'
	got.Members[0] = "mallory"

	chain, err := s.Chain("obj")
	if err != nil {
		t.Fatal(err)
	}
	chain[0].State[1] = 'Y'
	chain[0].Members[1] = "eve"

	clean, err := s.Latest("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean.State, []byte("agreed-state")) {
		t.Fatalf("stored state corrupted through returned alias: %q", clean.State)
	}
	if clean.Members[0] != "alice" || clean.Members[1] != "bob" {
		t.Fatalf("stored members corrupted through returned alias: %v", clean.Members)
	}

	// The same guarantee for delta checkpoints' Update bytes.
	upd := []byte("delta-bytes")
	if err := s.SaveCheckpoint(Checkpoint{Object: "obj", Tuple: mkTuple(2, nil), Delta: true, Update: upd, Pred: cp.Tuple}); err != nil {
		t.Fatal(err)
	}
	d, err := s.Latest("obj")
	if err != nil {
		t.Fatal(err)
	}
	d.Update[0] = 'Z'
	clean, err = s.Latest("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean.Update, []byte("delta-bytes")) {
		t.Fatalf("stored update corrupted through returned alias: %q", clean.Update)
	}
}
