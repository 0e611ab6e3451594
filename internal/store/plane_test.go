package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// recConsumer is a minimal plane consumer: it records every payload of its
// kind and, at compaction, re-emits only the newest one (its "live set").
type recConsumer struct {
	kind RecordKind

	mu     sync.Mutex
	recs   [][]byte
	resets int
	opened int
}

func (c *recConsumer) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resets++
	c.recs = nil
}

func (c *recConsumer) Replay(kind RecordKind, payload []byte) error {
	if kind != c.kind {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, append([]byte(nil), payload...))
	return nil
}

func (c *recConsumer) Opened() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opened++
	return nil
}

func (c *recConsumer) Compact(emit func(kind RecordKind, payload []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.recs); n > 0 {
		live := c.recs[n-1]
		c.recs = [][]byte{live}
		return emit(c.kind, live)
	}
	return nil
}

func (c *recConsumer) add(payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, append([]byte(nil), payload...))
}

func (c *recConsumer) all() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.recs))
	for i, r := range c.recs {
		out[i] = append([]byte(nil), r...)
	}
	return out
}

func openTestPlane(t *testing.T, dir string, pol Policy) (*Plane, *recConsumer) {
	t.Helper()
	pl, err := OpenPlane(dir, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &recConsumer{kind: RecCheckpoint}
	pl.Attach(c)
	if err := pl.Start(); err != nil {
		t.Fatal(err)
	}
	return pl, c
}

func TestPlaneRoundtrip(t *testing.T) {
	dir := t.TempDir()
	pl, c := openTestPlane(t, dir, Policy{})
	var want [][]byte
	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("record-%02d", i))
		if err := pl.Append(RecCheckpoint, payload); err != nil {
			t.Fatal(err)
		}
		c.add(payload)
		want = append(want, payload)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	pl2, c2 := openTestPlane(t, dir, Policy{})
	defer func() { _ = pl2.Close() }()
	got := c2.all()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if c2.opened != 1 {
		t.Fatalf("Opened called %d times, want 1", c2.opened)
	}
}

func TestPlaneTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	pl, c := openTestPlane(t, dir, Policy{})
	for i := 0; i < 5; i++ {
		if err := pl.Append(RecCheckpoint, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
		c.add([]byte(fmt.Sprintf("r%d", i)))
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage half-frame at the segment tail.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, de := range names {
		if filepath.Ext(de.Name()) == ".wal" {
			segs = append(segs, de.Name())
		}
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(filepath.Join(dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0xFF, 0x13}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	pl2, c2 := openTestPlane(t, dir, Policy{})
	defer func() { _ = pl2.Close() }()
	if got := len(c2.all()); got != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", got)
	}
	// The plane stays appendable after recovery.
	if err := pl2.Append(RecCheckpoint, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
}

func TestPlaneRotationAndCompactionBoundDisk(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force frequent rotation; CompactAt forces compaction.
	pol := Policy{SegmentSize: 4 << 10, CompactAt: 16 << 10}
	pl, c := openTestPlane(t, dir, pol)
	defer func() { _ = pl.Close() }()

	payload := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 400; i++ {
		// The coord usage pattern: a few staged records, one barrier.
		if err := pl.AppendDeferred(RecCheckpoint, payload); err != nil {
			t.Fatal(err)
		}
		c.add(payload)
		if i%4 == 3 {
			if err := pl.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := pl.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	// Disk usage stays bounded: live set (one record) + at most the
	// compaction threshold of not-yet-compacted appends + one segment.
	bound := pol.CompactAt + int64(pol.SegmentSize) + 4<<10
	if st.DiskBytes > bound {
		t.Fatalf("disk usage %d exceeds bound %d after %d compactions", st.DiskBytes, bound, st.Compactions)
	}
	// Group commit: far fewer fsyncs than appends would cost per-event...
	if st.Fsyncs >= st.Appends {
		t.Fatalf("fsyncs %d >= appends %d: group commit not effective", st.Fsyncs, st.Appends)
	}

	// After reopen only the live set survives.
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	// After reopen the replayed set is the last compaction's live set (one
	// record) plus whatever was appended since — far below the 400 written.
	pl2, c2 := openTestPlane(t, dir, pol)
	defer func() { _ = pl2.Close() }()
	got := len(c2.all())
	if got < 1 || got > 40 {
		t.Fatalf("replayed %d records after compaction, want small live set", got)
	}
}

func TestPlaneGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	pl, _ := openTestPlane(t, dir, Policy{})
	defer func() { _ = pl.Close() }()

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := pl.Append(RecNrlogEntry, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("fsyncs %d >= appends %d: concurrent durable appends should share fsyncs", st.Fsyncs, st.Appends)
	}
	t.Logf("appends=%d fsyncs=%d (%.1f appends/fsync)", st.Appends, st.Fsyncs, float64(st.Appends)/float64(st.Fsyncs))
}

func TestPlaneClosedFails(t *testing.T) {
	pl, _ := openTestPlane(t, t.TempDir(), Policy{})
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Append(RecCheckpoint, []byte("x")); !errors.Is(err, ErrPlaneClosed) {
		t.Fatalf("append after close: %v, want ErrPlaneClosed", err)
	}
}
