package transport

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"b2b/internal/store"
)

// TestFileJournalPersistence: across a restart the journal restores exactly
// the live outbox (the unacknowledged message, payload intact) and the
// dedup set.
func TestFileJournalPersistence(t *testing.T) {
	dir := t.TempDir()
	nw := NewNetwork(13)
	defer nw.Close()
	nw.Endpoint("carol")
	nw.Partition([]string{"a"}, []string{"carol"})

	j1 := openJournal(t, dir)
	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(j1))
	if err != nil {
		t.Fatal(err)
	}
	ra.SetHandler(func(string, []byte) {})
	bob, err := NewReliable(nw.Endpoint("bob"), WithRetryInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = bob.Close() }()
	bob.SetHandler(func(string, []byte) {})

	ctx := context.Background()
	if err := ra.Send(ctx, "bob", []byte("payload-1")); err != nil {
		t.Fatal(err)
	}
	if err := ra.Send(ctx, "carol", []byte("payload-2")); err != nil {
		t.Fatal(err)
	}
	if err := bob.Send(ctx, "a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return ra.PendingTo("bob") == 0 && bob.Pending() == 0 }, "bob exchange")
	_ = ra.Close()
	_ = j1.Close()

	ra2, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(time.Hour), WithJournal(openJournal(t, dir)))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = ra2.Close() }()
	ra2.mu.Lock()
	defer ra2.mu.Unlock()
	if len(ra2.outbox) != 1 {
		t.Fatalf("outbox = %d records, want 1", len(ra2.outbox))
	}
	for _, rec := range ra2.outbox {
		if rec.to != "carol" || string(bytes.Join(rec.payload, nil)) != "payload-2" {
			t.Fatalf("outbox record = %q to %q", rec.payload, rec.to)
		}
	}
	if len(ra2.seen) != 1 {
		t.Fatalf("seen = %v", ra2.seen)
	}
	for key := range ra2.seen {
		if !strings.HasPrefix(key, "bob/") {
			t.Fatalf("seen key %q", key)
		}
	}
}

// TestFileJournalCompact: send/ack cycles writing twice the plane's
// compaction threshold keep the journal's disk usage within the default
// bound — compaction happens by itself — and the acknowledged records stay
// retired across a restart.
func TestFileJournalCompact(t *testing.T) {
	dir := t.TempDir()
	nw := NewNetwork(19)
	defer nw.Close()
	j := openJournal(t, dir)
	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rb.Close() }()
	rb.SetHandler(func(string, []byte) {})

	pol := j.Policy()
	bound := pol.CompactAt + 2*int64(pol.SegmentSize)
	payload := make([]byte, 256<<10)
	cycles := int(2 * pol.CompactAt / int64(len(payload)))
	for i := 0; i < cycles; i++ {
		if err := ra.Send(context.Background(), "b", payload); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return ra.Pending() == 0 }, "ack")
		if du := j.DiskUsage(); du > bound {
			t.Fatalf("cycle %d: journal uses %d bytes, bound %d", i, du, bound)
		}
	}
	if st := j.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction after %d cycles (%d bytes written)", cycles, st.BytesWritten)
	}
	_ = ra.Close()
	_ = j.Close()

	ra2, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(time.Hour), WithJournal(openJournal(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ra2.Close() }()
	if got := ra2.Pending(); got != 0 {
		t.Fatalf("recovered outbox = %d after every message was acknowledged", got)
	}
}

// TestFileJournalTornTail: a crash mid-append leaves a partial frame at the
// tail of the newest segment; the journal still reopens with the intact
// outbox.
func TestFileJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	nw := NewNetwork(29)
	defer nw.Close()
	nw.Endpoint("b")
	nw.Partition([]string{"a"}, []string{"b"})

	j1 := openJournal(t, dir)
	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(j1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"first", "second"} {
		if err := ra.Send(context.Background(), "b", []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	_ = ra.Close()
	_ = j1.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	newest := filepath.Join(dir, names[len(names)-1])
	seg, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(seg, 0, 0, 0, 64, 0xde, 0xad, 0xbe, 0xef, 's', 'a', 'v', 'e')
	if err := os.WriteFile(newest, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	ra2, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(time.Hour), WithJournal(openJournal(t, dir)))
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	defer func() { _ = ra2.Close() }()
	ra2.mu.Lock()
	defer ra2.mu.Unlock()
	var got []string
	for _, rec := range ra2.outbox {
		got = append(got, string(bytes.Join(rec.payload, nil)))
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "first,second" {
		t.Fatalf("recovered outbox = %v, want [first second]", got)
	}
}

// TestOpenFileJournalRefusesLegacyFile: a JSON-lines journal file from an
// earlier release is refused with a clear error, not misread.
func TestOpenFileJournalRefusesLegacyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reliable.journal")
	if err := os.WriteFile(path, []byte(`{"op":"seen","key":"b/a-1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileJournal(path); err == nil || !strings.Contains(err.Error(), "not migrated") {
		t.Fatalf("OpenFileJournal over a legacy file: err = %v", err)
	}
}

func TestReliableWithFileJournalCrashRecovery(t *testing.T) {
	// A sender queues into a partition and crashes; restarted under the same
	// id from its journal, it delivers once the partition heals.
	dir := t.TempDir()
	nw := NewNetwork(17)
	defer nw.Close()
	nw.Partition([]string{"a"}, []string{"b"})

	j1 := openJournal(t, dir)
	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(j1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Send(context.Background(), "b", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	_ = ra.Close()
	_ = j1.Close()

	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rb.Close() }()
	var got collector
	rb.SetHandler(got.handler)

	nw.Heal()
	ra2, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(openJournal(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ra2.Close() }()

	got.waitFor(t, 1, 5*time.Second)
	if got.snapshot()[0] != "durable" {
		t.Fatalf("got %q", got.snapshot()[0])
	}
}

// TestMsgIDsUniqueAcrossRestart: both parties restart on their journals
// under the same ids. The receiver's persisted dedup set still holds the
// first incarnation's message ids, so a sender that reused them would see
// its fresh messages acknowledged and never delivered.
func TestMsgIDsUniqueAcrossRestart(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	nw := NewNetwork(31)
	defer nw.Close()
	// start brings both parties up on their journals; the returned stop
	// closes them, journals last, as a crash-free shutdown would.
	start := func() (*Reliable, *recorder, func()) {
		ja, jb := openJournal(t, dirA), openJournal(t, dirB)
		ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(ja))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(2*time.Millisecond), WithJournal(jb))
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		rb.SetHandler(rec.handler)
		return ra, rec, func() { _ = ra.Close(); _ = rb.Close(); _ = ja.Close(); _ = jb.Close() }
	}

	ra, rec, stop := start()
	for i := 0; i < 3; i++ {
		if err := ra.Send(context.Background(), "b", []byte(fmt.Sprintf("before-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return ra.Pending() == 0 && rec.total() == 3 }, "first incarnation")
	stop()

	ra2, rec2, stop2 := start()
	defer stop2()
	if err := ra2.Send(context.Background(), "b", []byte("after")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return ra2.Pending() == 0 }, "second incarnation ack")
	time.Sleep(10 * time.Millisecond)
	if got := rec2.count("after"); got != 1 {
		t.Fatalf("message sent after the restart delivered %d times, want 1", got)
	}
}

// TestSendFailsWhenJournalFails: a Send whose journal append fails returns
// the error and withdraws the message — it never reaches the wire.
func TestSendFailsWhenJournalFails(t *testing.T) {
	nw := NewNetwork(37)
	defer nw.Close()
	j := openJournal(t, t.TempDir())
	ra, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(2*time.Millisecond), WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ra.Close() }()
	rb, err := NewReliable(nw.Endpoint("b"), WithRetryInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rb.Close() }()
	rec := newRecorder()
	rb.SetHandler(rec.handler)

	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ra.Send(context.Background(), "b", []byte("not durable")); err == nil {
		t.Fatal("Send succeeded over a closed journal")
	}
	if got := ra.Pending(); got != 0 {
		t.Fatalf("Pending = %d after a failed Send, want 0", got)
	}
	time.Sleep(50 * time.Millisecond) // 25 retry floors
	if got := rec.total(); got != 0 {
		t.Fatalf("peer received %d messages from a failed Send", got)
	}
}

// journalSegment returns the segment a real journal writes for a short
// exchange: two outgoing messages, one acknowledged, one inbound dedup key.
func journalSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	nw := NewNetwork(41)
	defer nw.Close()
	j := openJournal(tb, dir)
	r, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(time.Hour), WithJournal(j))
	if err != nil {
		tb.Fatal(err)
	}
	r.SetHandler(func(string, []byte) {})
	for _, p := range []string{"acked", "pending"} {
		if err := r.Send(context.Background(), "b", []byte(p)); err != nil {
			tb.Fatal(err)
		}
	}
	r.handleAcks([]string{r.incarnation + "-1"})
	r.onRaw("b", encodeRel(relData, "x-1", []byte("inbound")).bytes())
	_ = r.Close()
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		tb.Fatalf("journal segments = %v, %v", entries, err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		tb.Fatal(err)
	}
	return seg
}

// FuzzJournalReplay feeds arbitrary bytes to OpenFileJournal + NewReliable
// as a journal segment. Replay must never panic: either the journal fails to
// open, or every restored outbox record re-encodes to a record present
// byte for byte in the segment.
func FuzzJournalReplay(f *testing.F) {
	golden := journalSegment(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000000.wal"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		nw := NewNetwork(1)
		defer nw.Close()
		j := openJournal(t, dir)
		r, err := NewReliable(nw.Endpoint("a"), WithRetryInterval(time.Hour), WithJournal(j))
		if err != nil {
			return
		}
		defer func() { _ = r.Close() }()
		r.mu.Lock()
		defer r.mu.Unlock()
		for msgID, rec := range r.outbox {
			want := append([]byte{byte(store.RecOutboxSave)}, marshalOutRecord(msgID, rec.to, rec.payload...)...)
			if !bytes.Contains(seg, want) {
				t.Fatalf("restored record %q does not re-encode to a record of the segment", msgID)
			}
		}
	})
}
