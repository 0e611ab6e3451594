package nrlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/store"
)

func openSegLog(t *testing.T, dir string, pol store.Policy, signer *crypto.Identity) (*store.Plane, *Segmented) {
	t.Helper()
	pl, err := store.OpenPlane(dir, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewSim(time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC))
	l := OpenSegmented(pl, clk, signer)
	if err := pl.Start(); err != nil {
		t.Fatal(err)
	}
	return pl, l
}

func TestSegmentedLogAppendVerifyReopen(t *testing.T) {
	dir := t.TempDir()
	pl, l := openSegLog(t, dir, store.Policy{}, nil)

	for i := 0; i < 25; i++ {
		if _, err := l.AppendSeq(fmt.Sprintf("run-%d", i%3), uint64(i), "obj", "propose", "alice", DirSent, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 25 {
		t.Fatalf("Len %d, want 25", l.Len())
	}
	byRun, err := l.ByRun("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(byRun) != 9 && len(byRun) != 8 {
		t.Fatalf("ByRun returned %d entries", len(byRun))
	}
	for _, e := range byRun {
		if e.RunID != "run-1" {
			t.Fatalf("ByRun returned foreign entry %q", e.RunID)
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	pl2, l2 := openSegLog(t, dir, store.Policy{}, nil)
	defer func() { _ = pl2.Close() }()
	if l2.Len() != 25 {
		t.Fatalf("Len after reopen %d, want 25", l2.Len())
	}
	if err := l2.Verify(); err != nil {
		t.Fatalf("verify after reopen: %v", err)
	}
	entries, err := l2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entries[24].Payload, []byte("payload-24")) {
		t.Fatalf("tail entry payload %q", entries[24].Payload)
	}
	// Appending after reopen continues the chain.
	if _, err := l2.Append("run-x", "obj", "commit", "alice", DirSent, []byte("more")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedLogAnchoredTruncation(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewSim(time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC))
	ca, err := crypto.NewCA("ca", clk, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := crypto.NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	ident, err := crypto.NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	ca.Issue(ident)
	vfr := crypto.NewVerifier(ca, tsa)
	if err := vfr.AddCertificate(ident.Certificate()); err != nil {
		t.Fatal(err)
	}

	pol := store.Policy{RetainEntries: 10}
	pl, l := openSegLog(t, dir, pol, ident)

	const total = 60
	for i := 0; i < total; i++ {
		if _, err := l.Append(fmt.Sprintf("run-%d", i), "obj", "propose", "alice", DirSent, []byte(fmt.Sprintf("p-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Force a compaction: the log prunes down to RetainEntries behind a
	// signed anchor and archives the rest.
	if err := pl.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := l.Retained(); got != pol.RetainEntries {
		t.Fatalf("retained %d entries after compaction, want %d", got, pol.RetainEntries)
	}
	if l.Len() != total {
		t.Fatalf("Len %d after truncation, want %d (pruned entries still count)", l.Len(), total)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("verify across anchor: %v", err)
	}
	a := l.Anchor()
	if a == nil {
		t.Fatal("no anchor after truncation")
	}
	if a.BaseSeq != total-uint64(pol.RetainEntries) {
		t.Fatalf("anchor base seq %d, want %d", a.BaseSeq, total-pol.RetainEntries)
	}
	if err := a.VerifySig(vfr); err != nil {
		t.Fatalf("anchor signature: %v", err)
	}
	archives, err := l.Archives()
	if err != nil {
		t.Fatal(err)
	}
	if len(archives) != 1 || archives[0] != a.Archive {
		t.Fatalf("archives %v, want [%s]", archives, a.Archive)
	}

	// Evidence keeps accruing and verifying across the cut, and survives
	// another reopen.
	for i := 0; i < 5; i++ {
		if _, err := l.Append("post", "obj", "commit", "alice", DirSent, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	pl2, l2 := openSegLog(t, dir, pol, ident)
	defer func() { _ = pl2.Close() }()
	if l2.Len() != total+5 {
		t.Fatalf("Len after reopen %d, want %d", l2.Len(), total+5)
	}
	if err := l2.Verify(); err != nil {
		t.Fatalf("verify after reopen across anchor: %v", err)
	}
	a2 := l2.Anchor()
	if a2 == nil || a2.BaseSeq != a.BaseSeq || a2.BaseHash != a.BaseHash {
		t.Fatalf("anchor did not survive reopen: %+v", a2)
	}
	if err := a2.VerifySig(vfr); err != nil {
		t.Fatalf("anchor signature after reopen: %v", err)
	}

	// The pruned evidence is in the archive, readable and verified by
	// ReadArchive, and its chain splices onto the anchor.
	archEntries, err := ReadArchive(filepath.Join(dir, "archive", a.Archive))
	if err != nil {
		t.Fatalf("archive unreadable: %v", err)
	}
	if len(archEntries) != int(a.BaseSeq) {
		t.Fatalf("archive holds %d entries, want %d", len(archEntries), a.BaseSeq)
	}
	if archEntries[len(archEntries)-1].Hash != a.BaseHash {
		t.Fatal("archive tail hash does not match the anchor's base hash")
	}
}

// TestSegmentedLogDuplicateRecordTolerated: an entry staged concurrently
// with a compaction is written twice (once in the compacted live set, once
// as a regular record); replay must treat the identical copy as one entry,
// but conflicting copies under one sequence number as tampering.
func TestSegmentedLogDuplicateRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	pl, l := openSegLog(t, dir, store.Policy{}, nil)
	var last Entry
	for i := 0; i < 5; i++ {
		e, err := l.Append("r", "obj", "k", "p", DirLocal, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		last = e
	}
	if err := pl.Append(store.RecNrlogEntry, encodeEntry(last)); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	pl2, l2 := openSegLog(t, dir, store.Policy{}, nil)
	defer func() { _ = pl2.Close() }()
	if l2.Len() != 5 {
		t.Fatalf("Len %d after duplicate record, want 5", l2.Len())
	}
	if err := l2.Verify(); err != nil {
		t.Fatal(err)
	}

	// A conflicting copy (same seq, different content) refuses to open.
	forged := last
	forged.Payload = []byte("forged")
	forged.Hash = entryHash(&forged)
	if err := pl2.Append(store.RecNrlogEntry, encodeEntry(forged)); err != nil {
		t.Fatal(err)
	}
	if err := pl2.Close(); err != nil {
		t.Fatal(err)
	}
	pl3, err := store.OpenPlane(dir, store.Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	OpenSegmented(pl3, clock.NewSim(time.Unix(0, 0)), nil)
	if err := pl3.Start(); err == nil {
		_ = pl3.Close()
		t.Fatal("conflicting entry copies opened cleanly")
	}
}

func TestSegmentedLogTamperDetected(t *testing.T) {
	dir := t.TempDir()
	pl, l := openSegLog(t, dir, store.Policy{}, nil)
	for i := 0; i < 5; i++ {
		if _, err := l.Append("r", "obj", "k", "p", DirLocal, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// In-memory tampering is caught by Verify (the on-disk analogue is
	// covered by the CRC framing and, for archives, by
	// TestFileDetectsOnDiskTampering).
	l.mu.Lock()
	l.entries[2].Payload = []byte("forged")
	l.mu.Unlock()
	if err := l.Verify(); err == nil {
		t.Fatal("tampered entry passed verification")
	}
	_ = pl.Close()
}

// writeTestArchive appends entries (RunSeq = index+1) to a segmented log that
// retains one entry, compacts so the rest move to an archive, and returns the
// archive's path with the anchor of the cut.
func writeTestArchive(t *testing.T, payloads ...string) (string, *Anchor) {
	t.Helper()
	dir := t.TempDir()
	pl, l := openSegLog(t, dir, store.Policy{RetainEntries: 1}, nil)
	defer func() { _ = pl.Close() }()
	for i, p := range payloads {
		if _, err := l.AppendSeq(fmt.Sprintf("run-%d", i), uint64(i+1), "obj", "propose", "alice", DirSent, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Compact(); err != nil {
		t.Fatal(err)
	}
	a := l.Anchor()
	if a == nil {
		t.Fatal("no anchor after compaction")
	}
	return filepath.Join(dir, "archive", a.Archive), a
}

// readArchiveLines returns the JSON lines of an archive file.
func readArchiveLines(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
}

// writeArchiveLines overwrites an archive file with the given JSON lines.
func writeArchiveLines(t *testing.T, path string, lines [][]byte) {
	t.Helper()
	if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileRoundTripAndRecovery: evidence moved to an archive file reads back
// intact, and its chain splices onto the anchor the live log keeps.
func TestFileRoundTripAndRecovery(t *testing.T) {
	payloads := []string{"propose run-1", "respond run-1", "commit run-1", "retained"}
	path, a := writeTestArchive(t, payloads...)
	entries, err := ReadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(payloads)-1 {
		t.Fatalf("archive holds %d entries, want %d", len(entries), len(payloads)-1)
	}
	for i, e := range entries {
		if string(e.Payload) != payloads[i] {
			t.Fatalf("entry %d payload %q, want %q", i, e.Payload, payloads[i])
		}
	}
	if entries[len(entries)-1].Hash != a.BaseHash {
		t.Fatal("archive tail hash does not match the anchor's base hash")
	}
}

func TestFileLogRunSeqSurvivesReopen(t *testing.T) {
	path, _ := writeTestArchive(t, "x", "y", "retained")
	entries, err := ReadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e.RunSeq != uint64(i+1) || e.RunID != fmt.Sprintf("run-%d", i) || e.Object != "obj" {
			t.Fatalf("entry %d did not round-trip: %+v", i, e)
		}
	}
}

func TestFileDetectsOnDiskTampering(t *testing.T) {
	path, _ := writeTestArchive(t, "evidence-AAAA", "evidence-BBBB", "evidence-CCCC", "retained")
	lines := readArchiveLines(t, path)
	edited := func(i int, edit func(*Entry)) []byte {
		var fe fileEntry
		if err := json.Unmarshal(lines[i], &fe); err != nil {
			t.Fatal(err)
		}
		e, err := fromFileEntry(fe)
		if err != nil {
			t.Fatal(err)
		}
		edit(&e)
		line, err := marshalFileEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	for name, tampered := range map[string][][]byte{
		"edited payload":  {edited(0, func(e *Entry) { e.Payload = []byte("rewritten history") }), lines[1], lines[2]},
		"edited kind":     {edited(1, func(e *Entry) { e.Kind = "forged-kind" }), lines[0], lines[2]},
		"reordered lines": {lines[1], lines[0], lines[2]},
	} {
		writeArchiveLines(t, path, tampered)
		if _, err := ReadArchive(path); err == nil {
			t.Errorf("%s: tampered archive read without error", name)
		}
	}
}

func TestFileDetectsTruncationOfTail(t *testing.T) {
	// Deleting an interior line breaks the chain and is caught by
	// ReadArchive. Dropping the final line leaves a valid prefix, so it is
	// caught by splicing onto the anchor instead.
	path, a := writeTestArchive(t, "a", "b", "c", "retained")
	lines := readArchiveLines(t, path)

	writeArchiveLines(t, path, [][]byte{lines[0], lines[2]})
	if _, err := ReadArchive(path); err == nil {
		t.Fatal("interior deletion not detected")
	}

	writeArchiveLines(t, path, lines[:2])
	entries, err := ReadArchive(path)
	if err != nil {
		t.Fatalf("valid prefix rejected: %v", err)
	}
	if entries[len(entries)-1].Hash == a.BaseHash {
		t.Fatal("tail truncation still splices onto the anchor")
	}
}
