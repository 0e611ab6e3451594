package nrlog

import (
	"testing"
	"testing/quick"
	"time"

	"b2b/internal/clock"
	"b2b/internal/store"
)

func simClock() *clock.Sim {
	return clock.NewSim(time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC))
}

func TestMemoryAppendAndChain(t *testing.T) {
	l := NewMemory(simClock())
	for i := 0; i < 5; i++ {
		if _, err := l.Append("run-1", "order", "propose", "alice", DirSent, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	entries, err := l.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].PrevHash != entries[i-1].Hash {
			t.Fatalf("chain broken at %d", i)
		}
	}
}

func TestMemoryByRun(t *testing.T) {
	l := NewMemory(simClock())
	_, _ = l.Append("run-1", "order", "propose", "alice", DirSent, []byte("a"))
	_, _ = l.Append("run-2", "order", "propose", "alice", DirSent, []byte("b"))
	_, _ = l.Append("run-1", "order", "respond", "bob", DirReceived, []byte("c"))

	got, err := l.ByRun("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ByRun = %d entries", len(got))
	}
	if got[0].Kind != "propose" || got[1].Kind != "respond" {
		t.Fatal("wrong entries selected")
	}
}

func TestTamperDetectionPayload(t *testing.T) {
	l := NewMemory(simClock())
	_, _ = l.Append("r", "o", "k", "p", DirSent, []byte("honest evidence"))
	_, _ = l.Append("r", "o", "k", "p", DirSent, []byte("more evidence"))
	l.entries[0].Payload = []byte("rewritten history")
	if err := l.Verify(); err == nil {
		t.Fatal("payload tampering not detected")
	}
}

func TestTamperDetectionReorder(t *testing.T) {
	l := NewMemory(simClock())
	_, _ = l.Append("r", "o", "k1", "p", DirSent, []byte("first"))
	_, _ = l.Append("r", "o", "k2", "p", DirSent, []byte("second"))
	l.entries[0], l.entries[1] = l.entries[1], l.entries[0]
	if err := l.Verify(); err == nil {
		t.Fatal("reordering not detected")
	}
}

func TestTamperDetectionTruncationMidLog(t *testing.T) {
	l := NewMemory(simClock())
	for i := 0; i < 4; i++ {
		_, _ = l.Append("r", "o", "k", "p", DirSent, []byte{byte(i)})
	}
	// Removing a middle entry breaks the chain.
	l.entries = append(l.entries[:1], l.entries[2:]...)
	if err := l.Verify(); err == nil {
		t.Fatal("mid-log deletion not detected")
	}
}

func TestEmptyPayloadAllowed(t *testing.T) {
	l := NewMemory(simClock())
	if _, err := l.Append("r", "o", "k", "p", DirLocal, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Property: a log built from any sequence of appends verifies, and flipping
// any single payload byte breaks verification.
func TestChainProperty(t *testing.T) {
	f := func(payloads [][]byte, tamperIdx uint, tamperByte uint) bool {
		if len(payloads) == 0 {
			return true
		}
		l := NewMemory(simClock())
		for _, p := range payloads {
			if _, err := l.Append("r", "o", "k", "p", DirSent, p); err != nil {
				return false
			}
		}
		if l.Verify() != nil {
			return false
		}
		i := int(tamperIdx % uint(len(payloads)))
		if len(l.entries[i].Payload) == 0 {
			return true
		}
		j := int(tamperByte % uint(len(l.entries[i].Payload)))
		l.entries[i].Payload[j] ^= 0x01
		return l.Verify() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSeqChainsEvidencePerSequence(t *testing.T) {
	l := NewMemory(simClock())
	if _, err := l.AppendSeq("run-a", 1, "obj", "propose", "p", DirSent, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSeq("run-b", 2, "obj", "propose", "p", DirSent, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("run-c", "obj", "verdict", "p", DirLocal, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("chain with RunSeq entries fails verification: %v", err)
	}
	got, err := BySeq(l, "obj", 2)
	if err != nil || len(got) != 1 || got[0].RunID != "run-b" {
		t.Fatalf("BySeq = %+v (%v)", got, err)
	}
	// Tampering with the sequence tag breaks the chain.
	l.entries[1].RunSeq = 7
	if err := l.Verify(); err == nil {
		t.Fatal("RunSeq tamper went undetected")
	}
}

// TestEntryHashFramesFields: the chain hash frames each metadata field, so
// moving a separator-like byte from one field into its neighbour — which
// re-attributes the evidence — changes the hash.
func TestEntryHashFramesFields(t *testing.T) {
	at := time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC)
	mk := func(runID, object, kind, party string) Entry {
		return Entry{Seq: 3, RunSeq: 1, Time: at, RunID: runID, Object: object,
			Kind: kind, Party: party, Direction: DirSent, Payload: []byte("evidence")}
	}
	pairs := [][2]Entry{
		{mk("r", "o|x", "k", "alice"), mk("r", "o", "x|k", "alice")},
		{mk("r|o", "bj", "k", "alice"), mk("r", "o|bj", "k", "alice")},
		{mk("r", "o", "k", "a|b"), mk("r", "o", "k|a", "b")},
	}
	for _, p := range pairs {
		if entryHash(&p[0]) == entryHash(&p[1]) {
			a, b := p[0], p[1]
			t.Errorf("(%q %q %q %q) and (%q %q %q %q) share a chain hash",
				a.RunID, a.Object, a.Kind, a.Party, b.RunID, b.Object, b.Kind, b.Party)
		}
	}
}

// TestEntriesDefensiveCopies is the regression test for evidence reads
// aliasing the log: Entries and ByRun used to return entries whose Payload
// shared the stored bytes, so a caller writing into one rewrote the
// evidence and broke every later Verify. Both logs keep the payload they
// are handed and copy on read.
func TestEntriesDefensiveCopies(t *testing.T) {
	seg := func(t *testing.T) Log {
		pl, l := openSegLog(t, t.TempDir(), store.Policy{}, nil)
		t.Cleanup(func() {
			if err := pl.Close(); err != nil {
				t.Error(err)
			}
		})
		return l
	}
	for name, open := range map[string]func(*testing.T) Log{
		"memory":    func(*testing.T) Log { return NewMemory(simClock()) },
		"segmented": seg,
	} {
		t.Run(name, func(t *testing.T) {
			l := open(t)
			for _, p := range []string{"propose-evidence", "respond-evidence"} {
				if _, err := l.Append("run-1", "order", "k", "alice", DirReceived, []byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			all, err := l.Entries()
			if err != nil {
				t.Fatal(err)
			}
			all[0].Payload[0] = 'X'
			byRun, err := l.ByRun("run-1")
			if err != nil {
				t.Fatal(err)
			}
			byRun[1].Payload[0] = 'Y'
			if err := l.Verify(); err != nil {
				t.Fatalf("writing into a returned payload corrupted the log: %v", err)
			}
			clean, err := l.Entries()
			if err != nil {
				t.Fatal(err)
			}
			if string(clean[0].Payload) != "propose-evidence" || string(clean[1].Payload) != "respond-evidence" {
				t.Fatalf("stored payloads changed through returned aliases: %q, %q", clean[0].Payload, clean[1].Payload)
			}
		})
	}
}
