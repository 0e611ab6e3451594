// Package nrlog implements the non-repudiation evidence log: every protocol
// message a party generates or receives is stored systematically in a local,
// persistent, tamper-evident log (paper §3, §4.2). Entries are hash-chained
// so that truncation or in-place modification of the record is detectable,
// and indexed by protocol run so the evidence for a disputed run can be
// handed to extra-protocol arbitration.
//
// An entry's hash binds its payload through a digest in which every bytes
// field of 4 KiB or more — a signed body carrying a whole state — enters by
// its own SHA-256 (docs/PROTOCOL.md §8.1). The appender may supply that
// digest as a Hint, taken from the signature step that already hashed the
// body, so a large message is hashed once per party however many entries
// carry it. Verification, segmented replay and ReadArchive take no hints:
// they recompute every digest from the stored bytes.
package nrlog

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"b2b/internal/canon"
	"b2b/internal/crypto"
)

// Direction records whether the evidence was generated locally or received.
type Direction string

// Entry directions.
const (
	DirSent     Direction = "sent"
	DirReceived Direction = "received"
	DirLocal    Direction = "local" // local decisions, checkpoints, verdicts
)

// Entry is one evidence record. Hash covers (Seq, RunSeq, PrevHash, Time,
// RunID, Object, Kind, Party, Direction) and the payload through its digest
// (payloadDigest); PrevHash chains entries.
// RunSeq is the proposal sequence number of the coordination run the
// evidence belongs to (zero when not applicable), so the evidence of a
// pipelined burst is chained per sequence: the records of run k and of its
// successors k+1, k+2, ... are attributable to their exact position in the
// pipeline when a disputed suffix rollback goes to arbitration.
type Entry struct {
	Seq       uint64
	RunSeq    uint64
	PrevHash  [32]byte
	Hash      [32]byte
	Time      time.Time
	RunID     string
	Object    string
	Kind      string
	Party     string
	Direction Direction
	Payload   []byte
}

// entryHash is the per-version hash layout of the evidence chain. Like the
// wire encoding (docs/PROTOCOL.md §7) it carries no version tag: a log
// written under a different field layout fails verification on open rather
// than being silently misread, and migrating historical evidence across
// layouts is an explicit operator action, not something the log does
// implicitly.
//
// The metadata is framed canonically (every string length-prefixed), so no
// two entries whose fields differ can share a hash input by moving bytes
// from one field into its neighbour. The payload enters through its fixed-
// size digest D (payloadDigest), which binds a large field by that field's
// own SHA-256. Only an append passes hints; Verify, segmented replay and
// ReadArchive recompute every digest from the stored bytes.
func entryHash(e *Entry, hints ...Hint) [32]byte {
	meta := canon.Marshal(func(enc *canon.Encoder) {
		enc.Struct("nrlog-entry")
		enc.Uint64(e.Seq)
		enc.Uint64(e.RunSeq)
		enc.String(e.RunID)
		enc.String(e.Object)
		enc.String(e.Kind)
		enc.String(e.Party)
		enc.String(string(e.Direction))
		enc.Int64(e.Time.UTC().UnixNano())
	})
	d := payloadDigest(e.Payload, hints)
	return crypto.Hash(e.PrevHash[:], meta, d[:])
}

// Errors reported by logs.
var (
	ErrChainBroken = errors.New("nrlog: hash chain broken")
	ErrBadEntry    = errors.New("nrlog: entry hash mismatch")
)

// Log is an append-only evidence store.
type Log interface {
	// Append records evidence and returns the stored entry. The log keeps
	// payload as handed over, without copying it: the caller must not write
	// it afterwards. Entries and ByRun return copies.
	Append(runID, object, kind, party string, dir Direction, payload []byte) (Entry, error)
	// AppendSeq is Append tagged with the coordination run's proposal
	// sequence number, so the record of a pipelined burst is indexed per
	// sequence (see Entry.RunSeq); Append is AppendSeq with RunSeq zero and
	// no hints. hints name the SHA-256 of large payload fields the caller
	// already digested (see Hint); only the coordinator's evidence helpers
	// pass them.
	AppendSeq(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte, hints ...Hint) (Entry, error)
	// AppendDeferred is AppendSeq staged without waiting for the disk: the
	// entry is durable only after the next Barrier, which makes everything
	// staged so far durable in one group-commit fsync.
	AppendDeferred(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte, hints ...Hint) (Entry, error)
	Barrier() error
	// Entries returns all entries in order.
	Entries() ([]Entry, error)
	// ByRun returns the entries belonging to one protocol run.
	ByRun(runID string) ([]Entry, error)
	// Verify re-checks the hash chain over the whole log.
	Verify() error
	// Len reports the number of entries.
	Len() int
}

// BySeq filters entries down to one object's runs at one proposal sequence.
func BySeq(l Log, object string, runSeq uint64) ([]Entry, error) {
	all, err := l.Entries()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, e := range all {
		if e.Object == object && e.RunSeq == runSeq {
			out = append(out, e)
		}
	}
	return out, nil
}

// Clock supplies entry times (decoupled for deterministic tests).
type Clock interface {
	Now() time.Time
}

// Memory is an in-memory Log. It keeps a per-run index and the cached tail
// hash so Append is O(1) and ByRun is O(matches) regardless of log length.
type Memory struct {
	mu      sync.Mutex
	clk     Clock
	entries []Entry
	byRun   map[string][]int
	tail    [32]byte
}

// NewMemory creates an empty in-memory log.
func NewMemory(clk Clock) *Memory {
	return &Memory{clk: clk, byRun: make(map[string][]int)}
}

// Append implements Log.
func (l *Memory) Append(runID, object, kind, party string, dir Direction, payload []byte) (Entry, error) {
	return l.AppendSeq(runID, 0, object, kind, party, dir, payload)
}

// AppendDeferred implements Log: with no disk, staging and appending
// coincide.
func (l *Memory) AppendDeferred(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte, hints ...Hint) (Entry, error) {
	return l.AppendSeq(runID, runSeq, object, kind, party, dir, payload, hints...)
}

// Barrier implements Log (nothing to sync).
func (l *Memory) Barrier() error { return nil }

// AppendSeq implements Log.
func (l *Memory) AppendSeq(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte, hints ...Hint) (Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Seq:       uint64(len(l.entries)),
		RunSeq:    runSeq,
		Time:      l.clk.Now(),
		RunID:     runID,
		Object:    object,
		Kind:      kind,
		Party:     party,
		Direction: dir,
		Payload:   payload,
	}
	if len(l.entries) > 0 {
		e.PrevHash = l.tail
	}
	e.Hash = entryHash(&e, hints...)
	l.byRun[e.RunID] = append(l.byRun[e.RunID], len(l.entries))
	l.entries = append(l.entries, e)
	l.tail = e.Hash
	return e, nil
}

// Entries implements Log.
func (l *Memory) Entries() ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ownPayloads(append([]Entry(nil), l.entries...)), nil
}

// ByRun implements Log via the per-run index.
func (l *Memory) ByRun(runID string) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return pickEntries(l.entries, l.byRun[runID]), nil
}

// pickEntries returns copies of the entries at the indexed positions.
func pickEntries(entries []Entry, idx []int) []Entry {
	out := make([]Entry, 0, len(idx))
	for _, i := range idx {
		out = append(out, entries[i])
	}
	return ownPayloads(out)
}

// ownPayloads gives each entry of a freshly copied slice a payload of its
// own. A log stores the payload it is handed without copying it, so a read
// must copy: a caller writing into a returned payload would otherwise
// rewrite the evidence and break every later Verify.
func ownPayloads(entries []Entry) []Entry {
	for i := range entries {
		entries[i].Payload = append([]byte(nil), entries[i].Payload...)
	}
	return entries
}

// Verify implements Log.
func (l *Memory) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return verifyChainFrom(l.entries, 0, [32]byte{})
}

// Len implements Log.
func (l *Memory) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// closeJoin closes c with err already in hand, folding a close-time failure
// in rather than swallowing it (closecheck: close can surface deferred
// write-back errors exactly like fsync).
func closeJoin(err error, c io.Closer) error {
	if cerr := c.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}

// fileEntry is the JSON-lines form of evidence archives (written by
// Segmented's compaction, read back by ReadArchive).
type fileEntry struct {
	Seq       uint64    `json:"seq"`
	RunSeq    uint64    `json:"run_seq,omitempty"`
	PrevHash  string    `json:"prev"`
	Hash      string    `json:"hash"`
	Time      time.Time `json:"time"`
	RunID     string    `json:"run"`
	Object    string    `json:"object"`
	Kind      string    `json:"kind"`
	Party     string    `json:"party"`
	Direction Direction `json:"dir"`
	Payload   string    `json:"payload"`
}

func toFileEntry(e Entry) fileEntry {
	return fileEntry{
		Seq:       e.Seq,
		RunSeq:    e.RunSeq,
		PrevHash:  base64.StdEncoding.EncodeToString(e.PrevHash[:]),
		Hash:      base64.StdEncoding.EncodeToString(e.Hash[:]),
		Time:      e.Time,
		RunID:     e.RunID,
		Object:    e.Object,
		Kind:      e.Kind,
		Party:     e.Party,
		Direction: e.Direction,
		Payload:   base64.StdEncoding.EncodeToString(e.Payload),
	}
}

func fromFileEntry(fe fileEntry) (Entry, error) {
	e := Entry{
		Seq:       fe.Seq,
		RunSeq:    fe.RunSeq,
		Time:      fe.Time,
		RunID:     fe.RunID,
		Object:    fe.Object,
		Kind:      fe.Kind,
		Party:     fe.Party,
		Direction: fe.Direction,
	}
	prev, err := base64.StdEncoding.DecodeString(fe.PrevHash)
	if err != nil || len(prev) != 32 {
		return Entry{}, fmt.Errorf("nrlog: bad prev hash: %w", err)
	}
	copy(e.PrevHash[:], prev)
	h, err := base64.StdEncoding.DecodeString(fe.Hash)
	if err != nil || len(h) != 32 {
		return Entry{}, fmt.Errorf("nrlog: bad hash: %w", err)
	}
	copy(e.Hash[:], h)
	if fe.Payload != "" {
		p, err := base64.StdEncoding.DecodeString(fe.Payload)
		if err != nil {
			return Entry{}, fmt.Errorf("nrlog: bad payload: %w", err)
		}
		e.Payload = p
	}
	return e, nil
}

func marshalFileEntry(e Entry) ([]byte, error) {
	line, err := json.Marshal(toFileEntry(e))
	if err != nil {
		return nil, fmt.Errorf("nrlog: encoding entry: %w", err)
	}
	return line, nil
}
