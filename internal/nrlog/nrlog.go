// Package nrlog implements the non-repudiation evidence log: every protocol
// message a party generates or receives is stored systematically in a local,
// persistent, tamper-evident log (paper §3, §4.2). Entries are hash-chained
// so that truncation or in-place modification of the record is detectable,
// and indexed by protocol run so the evidence for a disputed run can be
// handed to extra-protocol arbitration.
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
// RunID, Object, Kind, Party, Direction, Payload); PrevHash chains entries.
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
// from one field into its neighbour.
func entryHash(e *Entry) [32]byte {
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
	return crypto.Hash(e.PrevHash[:], meta, e.Payload)
}

// Errors reported by logs.
var (
	ErrChainBroken = errors.New("nrlog: hash chain broken")
	ErrBadEntry    = errors.New("nrlog: entry hash mismatch")
)

// Log is an append-only evidence store.
type Log interface {
	// Append records evidence and returns the stored entry.
	Append(runID, object, kind, party string, dir Direction, payload []byte) (Entry, error)
	// Entries returns all entries in order.
	Entries() ([]Entry, error)
	// ByRun returns the entries belonging to one protocol run.
	ByRun(runID string) ([]Entry, error)
	// Verify re-checks the hash chain over the whole log.
	Verify() error
	// Len reports the number of entries.
	Len() int
}

// SeqAppender is an optional Log extension: evidence tagged with the
// coordination run's proposal sequence number, so the record of a pipelined
// burst is indexed per sequence (see Entry.RunSeq). Both built-in logs
// implement it; Append is AppendSeq with RunSeq zero.
type SeqAppender interface {
	AppendSeq(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte) (Entry, error)
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

// AppendSeq implements SeqAppender.
func (l *Memory) AppendSeq(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte) (Entry, error) {
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
		Payload:   append([]byte(nil), payload...),
	}
	if len(l.entries) > 0 {
		e.PrevHash = l.tail
	}
	e.Hash = entryHash(&e)
	l.byRun[e.RunID] = append(l.byRun[e.RunID], len(l.entries))
	l.entries = append(l.entries, e)
	l.tail = e.Hash
	return e, nil
}

// Entries implements Log.
func (l *Memory) Entries() ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out, nil
}

// ByRun implements Log via the per-run index.
func (l *Memory) ByRun(runID string) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return pickEntries(l.entries, l.byRun[runID]), nil
}

// pickEntries gathers the entries at the indexed positions.
func pickEntries(entries []Entry, idx []int) []Entry {
	out := make([]Entry, 0, len(idx))
	for _, i := range idx {
		out = append(out, entries[i])
	}
	return out
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
