package nrlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"b2b/internal/canon"
	"b2b/internal/crypto"
	"b2b/internal/store"
)

// Segmented is the evidence log backed by the shared durability plane: one
// WAL record per entry, group-commit fsync, an in-memory index (per-run) and
// cached tail hash so appends and lookups never re-read the record, and
// hash-anchored truncation at compaction — the retained suffix stays
// authenticated across the cut by a signed Anchor carrying the chain hash of
// everything pruned, and pruned entries are archived (JSON lines, see
// ReadArchive), never destroyed.
type Segmented struct {
	pl     *store.Plane
	clk    Clock
	signer *crypto.Identity // optional: signs truncation anchors

	// appendMu serializes stage()+WAL-append as one step. Without it a
	// goroutine could stage sequence N, lose the CPU, and let another
	// append N+1 to the WAL and Barrier it — the barrier would then not
	// cover N, and a crash would leave a sequence gap that discards N+1 on
	// replay even though its evidence was externalized. appendMu is never
	// taken by the plane-consumer callbacks, so the compactor (which holds
	// the plane lock) cannot deadlock against an appender holding it.
	appendMu sync.Mutex

	// mu guards everything below. The plane is never called with mu held
	// (consumer contract), so lock order is always log -> plane.
	mu       sync.Mutex
	anchor   *Anchor
	pruned   uint64 // entries before the retained suffix (== entries[0].Seq)
	baseHash [32]byte
	tail     [32]byte // cached hash of the newest entry
	entries  []Entry  // retained suffix, ascending Seq
	byRun    map[string][]int
	archives int // archive files written so far (naming)
}

// Anchor is the signed truncation record written at a compaction cut: it
// commits the log's owner to the chain hash of everything pruned, so the
// retained suffix (whose first PrevHash equals BaseHash) remains
// authenticated end to end and a verifier can tell sanctioned truncation
// from tampering. The pruned prefix lives on in the archive files.
type Anchor struct {
	// BaseSeq is the sequence number of the first retained entry.
	BaseSeq uint64
	// BaseHash is the chain hash at the cut: the Hash of the last pruned
	// entry, which the first retained entry's PrevHash must equal.
	BaseHash [32]byte
	// Archive names the archive file holding the pruned entries.
	Archive string
	Time    time.Time
	Party   string
	Sig     crypto.Signature
}

// signedBytes is the canonical byte string the anchor signature covers.
func (a Anchor) signedBytes() []byte {
	e := canon.NewEncoder()
	e.Struct("nrlog-anchor")
	e.Uint64(a.BaseSeq)
	e.Bytes32(a.BaseHash)
	e.String(a.Archive)
	e.Time(a.Time)
	e.String(a.Party)
	return append([]byte(nil), e.Out()...)
}

// VerifySig checks the anchor signature against v (the cut was sanctioned
// by the log's owner, not forged by an intruder with disk access).
func (a Anchor) VerifySig(v *crypto.Verifier) error {
	return v.VerifySignature(a.signedBytes(), a.Sig, a.Time)
}

func encodeAnchor(a Anchor) []byte {
	e := canon.NewEncoder()
	e.Struct("nrlog-anchor-rec")
	e.Uint64(a.BaseSeq)
	e.Bytes32(a.BaseHash)
	e.String(a.Archive)
	e.Time(a.Time)
	e.String(a.Party)
	a.Sig.Encode(e)
	return append([]byte(nil), e.Out()...)
}

func decodeAnchor(payload []byte) (Anchor, error) {
	d := canon.NewDecoder(payload)
	d.Struct("nrlog-anchor-rec")
	var a Anchor
	a.BaseSeq = d.Uint64()
	a.BaseHash = d.Bytes32()
	a.Archive = d.String()
	a.Time = d.Time()
	a.Party = d.String()
	a.Sig = crypto.DecodeSignature(d)
	if err := d.Finish(); err != nil {
		return Anchor{}, fmt.Errorf("nrlog: decoding anchor: %w", err)
	}
	return a, nil
}

func encodeEntry(e Entry) []byte {
	return canon.Marshal(func(enc *canon.Encoder) {
		enc.Struct("nrlog-entry")
		enc.Uint64(e.Seq)
		enc.Uint64(e.RunSeq)
		enc.Bytes32(e.PrevHash)
		enc.Bytes32(e.Hash)
		enc.Time(e.Time)
		enc.String(e.RunID)
		enc.String(e.Object)
		enc.String(e.Kind)
		enc.String(e.Party)
		enc.String(string(e.Direction))
		enc.Bytes(e.Payload)
	})
}

func decodeEntry(payload []byte) (Entry, error) {
	d := canon.NewDecoder(payload)
	d.Struct("nrlog-entry")
	var e Entry
	e.Seq = d.Uint64()
	e.RunSeq = d.Uint64()
	e.PrevHash = d.Bytes32()
	e.Hash = d.Bytes32()
	e.Time = d.Time()
	e.RunID = d.String()
	e.Object = d.String()
	e.Kind = d.String()
	e.Party = d.String()
	e.Direction = Direction(d.String())
	e.Payload = d.Bytes()
	if err := d.Finish(); err != nil {
		return Entry{}, fmt.Errorf("nrlog: decoding entry: %w", err)
	}
	return e, nil
}

// OpenSegmented creates the evidence log over pl and attaches it as a plane
// consumer; call before pl.Start. signer, when non-nil, signs truncation
// anchors (recommended: an unsigned cut cannot be attributed in
// arbitration).
func OpenSegmented(pl *store.Plane, clk Clock, signer *crypto.Identity) *Segmented {
	l := &Segmented{pl: pl, clk: clk, signer: signer, byRun: make(map[string][]int)}
	pl.Attach((*segmentedConsumer)(l))
	return l
}

// segmentedConsumer hides the plane Consumer methods from the Log surface.
type segmentedConsumer Segmented

// stage forms, indexes and caches the next entry under mu; the WAL append
// happens outside the lock (the plane orders records by arrival, and replay
// re-sorts by Seq).
func (l *Segmented) stage(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte, hints []Hint) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Seq:       l.pruned + uint64(len(l.entries)),
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
	} else {
		e.PrevHash = l.baseHash
	}
	e.Hash = entryHash(&e, hints...)
	l.byRun[e.RunID] = append(l.byRun[e.RunID], len(l.entries))
	l.entries = append(l.entries, e)
	l.tail = e.Hash
	return e
}

// Append implements Log (durable on return, group commit).
func (l *Segmented) Append(runID, object, kind, party string, dir Direction, payload []byte) (Entry, error) {
	return l.AppendSeq(runID, 0, object, kind, party, dir, payload)
}

// AppendSeq implements Log. The durability wait happens outside
// appendMu so concurrent durable appenders still share group-commit
// fsyncs.
func (l *Segmented) AppendSeq(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte, hints ...Hint) (Entry, error) {
	e, err := l.AppendDeferred(runID, runSeq, object, kind, party, dir, payload, hints...)
	if err != nil {
		return Entry{}, err
	}
	if err := l.pl.Barrier(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// AppendDeferred implements Log: the entry is staged and appended, but
// only durable after the next Barrier.
func (l *Segmented) AppendDeferred(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte, hints ...Hint) (Entry, error) {
	l.appendMu.Lock()
	e := l.stage(runID, runSeq, object, kind, party, dir, payload, hints)
	err := l.pl.AppendDeferred(store.RecNrlogEntry, encodeEntry(e))
	l.appendMu.Unlock()
	if err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Barrier implements Log.
func (l *Segmented) Barrier() error { return l.pl.Barrier() }

// Entries implements Log: the retained suffix, ascending. Pruned entries
// live in the archives (see Anchor.Archive).
func (l *Segmented) Entries() ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ownPayloads(append([]Entry(nil), l.entries...)), nil
}

// ByRun implements Log via the in-memory index (O(matches), not O(log)).
func (l *Segmented) ByRun(runID string) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return pickEntries(l.entries, l.byRun[runID]), nil
}

// Verify implements Log: re-checks the retained chain from the anchor's
// base hash (or the genesis zero hash) to the tail.
func (l *Segmented) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return verifyChainFrom(l.entries, l.pruned, l.baseHash)
}

// Len implements Log: the total number of entries ever appended, pruned
// (archived) ones included.
func (l *Segmented) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.pruned) + len(l.entries)
}

// Retained reports how many entries are held in the WAL (not archived).
func (l *Segmented) Retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Anchor returns the newest truncation anchor, or nil when the log has
// never been cut.
func (l *Segmented) Anchor() *Anchor {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.anchor == nil {
		return nil
	}
	a := *l.anchor
	return &a
}

// verifyChainFrom checks a chain that starts at seq base with predecessor
// hash baseHash (zero for a whole log, an anchor's base for a suffix).
func verifyChainFrom(entries []Entry, base uint64, baseHash [32]byte) error {
	prev := baseHash
	for i := range entries {
		e := &entries[i]
		if e.Seq != base+uint64(i) {
			return fmt.Errorf("%w: entry %d has seq %d", ErrChainBroken, i, e.Seq)
		}
		if e.PrevHash != prev {
			return fmt.Errorf("%w: entry %d", ErrChainBroken, int(base)+i)
		}
		if entryHash(e) != e.Hash {
			return fmt.Errorf("%w: entry %d", ErrBadEntry, int(base)+i)
		}
		prev = e.Hash
	}
	return nil
}

// --- plane Consumer ---

// Reset implements store.Consumer.
func (c *segmentedConsumer) Reset() {
	l := (*Segmented)(c)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.anchor = nil
	l.pruned = 0
	l.baseHash = [32]byte{}
	l.tail = [32]byte{}
	l.entries = nil
	l.byRun = make(map[string][]int)
}

// Replay implements store.Consumer.
func (c *segmentedConsumer) Replay(kind store.RecordKind, payload []byte) error {
	l := (*Segmented)(c)
	switch kind {
	case store.RecNrlogEntry:
		e, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		l.mu.Lock()
		l.entries = append(l.entries, e)
		l.mu.Unlock()
	case store.RecNrlogAnchor:
		a, err := decodeAnchor(payload)
		if err != nil {
			return err
		}
		l.mu.Lock()
		l.anchor = &a
		l.pruned = a.BaseSeq
		l.baseHash = a.BaseHash
		l.mu.Unlock()
	}
	return nil
}

// Opened implements store.Consumer: sort the replayed entries into sequence
// order (concurrent appenders may land in the WAL out of order), verify the
// chain from the anchor, and rebuild the index. Entries past the first
// break are dropped: a mid-air gap can only be records that were never
// covered by a durability barrier — the protocol never acted on them — so
// discarding them is the crash-consistent choice (cf. a torn segment tail).
func (c *segmentedConsumer) Opened() error {
	l := (*Segmented)(c)
	l.mu.Lock()
	defer l.mu.Unlock()
	// Number new archive files after any the previous incarnation wrote.
	if names, err := l.pl.Filesystem().ReadDir(filepath.Join(l.pl.Dir(), "archive")); err == nil {
		l.archives = len(names)
	}
	sort.Slice(l.entries, func(i, j int) bool { return l.entries[i].Seq < l.entries[j].Seq })
	// Drop exact duplicates first: an entry staged concurrently with a
	// compaction appears both in the compacted live set and as a regular
	// record after the compaction point. Same sequence with a different
	// hash is tampering, not a duplicate.
	dedup := l.entries[:0]
	for i := range l.entries {
		e := l.entries[i]
		if n := len(dedup); n > 0 && dedup[n-1].Seq == e.Seq {
			if dedup[n-1].Hash != e.Hash {
				return fmt.Errorf("nrlog: %w: conflicting copies of entry %d", ErrBadEntry, e.Seq)
			}
			continue
		}
		dedup = append(dedup, e)
	}
	l.entries = dedup
	prev := l.baseHash
	keep := 0
	for i := range l.entries {
		e := &l.entries[i]
		if e.Seq != l.pruned+uint64(i) || e.PrevHash != prev {
			break
		}
		if entryHash(e) != e.Hash {
			// A hash mismatch is tampering, not a torn tail: refuse to open.
			return fmt.Errorf("nrlog: %w: entry %d", ErrBadEntry, e.Seq)
		}
		prev = e.Hash
		keep = i + 1
	}
	l.entries = l.entries[:keep]
	l.tail = prev
	l.byRun = make(map[string][]int)
	for i, e := range l.entries {
		l.byRun[e.RunID] = append(l.byRun[e.RunID], i)
	}
	return nil
}

// Compact implements store.Consumer: archive the prefix beyond the
// retention bound, advance the anchor to the cut, and re-emit the anchor
// plus the retained suffix into the fresh segment.
func (c *segmentedConsumer) Compact(emit func(kind store.RecordKind, payload []byte) error) error {
	l := (*Segmented)(c)
	l.mu.Lock()
	defer l.mu.Unlock()
	retain := l.pl.Policy().RetainEntries
	if cut := len(l.entries) - retain; cut > 0 {
		prunedEntries := l.entries[:cut]
		name, err := l.writeArchiveLocked(prunedEntries)
		if err != nil {
			return fmt.Errorf("nrlog: archiving pruned evidence: %w", err)
		}
		a := Anchor{
			BaseSeq:  prunedEntries[len(prunedEntries)-1].Seq + 1,
			BaseHash: prunedEntries[len(prunedEntries)-1].Hash,
			Archive:  name,
			Time:     l.clk.Now(),
		}
		if l.signer != nil {
			a.Party = l.signer.ID()
			a.Sig = l.signer.Sign(a.signedBytes())
		}
		l.anchor = &a
		l.pruned = a.BaseSeq
		l.baseHash = a.BaseHash
		rest := make([]Entry, len(l.entries)-cut)
		copy(rest, l.entries[cut:])
		l.entries = rest
		l.byRun = make(map[string][]int)
		for i, e := range l.entries {
			l.byRun[e.RunID] = append(l.byRun[e.RunID], i)
		}
	}
	if l.anchor != nil {
		if err := emit(store.RecNrlogAnchor, encodeAnchor(*l.anchor)); err != nil {
			return err
		}
	}
	for _, e := range l.entries {
		if err := emit(store.RecNrlogEntry, encodeEntry(e)); err != nil {
			return err
		}
	}
	return nil
}

// writeArchiveLocked writes pruned entries to a fresh archive file (JSON
// lines, read back by ReadArchive) and syncs it before the compaction may
// commit: evidence is never destroyed, only moved out of the WAL's way.
func (l *Segmented) writeArchiveLocked(entries []Entry) (string, error) {
	fs := l.pl.Filesystem()
	dir := filepath.Join(l.pl.Dir(), "archive")
	if err := fs.MkdirAll(dir); err != nil {
		return "", err
	}
	l.archives++
	name := fmt.Sprintf("evidence-%06d.jsonl", l.archives)
	f, err := fs.OpenAppend(filepath.Join(dir, name))
	if err != nil {
		return "", err
	}
	var buf []byte
	for _, e := range entries {
		line, err := marshalFileEntry(e)
		if err != nil {
			return "", closeJoin(err, f)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if _, err := f.Write(buf); err != nil {
		return "", closeJoin(err, f)
	}
	if err := f.Sync(); err != nil {
		return "", closeJoin(err, f)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := fs.SyncDir(dir); err != nil {
		return "", err
	}
	return name, nil
}

// ReadArchive reads an evidence archive written at a compaction cut (the
// file an Anchor names, under <plane dir>/archive) and verifies its chain:
// sequence numbers are contiguous, each PrevHash is its predecessor's Hash
// and every Hash recomputes, so an edited or reordered line is rejected. The
// first entry's PrevHash splices onto the previous archive's tail (zero for
// the first archive); the last entry's Hash is its Anchor's BaseHash.
func ReadArchive(path string) ([]Entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("nrlog: reading archive: %w", err)
	}
	var entries []Entry
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var fe fileEntry
		if err := json.Unmarshal(line, &fe); err != nil {
			return nil, fmt.Errorf("nrlog: corrupt entry in %s: %w", path, err)
		}
		e, err := fromFileEntry(fe)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, nil
	}
	if err := verifyChainFrom(entries, entries[0].Seq, entries[0].PrevHash); err != nil {
		return nil, fmt.Errorf("nrlog: archive %s failed verification: %w", path, err)
	}
	return entries, nil
}

// Archives lists the archive file names written by truncation, oldest
// first (paths are relative to <plane dir>/archive).
func (l *Segmented) Archives() ([]string, error) {
	names, err := l.pl.Filesystem().ReadDir(filepath.Join(l.pl.Dir(), "archive"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}
