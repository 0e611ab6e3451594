package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"b2b/internal/canon"
)

// This file implements the durability plane: one append-only, log-structured
// segment store (WAL) shared by every persistence client a party has —
// checkpoints and run records (store.Segmented) and non-repudiation evidence
// (nrlog.Segmented). Two clients keep a plane of their own: the relay
// server's mailbox (internal/relay) and the reliable transport's outbox
// journal (internal/transport). Records are canon-framed (length + CRC-32C,
// canon.AppendFrame) with a one-byte kind tag, segments rotate at a size
// threshold, and a group-commit writer coalesces the durability barriers of
// everything in flight into ~one fsync per batch. A compactor bounds disk
// usage by rewriting the live set (latest snapshot + delta chain, pending
// runs, anchored evidence suffix) into a fresh segment and deleting the
// rest. See docs/ARCHITECTURE.md, "Durability plane".

// RecordKind tags each WAL record with its owner and meaning.
type RecordKind uint8

// WAL record kinds.
const (
	// RecCompactionPoint is the first record of a compacted segment: on
	// replay every consumer resets and rebuilds from the live set that
	// follows. Segments older than a compaction point are dead.
	RecCompactionPoint RecordKind = 0x01
	// RecCheckpoint is a full-state checkpoint snapshot.
	RecCheckpoint RecordKind = 0x02
	// RecCheckpointDelta is a delta checkpoint: update bytes plus the
	// predecessor tuple they apply to (§4.3.1 update coordination).
	RecCheckpointDelta RecordKind = 0x03
	// RecRunSave / RecRunDelete track in-flight run records.
	RecRunSave   RecordKind = 0x04
	RecRunDelete RecordKind = 0x05
	// RecNrlogEntry is one non-repudiation log entry.
	RecNrlogEntry RecordKind = 0x06
	// RecNrlogAnchor is a signed truncation anchor carrying the evidence
	// chain hash at a compaction cut.
	RecNrlogAnchor RecordKind = 0x07
	// RecRelayDeposit is one parked relay-mailbox entry (internal/relay's
	// server); RecRelayDrop is its cumulative tombstone — every entry of a
	// mailbox with sequence <= the recorded bound is acknowledged or
	// evicted. Only relay-dedicated planes carry these kinds.
	RecRelayDeposit RecordKind = 0x08
	RecRelayDrop    RecordKind = 0x09
	// RecOutboxSave is one unacknowledged outgoing message of the reliable
	// transport (internal/transport); RecOutboxAcked retires a set of them
	// by message id; RecSeen records a set of inbound dedup keys. Only
	// outbox-journal planes carry these kinds.
	RecOutboxSave  RecordKind = 0x0A
	RecOutboxAcked RecordKind = 0x0B
	RecSeen        RecordKind = 0x0C
)

// Policy is the durability plane's retention and group-commit policy. The
// zero value selects the defaults noted on each field.
type Policy struct {
	// SegmentSize is the rotation threshold in bytes (default 1 MiB).
	SegmentSize int
	// CompactAt is the total on-disk size that triggers compaction
	// (default 8 MiB). To prevent compaction storms when the live set
	// itself approaches CompactAt, a threshold compaction also requires
	// the disk to exceed twice the previous compaction's live-set size —
	// each cycle then reclaims at least half of what it rewrites. Bounded
	// steady-state usage is therefore max(CompactAt, 2x live set) plus a
	// segment.
	CompactAt int64
	// SnapshotEvery bounds a delta checkpoint chain: after this many delta
	// checkpoints a full snapshot is persisted (default 32). Used by the
	// coordination engine; carried here so one policy configures the plane.
	SnapshotEvery int
	// RetainEntries is the length of the evidence suffix kept in the WAL
	// across a compaction cut (default 512). Pruned entries are archived,
	// never destroyed, and the cut is anchored by a signed chain hash.
	RetainEntries int
}

func (p Policy) withDefaults() Policy {
	if p.SegmentSize <= 0 {
		p.SegmentSize = 1 << 20
	}
	if p.CompactAt <= 0 {
		p.CompactAt = 8 << 20
	}
	if p.SnapshotEvery <= 0 {
		p.SnapshotEvery = 32
	}
	if p.RetainEntries <= 0 {
		p.RetainEntries = 512
	}
	return p
}

// SegmentFile is the write surface the plane needs from one segment file.
type SegmentFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS abstracts the filesystem under the plane so tests can inject fsync
// failures and torn writes (internal/faults.DiskFS). OS is the real one.
type FS interface {
	MkdirAll(dir string) error
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (SegmentFile, error)
	ReadFile(path string) ([]byte, error)
	// ReadDir returns the file names (not paths) in dir.
	ReadDir(dir string) ([]string, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// SyncDir makes directory metadata (created/renamed/removed names)
	// durable where the platform supports it.
	SyncDir(dir string) error
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenAppend(path string) (SegmentFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(des))
	for _, de := range des {
		if !de.IsDir() {
			names = append(names, de.Name())
		}
	}
	return names, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// closeJoin closes c with err already in hand, folding a close-time failure
// in rather than swallowing it: close can surface deferred write-back
// errors exactly like fsync, and the durability contract (closecheck) says
// those never vanish silently.
func closeJoin(err error, c io.Closer) error {
	if cerr := c.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}

// OS is the real filesystem.
var OS FS = osFS{}

// Consumer is one client of the plane (the checkpoint store, the evidence
// log). The plane replays the WAL through each attached consumer on Start
// and asks each to re-emit its live records at compaction.
//
// Locking contract: Replay/Reset/Opened/Compact are invoked with the
// plane's internal lock held, so a consumer must never call back into the
// plane from them — and, conversely, must never hold its own lock while
// calling Append/Barrier.
type Consumer interface {
	// Reset drops all replayed state (a compaction point was reached).
	Reset()
	// Replay delivers one WAL record during Start.
	Replay(kind RecordKind, payload []byte) error
	// Opened runs after replay completes: verify/finalize rebuilt state.
	Opened() error
	// Compact re-emits the consumer's live records into a fresh segment.
	Compact(emit func(kind RecordKind, payload []byte) error) error
}

// PlaneStats counts the plane's I/O work.
type PlaneStats struct {
	Appends      uint64
	Fsyncs       uint64
	BytesWritten uint64
	Compactions  uint64
	Segments     int
	DiskBytes    int64
}

// ErrPlaneClosed is returned after Close or after a write/sync failure
// (durability failures are fail-stop: the plane never acknowledges a record
// it could not make durable).
var ErrPlaneClosed = errors.New("store: durability plane closed")

type segmentInfo struct {
	index int
	size  int64
}

// Plane is the shared append-only segment store.
type Plane struct {
	dir string
	fs  FS
	pol Policy

	mu        sync.Mutex
	consumers []Consumer
	started   bool
	closed    bool
	segs      []segmentInfo // on-disk segments, index order; last is active
	active    SegmentFile
	retired   []SegmentFile // rotated-out handles kept open for stale sync targets
	lsn       uint64        // records appended
	lastLive  int64         // size of the last compaction's live set
	stats     PlaneStats

	// Group commit: waiters block until synced covers their record; the
	// first waiter to find no sync in progress becomes the leader, fsyncs
	// once for everything appended so far, and wakes the rest.
	smu     sync.Mutex
	scond   *sync.Cond
	synced  uint64
	syncing bool
	syncErr error
}

// OpenPlane creates a plane rooted at dir over fs (nil: the real
// filesystem). Attach consumers, then call Start to replay the WAL.
func OpenPlane(dir string, pol Policy, fs FS) (*Plane, error) {
	if fs == nil {
		fs = OS
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating plane dir: %w", err)
	}
	p := &Plane{dir: dir, fs: fs, pol: pol.withDefaults()}
	p.scond = sync.NewCond(&p.smu)
	return p, nil
}

// Dir returns the plane's root directory.
func (p *Plane) Dir() string { return p.dir }

// Filesystem returns the FS the plane writes through (consumers keep
// side files — evidence archives — on the same filesystem so fault
// injection covers them too).
func (p *Plane) Filesystem() FS { return p.fs }

// Policy returns the plane's effective policy (defaults applied).
func (p *Plane) Policy() Policy { return p.pol }

// Attach registers a consumer. Must be called before Start.
func (p *Plane) Attach(c Consumer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.consumers = append(p.consumers, c)
}

func segName(index int) string { return fmt.Sprintf("seg-%08d.wal", index) }

func parseSegName(name string) (int, bool) {
	var idx int
	if n, err := fmt.Sscanf(name, "seg-%08d.wal", &idx); n == 1 && err == nil && strings.HasSuffix(name, ".wal") {
		return idx, true
	}
	return 0, false
}

// Start replays the existing segments through the attached consumers and
// opens the active segment for appending. A torn frame at the tail of the
// newest segment is the footprint of a crash mid-append and is dropped;
// anywhere else it is corruption and Start fails.
func (p *Plane) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return errors.New("store: plane already started")
	}
	names, err := p.fs.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("store: listing segments: %w", err)
	}
	var indices []int
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			indices = append(indices, idx)
		} else if strings.HasSuffix(name, ".compact") {
			// Leftover of a compaction that never committed (the rename
			// did not happen): dead, remove.
			_ = p.fs.Remove(filepath.Join(p.dir, name))
		}
	}
	sort.Ints(indices)

	// Find the newest compaction point: segments before it are dead (the
	// compaction committed but crashed before deleting them).
	liveFrom := 0
	type segData struct {
		index int
		recs  [][]byte // kind-prefixed payloads
		size  int64
	}
	var datas []segData
	for i, idx := range indices {
		raw, err := p.fs.ReadFile(filepath.Join(p.dir, segName(idx)))
		if err != nil {
			return fmt.Errorf("store: reading segment %d: %w", idx, err)
		}
		sd := segData{index: idx, size: int64(len(raw))}
		rest := raw
		for len(rest) > 0 {
			payload, r, err := canon.ReadFrame(rest)
			if err != nil {
				if i == len(indices)-1 {
					// Torn tail of the newest segment: crash mid-append.
					// Everything before the tear is intact; drop the rest.
					sd.size -= int64(len(rest))
					break
				}
				return fmt.Errorf("store: segment %d: %w", idx, err)
			}
			if len(payload) == 0 {
				return fmt.Errorf("store: segment %d: empty record", idx)
			}
			// Consumers decode a record in place and keep what they
			// decode, so each record gets a buffer of its own rather
			// than pinning its whole segment.
			sd.recs = append(sd.recs, bytes.Clone(payload))
			rest = r
		}
		if len(sd.recs) > 0 && RecordKind(sd.recs[0][0]) == RecCompactionPoint {
			liveFrom = len(datas)
		}
		datas = append(datas, sd)
	}

	// Delete dead segments (older than the newest compaction point).
	for _, sd := range datas[:liveFrom] {
		_ = p.fs.Remove(filepath.Join(p.dir, segName(sd.index)))
	}
	datas = datas[liveFrom:]
	if liveFrom > 0 {
		_ = p.fs.SyncDir(p.dir)
	}

	// Seed the storm guard: if the oldest surviving segment is a compacted
	// one, its size is the last known live-set size.
	if len(datas) > 0 && len(datas[0].recs) > 0 && RecordKind(datas[0].recs[0][0]) == RecCompactionPoint {
		p.lastLive = datas[0].size
	}

	// Replay.
	for _, sd := range datas {
		for _, rec := range sd.recs {
			kind := RecordKind(rec[0])
			if kind == RecCompactionPoint {
				for _, c := range p.consumers {
					c.Reset()
				}
				continue
			}
			for _, c := range p.consumers {
				if err := c.Replay(kind, rec[1:]); err != nil {
					return fmt.Errorf("store: replaying segment %d: %w", sd.index, err)
				}
			}
			p.lsn++
		}
		p.segs = append(p.segs, segmentInfo{index: sd.index, size: sd.size})
	}
	for _, c := range p.consumers {
		if err := c.Opened(); err != nil {
			return fmt.Errorf("store: finalizing replay: %w", err)
		}
	}

	// Open (or create) the active segment. A torn tail is not truncated in
	// place — appends go to a fresh segment so the torn bytes can never be
	// misread as a frame prefix of new data.
	next := 0
	if n := len(p.segs); n > 0 {
		next = p.segs[n-1].index + 1
	}
	f, err := p.fs.OpenAppend(filepath.Join(p.dir, segName(next)))
	if err != nil {
		return fmt.Errorf("store: opening active segment: %w", err)
	}
	if err := p.fs.SyncDir(p.dir); err != nil {
		return closeJoin(fmt.Errorf("store: syncing plane dir: %w", err), f)
	}
	p.active = f
	p.segs = append(p.segs, segmentInfo{index: next})
	p.synced = p.lsn
	p.started = true
	return nil
}

// failLocked poisons the plane after an I/O failure; p.mu must be held.
func (p *Plane) failLocked(err error) error {
	p.closed = true
	p.smu.Lock()
	if p.syncErr == nil {
		p.syncErr = err
	}
	p.scond.Broadcast()
	p.smu.Unlock()
	return err
}

// appendLocked writes one framed record to the active segment, rotating and
// compacting as the policy dictates; returns the record's LSN.
func (p *Plane) appendLocked(kind RecordKind, payload []byte) (uint64, error) {
	if !p.started || p.closed {
		return 0, ErrPlaneClosed
	}
	buf := make([]byte, 0, len(payload)+canon.FrameOverhead+1)
	rec := make([]byte, 0, len(payload)+1)
	rec = append(rec, byte(kind))
	rec = append(rec, payload...)
	buf = canon.AppendFrame(buf, rec)
	if _, err := p.active.Write(buf); err != nil {
		return 0, p.failLocked(fmt.Errorf("store: appending record: %w", err))
	}
	p.lsn++
	p.stats.Appends++
	p.stats.BytesWritten += uint64(len(buf))
	act := &p.segs[len(p.segs)-1]
	act.size += int64(len(buf))

	if act.size >= int64(p.pol.SegmentSize) {
		if err := p.rotateLocked(); err != nil {
			return 0, err
		}
		// Compact only when a cycle reclaims at least half of what it
		// rewrites: a live set near (or above) CompactAt would otherwise
		// trigger a rewrite of itself on every rotation.
		if total := p.totalLocked(); total >= p.pol.CompactAt && total >= 2*p.lastLive {
			if err := p.compactLocked(); err != nil {
				return 0, err
			}
		}
	}
	return p.lsn, nil
}

func (p *Plane) totalLocked() int64 {
	var total int64
	for _, s := range p.segs {
		total += s.size
	}
	return total
}

// rotateLocked syncs and retires the active segment and opens the next one.
// Everything appended so far is durable after rotation.
func (p *Plane) rotateLocked() error {
	if err := p.active.Sync(); err != nil {
		return p.failLocked(fmt.Errorf("store: syncing segment at rotation: %w", err))
	}
	p.stats.Fsyncs++
	p.smu.Lock()
	if p.lsn > p.synced {
		p.synced = p.lsn
	}
	p.scond.Broadcast()
	p.smu.Unlock()

	// Keep the old handle open: a group-commit leader may have captured it
	// just before rotation and still call Sync on it. Close the oldest once
	// enough rotations have passed that no capture can be outstanding.
	p.retired = append(p.retired, p.active)
	if len(p.retired) > 2 {
		if err := p.retired[0].Close(); err != nil {
			// A close-time failure can be deferred write-back of bytes a
			// barrier already acknowledged: fail the plane, exactly as a
			// failed fsync would.
			p.retired = p.retired[1:]
			return p.failLocked(fmt.Errorf("store: closing retired segment: %w", err))
		}
		p.retired = p.retired[1:]
	}

	next := p.segs[len(p.segs)-1].index + 1
	f, err := p.fs.OpenAppend(filepath.Join(p.dir, segName(next)))
	if err != nil {
		return p.failLocked(fmt.Errorf("store: opening segment %d: %w", next, err))
	}
	if err := p.fs.SyncDir(p.dir); err != nil {
		return p.failLocked(fmt.Errorf("store: syncing plane dir: %w", err))
	}
	p.active = f
	p.segs = append(p.segs, segmentInfo{index: next})
	return nil
}

// compactLocked rewrites the live set and deletes dead segments. The active
// segment has just been rotated (it is empty): the live set is written to a
// temporary file that takes the previous index slot, made durable, and
// atomically renamed into place — only then are older segments deleted, so a
// crash at any point leaves either the old segments or a complete compacted
// segment, never a partial cut. On replay a RecCompactionPoint at the head
// of the compacted segment resets every consumer before the live set loads.
func (p *Plane) compactLocked() error {
	// Reserve the index just below the (empty) active segment.
	actIdx := p.segs[len(p.segs)-1].index
	cmpIdx := actIdx
	// Shift the active segment one index up so the compacted segment sorts
	// strictly between the dead set and the active one. The active segment
	// is empty (we just rotated), so renaming it is metadata only.
	newActName := segName(actIdx + 1)
	if err := p.fs.Rename(filepath.Join(p.dir, segName(actIdx)), filepath.Join(p.dir, newActName)); err != nil {
		return p.failLocked(fmt.Errorf("store: renaming active segment: %w", err))
	}
	p.segs[len(p.segs)-1].index = actIdx + 1

	var buf []byte
	rec := func(kind RecordKind, payload []byte) {
		r := make([]byte, 0, len(payload)+1)
		r = append(r, byte(kind))
		r = append(r, payload...)
		buf = canon.AppendFrame(buf, r)
	}
	rec(RecCompactionPoint, nil)
	var emitErr error
	emit := func(kind RecordKind, payload []byte) error {
		rec(kind, payload)
		return nil
	}
	for _, c := range p.consumers {
		if err := c.Compact(emit); err != nil {
			emitErr = err
			break
		}
	}
	if emitErr != nil {
		return p.failLocked(fmt.Errorf("store: compacting live set: %w", emitErr))
	}

	tmpPath := filepath.Join(p.dir, segName(cmpIdx)+".compact")
	f, err := p.fs.OpenAppend(tmpPath)
	if err != nil {
		return p.failLocked(fmt.Errorf("store: creating compacted segment: %w", err))
	}
	if _, err := f.Write(buf); err != nil {
		return p.failLocked(closeJoin(fmt.Errorf("store: writing compacted segment: %w", err), f))
	}
	p.stats.BytesWritten += uint64(len(buf))
	if err := f.Sync(); err != nil {
		return p.failLocked(closeJoin(fmt.Errorf("store: syncing compacted segment: %w", err), f))
	}
	p.stats.Fsyncs++
	if err := f.Close(); err != nil {
		return p.failLocked(fmt.Errorf("store: closing compacted segment: %w", err))
	}
	// Commit point: the rename makes the compacted segment (and its
	// compaction point) visible to recovery.
	if err := p.fs.Rename(tmpPath, filepath.Join(p.dir, segName(cmpIdx))); err != nil {
		return p.failLocked(fmt.Errorf("store: installing compacted segment: %w", err))
	}
	if err := p.fs.SyncDir(p.dir); err != nil {
		return p.failLocked(fmt.Errorf("store: syncing plane dir: %w", err))
	}

	// Delete the dead set (every segment below the compacted one).
	live := p.segs[:0]
	for _, s := range p.segs[:len(p.segs)-1] {
		if s.index < cmpIdx {
			_ = p.fs.Remove(filepath.Join(p.dir, segName(s.index)))
			continue
		}
		live = append(live, s)
	}
	_ = p.fs.SyncDir(p.dir)
	p.segs = append(live, segmentInfo{index: cmpIdx, size: int64(len(buf))}, p.segs[len(p.segs)-1])
	// Restore index order: compacted segment sorts before the active one.
	sort.Slice(p.segs, func(i, j int) bool { return p.segs[i].index < p.segs[j].index })
	p.lastLive = int64(len(buf))
	p.stats.Compactions++
	p.lsn++ // the compaction point record
	return nil
}

// waitDurable blocks until every record up to target is fsynced, electing
// the first waiter as the group-commit leader: it fsyncs once for the whole
// batch appended so far and wakes every waiter the batch covers.
func (p *Plane) waitDurable(target uint64) error {
	p.smu.Lock()
	for p.synced < target && p.syncErr == nil {
		if p.syncing {
			p.scond.Wait()
			continue
		}
		p.syncing = true
		p.smu.Unlock()

		p.mu.Lock()
		w := p.lsn
		f := p.active
		closed := p.closed
		p.mu.Unlock()
		var err error
		if closed {
			err = ErrPlaneClosed
		} else if f != nil {
			err = f.Sync()
		}
		if err == nil {
			p.mu.Lock()
			p.stats.Fsyncs++
			p.mu.Unlock()
		}

		p.smu.Lock()
		p.syncing = false
		if err != nil && p.synced >= w {
			// The captured handle went stale: rotations sync a segment
			// (and publish the new synced watermark) before retiring or
			// closing it, so if the watermark already covers this batch
			// the records are durable and the stale handle's error is
			// spurious, not a durability failure.
			err = nil
		}
		if err != nil {
			if p.syncErr == nil {
				p.syncErr = err
			}
		} else if w > p.synced {
			p.synced = w
		}
		p.scond.Broadcast()
	}
	err := p.syncErr
	p.smu.Unlock()
	if err != nil {
		return fmt.Errorf("store: durability barrier: %w", err)
	}
	return nil
}

// Append writes one record and returns once it is durable (group commit:
// concurrent appenders share fsyncs).
func (p *Plane) Append(kind RecordKind, payload []byte) error {
	p.mu.Lock()
	lsn, err := p.appendLocked(kind, payload)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return p.waitDurable(lsn)
}

// AppendDeferred writes one record without waiting for durability. A later
// Barrier (or any durable Append) covers it; callers must issue a Barrier
// before acting on the record's durability (e.g. before sending a protocol
// message whose evidence it is).
func (p *Plane) AppendDeferred(kind RecordKind, payload []byte) error {
	p.mu.Lock()
	_, err := p.appendLocked(kind, payload)
	p.mu.Unlock()
	return err
}

// Barrier blocks until every record appended so far is durable — the
// durability barrier the coordination engine issues once per protocol step
// instead of fsyncing per record.
func (p *Plane) Barrier() error {
	p.mu.Lock()
	lsn := p.lsn
	p.mu.Unlock()
	return p.waitDurable(lsn)
}

// Compact forces a compaction cycle now (rotate, rewrite live set, delete
// dead segments), regardless of thresholds.
func (p *Plane) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started || p.closed {
		return ErrPlaneClosed
	}
	if err := p.rotateLocked(); err != nil {
		return err
	}
	return p.compactLocked()
}

// Stats returns a snapshot of the plane's I/O counters.
func (p *Plane) Stats() PlaneStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Segments = len(p.segs)
	st.DiskBytes = p.totalLocked()
	return st
}

// DiskUsage reports the total size of the plane's segments in bytes.
func (p *Plane) DiskUsage() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totalLocked()
}

// Close syncs and closes the plane. Further appends fail.
func (p *Plane) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	var err error
	if p.started {
		err = p.active.Sync()
		if err == nil {
			p.stats.Fsyncs++
		}
	}
	lsn := p.lsn
	p.closed = true
	for _, f := range p.retired {
		err = closeJoin(err, f)
	}
	p.retired = nil
	if p.active != nil {
		err = closeJoin(err, p.active)
	}
	p.mu.Unlock()

	p.smu.Lock()
	if err == nil && lsn > p.synced {
		p.synced = lsn
	}
	if p.syncErr == nil {
		p.syncErr = ErrPlaneClosed
	}
	p.scond.Broadcast()
	p.smu.Unlock()
	return err
}
