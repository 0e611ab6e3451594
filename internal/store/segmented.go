package store

import (
	"fmt"
	"sync"

	"b2b/internal/canon"
	"b2b/internal/tuple"
)

// Segmented is the durable Store backed by the shared durability plane: one
// WAL record per checkpoint / run save / run delete, group-commit fsync, and
// bounded retention — at compaction only the live set survives: each
// object's reconstruction chain (latest full snapshot plus following delta
// checkpoints) and the still-pending run records. The full life of the
// object is not kept; evidence retention is the non-repudiation log's
// business, not the checkpoint store's.
type Segmented struct {
	pl *Plane

	mu     sync.Mutex
	chains map[string][]Checkpoint // per object: full snapshot + deltas
	runs   map[string]RunRecord
}

// NewSegmented creates the checkpoint store over pl and attaches it as a
// plane consumer. Call before pl.Start.
func NewSegmented(pl *Plane) *Segmented {
	s := &Segmented{
		pl:     pl,
		chains: make(map[string][]Checkpoint),
		runs:   make(map[string]RunRecord),
	}
	pl.Attach(s)
	return s
}

// encodeCheckpoint produces the canonical WAL payload of a checkpoint.
func encodeCheckpoint(cp Checkpoint) []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("checkpoint")
		e.String(cp.Object)
		cp.Tuple.Encode(e)
		e.Bytes(cp.State)
		cp.Group.Encode(e)
		e.Strings(cp.Members)
		e.Time(cp.Time)
		e.Bool(cp.Delta)
		e.Bytes(cp.Update)
		cp.Pred.Encode(e)
	})
}

func decodeCheckpoint(payload []byte) (Checkpoint, error) {
	d := canon.NewDecoder(payload)
	d.Struct("checkpoint")
	var cp Checkpoint
	cp.Object = d.String()
	cp.Tuple = tuple.DecodeState(d)
	cp.State = d.Bytes()
	cp.Group = tuple.DecodeGroup(d)
	cp.Members = d.Strings()
	cp.Time = d.Time()
	cp.Delta = d.Bool()
	cp.Update = d.Bytes()
	cp.Pred = tuple.DecodeState(d)
	if err := d.Finish(); err != nil {
		return Checkpoint{}, fmt.Errorf("store: decoding checkpoint: %w", err)
	}
	return cp, nil
}

// encodeRun produces the canonical WAL payload of a run record.
func encodeRun(r RunRecord) []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("run")
		e.String(r.RunID)
		e.String(r.Object)
		e.String(r.Role)
		r.Proposed.Encode(e)
		r.Pred.Encode(e)
		e.Bytes(r.State)
		e.Bytes(r.Auth)
		e.Bytes(r.Raw)
		e.Time(r.Time)
	})
}

func decodeRun(payload []byte) (RunRecord, error) {
	d := canon.NewDecoder(payload)
	d.Struct("run")
	var r RunRecord
	r.RunID = d.String()
	r.Object = d.String()
	r.Role = d.String()
	r.Proposed = tuple.DecodeState(d)
	r.Pred = tuple.DecodeState(d)
	r.State = d.Bytes()
	r.Auth = d.Bytes()
	r.Raw = d.Bytes()
	r.Time = d.Time()
	if err := d.Finish(); err != nil {
		return RunRecord{}, fmt.Errorf("store: decoding run record: %w", err)
	}
	return r, nil
}

func encodeRunDelete(runID string) []byte {
	e := canon.NewEncoder()
	e.Struct("run-delete")
	e.String(runID)
	return append([]byte(nil), e.Out()...)
}

func decodeRunDelete(payload []byte) (string, error) {
	d := canon.NewDecoder(payload)
	d.Struct("run-delete")
	id := d.String()
	if err := d.Finish(); err != nil {
		return "", fmt.Errorf("store: decoding run delete: %w", err)
	}
	return id, nil
}

// applyCheckpointLocked folds one checkpoint into the in-memory chain: a
// full snapshot starts a fresh chain (bounding memory to the reconstruction
// chain), a delta extends it. An exact duplicate of the chain tip is
// ignored — a record staged concurrently with a compaction is emitted into
// the compacted live set AND lands as a regular record after the
// compaction point, so replay legitimately sees it twice. Only a full
// match counts: a membership change re-checkpoints the same state tuple
// with a new group, and that must replace the tip, not be dropped.
func (s *Segmented) applyCheckpointLocked(cp Checkpoint) error {
	chain := s.chains[cp.Object]
	if len(chain) > 0 && sameCheckpoint(chain[len(chain)-1], cp) {
		return nil
	}
	if !cp.Delta {
		s.chains[cp.Object] = []Checkpoint{cp}
		return nil
	}
	if len(chain) == 0 {
		return fmt.Errorf("store: delta checkpoint for %s with no snapshot", cp.Object)
	}
	if last := chain[len(chain)-1].Tuple; last != cp.Pred {
		return fmt.Errorf("store: delta checkpoint for %s does not chain from the latest tuple", cp.Object)
	}
	s.chains[cp.Object] = append(chain, cp)
	return nil
}

// SaveCheckpoint implements Store (durable on return, group commit).
func (s *Segmented) SaveCheckpoint(cp Checkpoint) error {
	if err := s.stage(cp); err != nil {
		return err
	}
	return s.pl.Append(checkpointKind(cp), encodeCheckpoint(cp))
}

// SaveCheckpointDeferred implements Store: staged and appended, durable at
// the next Barrier.
func (s *Segmented) SaveCheckpointDeferred(cp Checkpoint) error {
	if err := s.stage(cp); err != nil {
		return err
	}
	return s.pl.AppendDeferred(checkpointKind(cp), encodeCheckpoint(cp))
}

// stage validates and applies a checkpoint to the in-memory chain before its
// WAL record is appended (the plane is never called under s.mu).
func (s *Segmented) stage(cp Checkpoint) error {
	cp.Members = append([]string(nil), cp.Members...)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyCheckpointLocked(cp)
}

func checkpointKind(cp Checkpoint) RecordKind {
	if cp.Delta {
		return RecCheckpointDelta
	}
	return RecCheckpoint
}

// Latest implements Store. The returned checkpoint may be a delta; use
// Chain to reconstruct the full state.
func (s *Segmented) Latest(object string) (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chain := s.chains[object]
	if len(chain) == 0 {
		return Checkpoint{}, fmt.Errorf("%w: %s", ErrNoCheckpoint, object)
	}
	return copyCheckpoint(chain[len(chain)-1]), nil
}

// Chain implements Store.
func (s *Segmented) Chain(object string) ([]Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chain := s.chains[object]
	out := make([]Checkpoint, len(chain))
	for i, cp := range chain {
		out[i] = copyCheckpoint(cp)
	}
	return out, nil
}

// SaveRun implements Store (durable on return).
func (s *Segmented) SaveRun(r RunRecord) error {
	s.stageRun(r)
	return s.pl.Append(RecRunSave, encodeRun(r))
}

// SaveRunDeferred implements Store.
func (s *Segmented) SaveRunDeferred(r RunRecord) error {
	s.stageRun(r)
	return s.pl.AppendDeferred(RecRunSave, encodeRun(r))
}

func (s *Segmented) stageRun(r RunRecord) {
	s.mu.Lock()
	s.runs[r.RunID] = r
	s.mu.Unlock()
}

// DeleteRun implements Store (durable on return).
func (s *Segmented) DeleteRun(runID string) error {
	if !s.stageDelete(runID) {
		return nil
	}
	return s.pl.Append(RecRunDelete, encodeRunDelete(runID))
}

// DeleteRunDeferred implements Store.
func (s *Segmented) DeleteRunDeferred(runID string) error {
	if !s.stageDelete(runID) {
		return nil
	}
	return s.pl.AppendDeferred(RecRunDelete, encodeRunDelete(runID))
}

func (s *Segmented) stageDelete(runID string) bool {
	s.mu.Lock()
	_, ok := s.runs[runID]
	delete(s.runs, runID)
	s.mu.Unlock()
	return ok
}

// PendingRuns implements Store.
func (s *Segmented) PendingRuns() ([]RunRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunRecord, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, copyRun(r))
	}
	sortRuns(out)
	return out, nil
}

// Barrier implements Store: everything staged so far is durable on
// return.
func (s *Segmented) Barrier() error { return s.pl.Barrier() }

// Reset implements Consumer.
func (s *Segmented) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chains = make(map[string][]Checkpoint)
	s.runs = make(map[string]RunRecord)
}

// Replay implements Consumer.
func (s *Segmented) Replay(kind RecordKind, payload []byte) error {
	switch kind {
	case RecCheckpoint, RecCheckpointDelta:
		cp, err := decodeCheckpoint(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.applyCheckpointLocked(cp)
	case RecRunSave:
		r, err := decodeRun(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.runs[r.RunID] = r
		s.mu.Unlock()
	case RecRunDelete:
		id, err := decodeRunDelete(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		delete(s.runs, id)
		s.mu.Unlock()
	}
	return nil
}

// Opened implements Consumer.
func (s *Segmented) Opened() error { return nil }

// Compact implements Consumer: the live set is each object's reconstruction
// chain plus the pending run records.
func (s *Segmented) Compact(emit func(kind RecordKind, payload []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, chain := range s.chains {
		for _, cp := range chain {
			if err := emit(checkpointKind(cp), encodeCheckpoint(cp)); err != nil {
				return err
			}
		}
	}
	runs := make([]RunRecord, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	sortRuns(runs)
	for _, r := range runs {
		if err := emit(RecRunSave, encodeRun(r)); err != nil {
			return err
		}
	}
	return nil
}

// sameCheckpoint reports whether two checkpoints are copies of one record
// (the tuple binds the state/update content by hash, so comparing the
// identity fields suffices).
func sameCheckpoint(a, b Checkpoint) bool {
	if a.Tuple != b.Tuple || a.Group != b.Group || a.Delta != b.Delta || len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

func copyCheckpoint(cp Checkpoint) Checkpoint {
	cp.State = append([]byte(nil), cp.State...)
	cp.Update = append([]byte(nil), cp.Update...)
	cp.Members = append([]string(nil), cp.Members...)
	return cp
}

func copyRun(r RunRecord) RunRecord {
	r.State = append([]byte(nil), r.State...)
	r.Auth = append([]byte(nil), r.Auth...)
	r.Raw = append([]byte(nil), r.Raw...)
	return r
}
