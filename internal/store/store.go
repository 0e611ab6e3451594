// Package store implements state management and check-pointing (paper §3,
// Fig 3): systematic persistence of each newly validated object state so a
// party can recover after a crash and roll back to the last agreed state
// when a proposal is invalidated. It also persists in-flight run metadata so
// a recovering proposer can resume or resolve interrupted runs.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"b2b/internal/tuple"
)

// Checkpoint is one validated (agreed) state of an object. A checkpoint is
// either a full snapshot (Delta false: State holds the complete object
// state) or a delta (Delta true: Update holds the §4.3.1 update bytes and
// Pred names the predecessor tuple they apply to; State is empty). Delta
// chains keep the persistence cost of an update-mode run proportional to
// the update, not the object: recovery reconstructs the full state by
// folding the chain through the application's ApplyUpdate (see Chain).
type Checkpoint struct {
	Object string
	Tuple  tuple.State
	State  []byte
	Group  tuple.Group
	// Members is the join-ordered membership at checkpoint time.
	Members []string
	Time    time.Time
	// Delta marks an incremental checkpoint; Update and Pred are only
	// meaningful when it is set.
	Delta  bool
	Update []byte
	Pred   tuple.State
}

// RunRecord captures an in-flight coordination run for crash recovery. A
// pipelining proposer holds several records per object at once, one per
// in-flight run. Recovery re-enters proposer runs in sequence order,
// deriving each run's chain position and proposed state from the signed
// propose in Raw (the authoritative copy — it is what recipients hold);
// State is therefore normally empty, and Pred/Proposed are denormalized
// copies kept for sorting and for operators inspecting a store without
// parsing signed messages.
type RunRecord struct {
	RunID    string
	Object   string
	Role     string // "proposer" | "recipient"
	Proposed tuple.State
	Pred     tuple.State // predecessor state tuple the run chains from
	State    []byte
	Auth     []byte // proposer's authenticator preimage
	Raw      []byte // proposer's signed propose message, for re-broadcast
	Time     time.Time
}

// ErrNoCheckpoint is returned when an object has no checkpoint yet.
var ErrNoCheckpoint = errors.New("store: no checkpoint")

// Store persists checkpoints and run records.
type Store interface {
	// SaveCheckpoint records a newly agreed state (becomes Latest).
	SaveCheckpoint(cp Checkpoint) error
	// Latest returns the most recent checkpoint for the object. It may be
	// a delta; recovery uses Chain to reconstruct the full state.
	Latest(object string) (Checkpoint, error)
	// History returns the retained checkpoints for the object, oldest
	// first. Stores with bounded retention (Segmented) keep only the
	// reconstruction chain.
	History(object string) ([]Checkpoint, error)
	// Chain returns the reconstruction chain: the most recent full
	// snapshot followed by every later delta checkpoint, oldest first.
	// Empty when the object has no checkpoint.
	Chain(object string) ([]Checkpoint, error)
	// SaveRun records an in-flight run; DeleteRun removes it on completion.
	SaveRun(r RunRecord) error
	DeleteRun(runID string) error
	// PendingRuns returns in-flight runs (crash recovery), ordered by
	// object, then proposal sequence number — the order a pipelining
	// proposer must resume them in.
	PendingRuns() ([]RunRecord, error)
}

// Batched is the optional Store extension the durability plane provides:
// persistence calls that stage a record without waiting for the disk, plus
// an explicit Barrier that makes everything staged so far durable in one
// group-commit fsync. The coordination engine uses it to issue one
// durability barrier per protocol step instead of one fsync per record.
type Batched interface {
	SaveCheckpointDeferred(cp Checkpoint) error
	SaveRunDeferred(r RunRecord) error
	DeleteRunDeferred(runID string) error
	Barrier() error
}

// Memory is an in-memory Store.
type Memory struct {
	mu   sync.Mutex
	cps  map[string][]Checkpoint
	runs map[string]RunRecord
}

// NewMemory creates an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{
		cps:  make(map[string][]Checkpoint),
		runs: make(map[string]RunRecord),
	}
}

// SaveCheckpoint implements Store.
func (s *Memory) SaveCheckpoint(cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cps[cp.Object] = append(s.cps[cp.Object], copyCheckpoint(cp))
	return nil
}

// Latest implements Store. The result is a defensive copy: mutating its
// State or Members cannot corrupt the stored history.
func (s *Memory) Latest(object string) (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cps := s.cps[object]
	if len(cps) == 0 {
		return Checkpoint{}, fmt.Errorf("%w: %s", ErrNoCheckpoint, object)
	}
	return copyCheckpoint(cps[len(cps)-1]), nil
}

// History implements Store. Each element is a defensive copy.
func (s *Memory) History(object string) ([]Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return copyCheckpoints(s.cps[object]), nil
}

// Chain implements Store.
func (s *Memory) Chain(object string) ([]Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return copyCheckpoints(chainOf(s.cps[object])), nil
}

// chainOf slices a checkpoint history down to the reconstruction chain:
// from the last full snapshot to the end.
func chainOf(cps []Checkpoint) []Checkpoint {
	for i := len(cps) - 1; i >= 0; i-- {
		if !cps[i].Delta {
			return cps[i:]
		}
	}
	return cps
}

func copyCheckpoints(cps []Checkpoint) []Checkpoint {
	out := make([]Checkpoint, len(cps))
	for i, cp := range cps {
		out[i] = copyCheckpoint(cp)
	}
	return out
}

// Memory also implements Batched: staging and persisting coincide (there is
// no disk), and Barrier is a no-op. Exposing the batched surface matters
// beyond symmetry — the coordination engine persists update-mode commits as
// delta checkpoints only through a Batched store, so in-memory deployments
// (tests, benchmarks, caches) get the same O(delta)-per-run checkpoint
// economics as the durability plane instead of a full state copy per run.
var _ Batched = (*Memory)(nil)

// SaveCheckpointDeferred implements Batched.
func (s *Memory) SaveCheckpointDeferred(cp Checkpoint) error { return s.SaveCheckpoint(cp) }

// SaveRunDeferred implements Batched.
func (s *Memory) SaveRunDeferred(r RunRecord) error { return s.SaveRun(r) }

// DeleteRunDeferred implements Batched.
func (s *Memory) DeleteRunDeferred(runID string) error { return s.DeleteRun(runID) }

// Barrier implements Batched (nothing to sync).
func (s *Memory) Barrier() error { return nil }

// SaveRun implements Store.
func (s *Memory) SaveRun(r RunRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs[r.RunID] = r
	return nil
}

// DeleteRun implements Store.
func (s *Memory) DeleteRun(runID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.runs, runID)
	return nil
}

// PendingRuns implements Store.
func (s *Memory) PendingRuns() ([]RunRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunRecord, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, r)
	}
	sortRuns(out)
	return out, nil
}

// sortRuns orders records by object, then proposal sequence (pipeline
// order), with run id as a deterministic tie-break.
func sortRuns(out []RunRecord) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		if out[i].Proposed.Seq != out[j].Proposed.Seq {
			return out[i].Proposed.Seq < out[j].Proposed.Seq
		}
		return out[i].RunID < out[j].RunID
	})
}
