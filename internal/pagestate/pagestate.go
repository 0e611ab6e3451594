// Package pagestate implements the paged Merkle state identity and the
// copy-on-write replica representation behind tuple.State.HashState.
//
// Object state is split into fixed-size pages (policy-configurable, default
// 4 KiB). Each page is hashed into a leaf — a page longer than MaxPageSize
// (4 MiB) as the Merkle fold of its 4 MiB sub-slices, so that a transfer
// can verify every chunk of any page on arrival — leaves are combined
// pairwise into a Merkle tree (RFC 6962-style domain separation: leaf and
// interior nodes hash under distinct prefixes, and an odd node is promoted
// unchanged), and the final identity wraps the tree root together with the
// page size and the total state length:
//
//	HashState = H("b2b.paged-root" || be64(pageSize) || be64(size) || MTH)
//
// Binding pageSize and size into the root makes the identity self-describing
// (a mismatched page size cannot collide with a genuine root) and closes the
// classic leaf/interior second-preimage ambiguity together with the domain
// prefixes. Collision resistance of the root reduces to collision resistance
// of SHA-256 exactly as the flat hash did: two states differing in any byte
// differ in at least one page, hence in that page's leaf, hence — absent a
// SHA-256 collision — in the root. See docs/ARCHITECTURE.md, "State
// identity".
//
// A Paged value is a copy-on-write view: Clone is O(pages) slice-header and
// hash copies (no state bytes move), WriteAt copies only the touched pages
// and rehashes them plus the root path (O(delta · log S)), and unchanged
// pages stay physically shared between every clone that descends from the
// same build; Rebase brings flat bytes derived from a Paged back into paged
// form at the hashing cost of the pages that differ. The coordination engine
// stores its agreed/current/speculative replica states as Paged values, so a
// 64-byte update on a 16 MiB object no longer costs 16 MiB of hashing and
// copying per run at every member.
//
// A Paged that has been shared (stored in an engine field, passed to another
// component) is immutable by convention: all mutation happens on a fresh
// Clone before the value is published. Methods are not internally locked,
// with one exception: Bytes, BytesFrom and Adopt share an atomic hand-over
// slot, so they may be called on a shared Paged from any goroutine.
//
// Bytes hands its caller a flat buffer the caller owns. Materialising costs
// O(S), and a flat boundary that needs the same state more than once in one
// run (validate, then apply, then install) would pay it each time; Adopt
// lets the owner of a flat copy of p's content park it on p, and the next
// Bytes call takes it instead of copying — once, by atomic swap, so no two
// callers ever receive the same buffer. A flat boundary that needs a later
// state next run need not pay O(S) either: BytesFrom brings a dead flat copy
// of an earlier state up to date by copying only the pages the two states do
// not share, which copy-on-write makes exactly the pages that may differ.
package pagestate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"b2b/internal/crypto"
)

// DefaultPageSize is the page granularity when the policy leaves it zero.
// All members of a sharing group must use the same page size: it is bound
// into every state identity the group agrees on.
const DefaultPageSize = 4 << 10

// MaxPageSize is L (4 MiB), the longest page hashed as one leaf. A longer
// page takes as its leaf the Merkle fold of its L-byte sub-slices, and must
// be a multiple of L (CheckPageSize), so a state of any page size splits
// into units of UnitSize bytes that never straddle a page. Snapshot
// transfers chunk and verify in those units, which stay well under the
// 16 MiB transport frame cap; the flat-hash baseline of lab's
// TestPagedIdentityIsODelta (16 MiB pages) transfers like any other group.
const MaxPageSize = 4 << 20

// CheckPageSize rejects a page size no group may be configured with: it
// must be positive, and above MaxPageSize a multiple of it.
func CheckPageSize(pageSize int) error {
	if pageSize <= 0 || (pageSize > MaxPageSize && pageSize%MaxPageSize != 0) {
		return fmt.Errorf("pagestate: page size %d is neither in (0, %d] nor a multiple of %d",
			pageSize, MaxPageSize, MaxPageSize)
	}
	return nil
}

// UnitSize returns the hash unit of a page size: the page itself up to
// MaxPageSize, else its MaxPageSize sub-slices. A snapshot offer carries one
// leaf hash per unit, and its chunks align to units.
func UnitSize(pageSize int) int { return min(pageSize, MaxPageSize) }

// Policy tunes the paged state identity. The zero value selects the
// defaults noted on each field.
type Policy struct {
	// PageSize is the page granularity in bytes (default 4 KiB). It is a
	// protocol parameter, not a local tuning knob: HashState binds it, so
	// every member of a group must configure the same value.
	PageSize int
}

// WithDefaults returns the policy with zero fields replaced by defaults.
func (p Policy) WithDefaults() Policy {
	if p.PageSize <= 0 {
		p.PageSize = DefaultPageSize
	}
	return p
}

// Domain-separation prefixes (RFC 6962 style) and the root wrap tag.
var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
	rootTag    = []byte("b2b.paged-root")
)

// Instrumentation: bytes fed to the hash function and bytes copied while
// building, cloning and mutating paged states. The large-object benchmark
// reads these to prove the O(delta) bars; production code never does.
var (
	statHashed atomic.Uint64
	statCopied atomic.Uint64
)

// Stats returns the cumulative instrumentation counters.
func Stats() (hashed, copied uint64) { return statHashed.Load(), statCopied.Load() }

// ResetStats zeroes the instrumentation counters (benchmark setup).
func ResetStats() { statHashed.Store(0); statCopied.Store(0) }

func leafHash(page []byte) [32]byte {
	statHashed.Add(uint64(len(page)) + 1)
	return crypto.Hash(leafPrefix, page)
}

func nodeHash(l, r [32]byte) [32]byte {
	statHashed.Add(65)
	return crypto.Hash(nodePrefix, l[:], r[:])
}

func be64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func wrapRoot(mth [32]byte, size, pageSize int) [32]byte {
	statHashed.Add(uint64(len(rootTag)) + 48)
	return crypto.Hash(rootTag, be64(uint64(pageSize)), be64(uint64(size)), mth[:])
}

// UnitHash returns the leaf hash of one unit's content — the value a
// transfer requester compares an arriving chunk's units against.
func UnitHash(unit []byte) [32]byte { return leafHash(unit) }

// appendUnitLeaves appends the leaf hash of each MaxPageSize slice of page.
func appendUnitLeaves(dst [][32]byte, page []byte) [][32]byte {
	for lo := 0; lo < len(page); lo += MaxPageSize {
		dst = append(dst, leafHash(page[lo:min(lo+MaxPageSize, len(page))]))
	}
	return dst
}

// pageLeaf returns a page's leaf in the tree: its leaf hash up to
// MaxPageSize bytes, else the Merkle fold of its units' leaf hashes.
func pageLeaf(page []byte) [32]byte {
	if len(page) <= MaxPageSize {
		return leafHash(page)
	}
	return mthOf(appendUnitLeaves(nil, page))
}

// PageCount returns the number of pageSize pages covering size bytes.
func PageCount(size, pageSize int) int {
	if size <= 0 {
		return 0
	}
	return (size + pageSize - 1) / pageSize
}

// Paged is a copy-on-write paged state with its Merkle hash tree.
type Paged struct {
	pageSize int
	size     int
	pages    [][]byte     // ceil(size/pageSize) pages; the last may be short
	levels   [][][32]byte // levels[0] = leaf hashes; top level has <= 1 node
	root     [32]byte     // cached wrapped root, maintained on every mutation

	// adopted is a flat copy of this state's content that nobody else
	// references, parked by Adopt for the next Bytes or BytesFrom call to
	// take. Clone never carries it; WriteAt and Resize drop it.
	adopted atomic.Pointer[[]byte]
}

// FromBytes builds a Paged from flat state bytes: O(S) page copies and leaf
// hashes plus O(pages) interior hashes. pageSize <= 0 selects the default.
func FromBytes(state []byte, pageSize int) *Paged {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	n := PageCount(len(state), pageSize)
	pages := make([][]byte, n)
	leaves := make([][32]byte, n)
	for i := 0; i < n; i++ {
		lo := i * pageSize
		hi := lo + pageSize
		if hi > len(state) {
			hi = len(state)
		}
		page := make([]byte, hi-lo)
		copy(page, state[lo:hi])
		statCopied.Add(uint64(len(page)))
		pages[i] = page
		leaves[i] = pageLeaf(page)
	}
	p := &Paged{pageSize: pageSize, size: len(state), pages: pages}
	p.levels = buildLevels(leaves)
	p.root = wrapRoot(p.mth(), p.size, p.pageSize)
	return p
}

// Root computes the paged Merkle identity of flat state bytes without
// retaining pages (the hash-only path behind tuple.NewState).
func Root(state []byte, pageSize int) [32]byte {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	n := PageCount(len(state), pageSize)
	leaves := make([][32]byte, n)
	for i := 0; i < n; i++ {
		lo := i * pageSize
		hi := lo + pageSize
		if hi > len(state) {
			hi = len(state)
		}
		leaves[i] = pageLeaf(state[lo:hi])
	}
	return wrapRoot(mthOf(leaves), len(state), pageSize)
}

// RootFromUnitHashes recomputes the wrapped root from a unit-hash vector
// (see UnitSize), as a transfer requester does to bind a signed offer's
// page hashes to the agreed tuple before trusting any chunk. The page size
// must pass CheckPageSize and the count must match the geometry.
func RootFromUnitHashes(hashes [][32]byte, size, pageSize int) ([32]byte, error) {
	if err := CheckPageSize(pageSize); err != nil {
		return [32]byte{}, err
	}
	unit := UnitSize(pageSize)
	if want := PageCount(size, unit); len(hashes) != want {
		return [32]byte{}, fmt.Errorf("pagestate: %d unit hashes for %d bytes at unit size %d (want %d)",
			len(hashes), size, unit, want)
	}
	// Fold each page's units to its leaf in place: leaf i lands at index
	// i, which no later page's units occupy.
	leaves := append([][32]byte(nil), hashes...)
	per, n := pageSize/unit, 0
	for lo := 0; lo < len(leaves); lo += per {
		leaves[n] = mthOf(leaves[lo:min(lo+per, len(leaves))])
		n++
	}
	return wrapRoot(mthOf(leaves[:n]), size, pageSize), nil
}

// buildLevels constructs the full tree bottom-up. The leaves slice is owned
// by the result.
func buildLevels(leaves [][32]byte) [][][32]byte {
	levels := [][][32]byte{leaves}
	for len(levels[len(levels)-1]) > 1 {
		prev := levels[len(levels)-1]
		next := make([][32]byte, (len(prev)+1)/2)
		for i := 0; i < len(prev); i += 2 {
			if i+1 < len(prev) {
				next[i/2] = nodeHash(prev[i], prev[i+1])
			} else {
				next[i/2] = prev[i] // odd node promoted unchanged
			}
		}
		levels = append(levels, next)
	}
	return levels
}

// mthOf folds a transient leaf vector to the tree root, reusing the slice as
// scratch space (callers pass ownership).
func mthOf(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return [32]byte{}
	}
	for len(leaves) > 1 {
		half := (len(leaves) + 1) / 2
		for i := 0; i < len(leaves); i += 2 {
			if i+1 < len(leaves) {
				leaves[i/2] = nodeHash(leaves[i], leaves[i+1])
			} else {
				leaves[i/2] = leaves[i]
			}
		}
		leaves = leaves[:half]
	}
	return leaves[0]
}

// mth returns the (unwrapped) Merkle tree head.
func (p *Paged) mth() [32]byte {
	top := p.levels[len(p.levels)-1]
	if len(top) == 0 {
		return [32]byte{}
	}
	return top[0]
}

// Root returns the wrapped Merkle identity — the value HashState carries.
func (p *Paged) Root() [32]byte { return p.root }

// Size returns the state length in bytes.
func (p *Paged) Size() int { return p.size }

// PageSize returns the page granularity.
func (p *Paged) PageSize() int { return p.pageSize }

// Pages returns the number of pages.
func (p *Paged) Pages() int { return len(p.pages) }

// Page returns page i for read-only use (aliases internal storage).
func (p *Paged) Page(i int) []byte { return p.pages[i] }

// UnitHashes returns the leaf hash of every unit (see UnitSize) in order:
// the page-hash vector of a snapshot offer. Up to MaxPageSize a unit is a
// page and this copies the leaf level; larger pages are hashed again unit
// by unit.
func (p *Paged) UnitHashes() [][32]byte {
	if p.pageSize <= MaxPageSize {
		return append([][32]byte(nil), p.levels[0]...)
	}
	out := make([][32]byte, 0, PageCount(p.size, MaxPageSize))
	for _, page := range p.pages {
		out = appendUnitLeaves(out, page)
	}
	return out
}

// Bytes returns the flat state in a buffer the caller owns: it shares no
// memory with p, with any other Paged, or with the result of any other
// Bytes call. A pending adoption (Adopt) is taken at no copying cost;
// otherwise the pages are copied into one non-zeroed allocation, O(S).
func (p *Paged) Bytes() []byte {
	if flat := p.adopted.Swap(nil); flat != nil {
		return *flat
	}
	statCopied.Add(uint64(p.size))
	return bytes.Join(p.pages, nil)
}

// BytesFrom is Bytes into spare, a flat buffer the caller owns that holds
// exactly of's content: it copies into spare only the pages p does not
// share with of and returns spare, so a state a few pages away from of
// costs O(pages) pointer compares plus O(delta) copying. A page two Paged
// values share is one immutable array, so the result is p's content. A
// pending adoption still wins, and a geometry mismatch (size, page size or
// page count) falls back to Bytes; either way spare is left untouched.
func (p *Paged) BytesFrom(spare []byte, of *Paged) []byte {
	if flat := p.adopted.Swap(nil); flat != nil {
		return *flat
	}
	if of == nil || len(spare) != p.size || of.size != p.size ||
		of.pageSize != p.pageSize || len(of.pages) != len(p.pages) {
		return p.Bytes()
	}
	for i, page := range p.pages {
		if theirs := of.pages[i]; len(theirs) == len(page) && &theirs[0] == &page[0] {
			continue
		}
		copy(spare[i*p.pageSize:], page)
		statCopied.Add(uint64(len(page)))
	}
	return spare
}

// Adopt parks flat for the next Bytes call to return instead of copying.
// flat must hold exactly p's content, and the caller hands it over: it must
// keep no reference that it will read or write again, because the next
// Bytes caller owns it. A flat of the wrong length is ignored, and so is
// any flat for an empty state (there is nothing to save). Adopting
// replaces any adoption still pending.
func (p *Paged) Adopt(flat []byte) {
	if p.size == 0 || len(flat) != p.size {
		return
	}
	p.adopted.Store(&flat)
}

// Clone returns a copy-on-write descendant: page contents are shared, the
// page table and hash levels are copied so the clone can mutate freely.
// O(pages) header and hash copies — no state bytes move. A pending adoption
// stays with p: it can be handed over only once.
func (p *Paged) Clone() *Paged {
	pages := make([][]byte, len(p.pages))
	copy(pages, p.pages)
	levels := make([][][32]byte, len(p.levels))
	var meta uint64
	for i, lv := range p.levels {
		levels[i] = make([][32]byte, len(lv))
		copy(levels[i], lv)
		meta += uint64(len(lv)) * 32
	}
	statCopied.Add(meta + uint64(len(p.pages))*24)
	return &Paged{pageSize: p.pageSize, size: p.size, pages: pages, levels: levels, root: p.root}
}

// WriteAt overwrites [off, off+len(data)) with data: the touched pages are
// copied (copy-on-write — the originals may be shared with other clones),
// rewritten and rehashed, and only their root paths recompute. Must stay in
// bounds; use Resize/Append to change the length.
func (p *Paged) WriteAt(off int, data []byte) error {
	if off < 0 || off+len(data) > p.size {
		return fmt.Errorf("pagestate: write [%d,%d) outside %d-byte state", off, off+len(data), p.size)
	}
	if len(data) == 0 {
		return nil
	}
	p.adopted.Store(nil)
	first := off / p.pageSize
	last := (off + len(data) - 1) / p.pageSize
	for i := first; i <= last; i++ {
		old := p.pages[i]
		page := make([]byte, len(old))
		copy(page, old)
		statCopied.Add(uint64(len(page)))
		lo := i * p.pageSize // page start offset in state space
		from := 0
		if off > lo {
			from = off - lo
		}
		n := copy(page[from:], data[lo+from-off:])
		statCopied.Add(uint64(n))
		p.pages[i] = page
		p.setLeaf(i, pageLeaf(page))
	}
	p.root = wrapRoot(p.mth(), p.size, p.pageSize)
	return nil
}

// setLeaf installs a recomputed leaf hash and rehashes its path to the top:
// O(log pages) interior hashes.
func (p *Paged) setLeaf(i int, h [32]byte) {
	p.levels[0][i] = h
	for lv := 0; lv+1 < len(p.levels); lv++ {
		parent := i / 2
		cur := p.levels[lv]
		l := cur[2*parent]
		if 2*parent+1 < len(cur) {
			p.levels[lv+1][parent] = nodeHash(l, cur[2*parent+1])
		} else {
			p.levels[lv+1][parent] = l
		}
		i = parent
	}
}

// Resize grows (zero-filled) or shrinks the state to n bytes. Whole pages
// that survive are shared; the boundary page is copied; the interior levels
// are rebuilt (O(pages) 64-byte hashes — cheap next to rehashing content).
func (p *Paged) Resize(n int) error {
	if n < 0 {
		return fmt.Errorf("pagestate: resize to %d", n)
	}
	if n == p.size {
		return nil
	}
	p.adopted.Store(nil)
	count := PageCount(n, p.pageSize)
	pages := make([][]byte, count)
	leaves := make([][32]byte, count)
	// Pages wholly inside both old and new layouts carry over untouched.
	keep := count
	if len(p.pages) < keep {
		keep = len(p.pages)
	}
	copy(pages, p.pages[:keep])
	copy(leaves, p.levels[0][:keep])
	for i := 0; i < count; i++ {
		lo := i * p.pageSize
		hi := lo + p.pageSize
		if hi > n {
			hi = n
		}
		want := hi - lo
		if pages[i] != nil && len(pages[i]) == want {
			continue
		}
		page := make([]byte, want)
		if pages[i] != nil {
			copy(page, pages[i])
		}
		statCopied.Add(uint64(want))
		pages[i] = page
		leaves[i] = pageLeaf(page)
	}
	p.pages = pages
	p.size = n
	p.levels = buildLevels(leaves)
	p.root = wrapRoot(p.mth(), p.size, p.pageSize)
	return nil
}

// Rebase returns the paged form of flat, sharing every page of p whose
// content flat repeats: the result equals FromBytes(flat, p.PageSize()) in
// bytes and root, but only pages that differ from p's are copied and
// rehashed — an O(S) comparison with O(delta · log S) hashing where FromBytes
// hashes all of S (a length change adds Resize's O(pages) interior rebuild).
// It is how a flat state produced from p (a flat ApplyUpdate result, an
// overwrite of p) re-enters the paged world. Neither p nor flat is mutated,
// and the result never aliases flat nor carries an adoption.
func (p *Paged) Rebase(flat []byte) *Paged {
	q := p.Clone()
	_ = q.Resize(len(flat)) // only a negative length fails
	for i, page := range q.pages {
		lo := i * q.pageSize
		chunk := flat[lo : lo+len(page)]
		if !bytes.Equal(page, chunk) {
			_ = q.WriteAt(lo, chunk) // in bounds: chunk is page i of len(flat) bytes
		}
	}
	return q
}

// Append extends the state with data (the update-append idiom).
func (p *Paged) Append(data []byte) error {
	off := p.size
	if err := p.Resize(p.size + len(data)); err != nil {
		return err
	}
	return p.WriteAt(off, data)
}
