package coord

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"b2b/internal/crypto"
	"b2b/internal/wire"
)

// sigMemoCap bounds the verified-signature memo. Entries are tiny (a 32-byte
// key), and a run's evidence reappears within a protocol step or two, so a
// small FIFO window is enough to catch every legitimate re-verification.
const sigMemoCap = 2048

// sigMemo remembers signed messages that have already passed verification,
// keyed by a hash over everything verification inspects (kind, body digest,
// signer, signature, and all timestamp fields). A respond verified when it
// first arrived is not re-verified — two ed25519 checks saved — when the
// identical signed bytes reappear inside a commit's aggregated evidence; a
// party's own signed messages are seeded at signing time, so its respond
// embedded in an inbound commit never costs a verify at all.
//
// Caching only positive results keyed by the full verified content is sound:
// any altered field changes the key, so a forgery can never inherit a
// genuine entry's verdict. The body enters the key through the same SHA-256
// digest the signature binds, so one body hash serves both.
type sigMemo struct {
	mu      sync.Mutex
	entries map[[32]byte]struct{}
	order   [][32]byte
	hits    uint64
	misses  uint64
	digests atomic.Uint64 // body hashes taken, so tests can hold verifySigned to one per call
}

// newSigMemo leaves the entry map unallocated: an engine that never verifies
// a signature (an idle bound object in a multi-tenant process) must not pay
// the memo's ~2048-slot bucket array. The map is created on the first add.
func newSigMemo() *sigMemo {
	return &sigMemo{}
}

// sigMemoKey digests every field Signed.Verify inspects, the body through
// its digest d. Every variable-length field's length is bound into the
// prefix, so no two distinct messages can concatenate to the same key input.
//
//b2b:unverified key derivation: the digest feeds the memo lookup, and memo entries are only written after Signed.VerifyDigest has succeeded on the same key
func sigMemoKey(s wire.Signed, d [32]byte) [32]byte {
	var meta [49]byte
	meta[0] = byte(s.Kind)
	binary.BigEndian.PutUint64(meta[1:], uint64(s.TS.Time.UnixNano()))
	binary.BigEndian.PutUint64(meta[9:], uint64(len(s.Sig.Signer)))
	binary.BigEndian.PutUint64(meta[17:], uint64(len(s.TS.Authority)))
	binary.BigEndian.PutUint64(meta[25:], uint64(len(s.TS.Sig)))
	binary.BigEndian.PutUint64(meta[33:], uint64(len(s.Sig.Sig)))
	binary.BigEndian.PutUint64(meta[41:], uint64(len(s.Body)))
	return crypto.Hash(meta[:], []byte(s.Sig.Signer), []byte(s.TS.Authority),
		s.TS.Hash[:], s.TS.Sig, s.Sig.Sig, d[:])
}

// digest takes the one body digest of a verifySigned or memoOwnSigned call.
//
//b2b:unverified digest derivation: feeds sigMemoKey and Signed.VerifyDigest in the same verifySigned call, before any field is trusted
func (m *sigMemo) digest(s wire.Signed) [32]byte {
	m.digests.Add(1)
	return s.BodyDigest()
}

// seen reports (and counts) whether the key holds a verified entry.
func (m *sigMemo) seen(k [32]byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		m.hits++
		return true
	}
	m.misses++
	return false
}

// add records a verified entry, evicting FIFO past capacity.
func (m *sigMemo) add(k [32]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.entries[k]; dup {
		return
	}
	if m.entries == nil {
		m.entries = make(map[[32]byte]struct{}, sigMemoCap)
	}
	m.entries[k] = struct{}{}
	m.order = append(m.order, k)
	for len(m.order) > sigMemoCap {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
}

// stats returns the hit/miss counters.
func (m *sigMemo) stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// verifySigned is Signed.Verify through the memo: the body is hashed once,
// and that digest both keys the memo and, on a miss, is what the signature
// and timestamp are checked against. A hit skips the two ed25519
// operations; a verified miss is recorded for next time.
func (en *Engine) verifySigned(s wire.Signed) error {
	d := en.memo.digest(s)
	k := sigMemoKey(s, d)
	if en.memo.seen(k) {
		return nil
	}
	if err := s.VerifyDigest(en.cfg.Verifier, d); err != nil {
		return err
	}
	en.memo.add(k)
	return nil
}

// memoOwnSigned seeds the memo with a message this party just signed — its
// own signature is valid by construction, so its reappearance (e.g. this
// recipient's respond inside the proposer's commit) costs no verify.
func (en *Engine) memoOwnSigned(s wire.Signed) {
	en.memo.add(sigMemoKey(s, en.memo.digest(s)))
}
