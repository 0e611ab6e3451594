package nrlog

import (
	"b2b/internal/canon"
	"b2b/internal/crypto"
)

// Hint is the SHA-256 of one large field of a payload being appended, taken
// from a digest the appender already holds — the body digest its signature
// step computed — so the log does not hash those bytes a second time. A
// hint is honoured only for the same memory as the field it names (Field's
// first byte and length); any other field of the payload, and every field
// at verification, is hashed from the stored bytes. A wrong hint is not a
// silent forgery: it stores a hash that Verify recomputes and rejects with
// ErrBadEntry.
type Hint struct {
	Field []byte
	Sum   [32]byte
}

// Domain tags of payloadDigest's hash input. Canonical tokens start with a
// type tag in 0x01–0x08, so neither tag can begin a token.
const (
	fieldTag byte = 0xfd // a large bytes field, by its SHA-256
	wholeTag byte = 0xfe // a payload that is not a canonical token stream
)

var wholeDomain = []byte{wholeTag}

// payloadDigest is D(payload), the payload's contribution to its entry hash
// (docs/PROTOCOL.md §8). A payload that is one or more complete canonical
// tokens is hashed as that token stream with every bytes token of 4 KiB or
// more (canon.Scan's large fields) replaced by fieldTag followed by the
// field's own SHA-256; with no large field that is SHA-256 of the payload
// itself. Anything else — verdict text, nil, a truncated frame — is hashed
// whole after wholeTag. Hashing a large field by its digest lets an
// appender supply that digest (hints) from its signature step, so a 1 MiB
// state is hashed once per party, not once per entry that carries it.
func payloadDigest(payload []byte, hints []Hint) [32]byte {
	large := 0
	if !canon.Scan(payload, func(int, int, []byte) { large++ }) {
		return crypto.Hash(wholeDomain, payload)
	}
	if large == 0 {
		return crypto.Hash(payload)
	}
	parts := make([][]byte, 0, 2*large+1)
	marks := make([]byte, 0, large*(1+32))
	prev := 0
	canon.Scan(payload, func(at, end int, field []byte) {
		sum, ok := hinted(field, hints)
		if !ok {
			sum = crypto.Hash(field)
		}
		marks = append(append(marks, fieldTag), sum[:]...)
		parts = append(parts, payload[prev:at], marks[len(marks)-33:])
		prev = end
	})
	parts = append(parts, payload[prev:])
	return crypto.Hash(parts...)
}

// hinted returns the hint for exactly this field's memory, if any.
func hinted(field []byte, hints []Hint) ([32]byte, bool) {
	for _, h := range hints {
		if len(h.Field) == len(field) && len(field) > 0 && &h.Field[0] == &field[0] {
			return h.Sum, true
		}
	}
	return [32]byte{}, false
}
