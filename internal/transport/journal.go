package transport

import (
	"fmt"
	"os"

	"b2b/internal/canon"
	"b2b/internal/store"
)

// seenPerRecord bounds the dedup keys one compacted RecSeen record carries,
// so a long-lived receiver's live set is re-emitted as many modest records
// rather than one that grows without limit.
const seenPerRecord = 4096

// OpenFileJournal opens the durable outbox journal rooted at directory dir:
// a store.Plane with the default policy, dedicated to one Reliable.
// WithJournal attaches the Reliable and starts (replays) the plane; the
// caller closes the plane after the Reliable. A file at dir — the JSON-lines
// journal of earlier releases — is refused: there is no migration.
func OpenFileJournal(dir string) (*store.Plane, error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("transport: journal %s is a file, not a plane directory (legacy JSON-lines journals are not migrated)", dir)
	}
	return store.OpenPlane(dir, store.Policy{}, nil)
}

// journalConsumer adapts a Reliable to the plane's consumer contract: replay
// rebuilds the outbox and dedup set, compaction re-emits them from the same
// maps. Reset and Replay run inside NewReliable, before the Reliable is
// shared; Compact runs under the plane's lock on whichever goroutine's append
// triggered it and takes r.mu — which is why no path appends holding r.mu.
type journalConsumer Reliable

func (c *journalConsumer) Reset() {
	r := (*Reliable)(c)
	r.outbox = make(map[string]*outRec)
	r.seen = make(map[string]struct{})
}

func (c *journalConsumer) Replay(kind store.RecordKind, payload []byte) error {
	r := (*Reliable)(c)
	switch kind {
	case store.RecOutboxSave:
		msgID, to, body, err := unmarshalOutRecord(payload)
		if err != nil {
			return err
		}
		r.outbox[msgID] = &outRec{to: to, payload: [][]byte{body}, frame: encodeRel(relData, msgID, body), sent: true}
	case store.RecOutboxAcked:
		ids, err := decodeStrings("racked", payload)
		if err != nil {
			return err
		}
		for _, id := range ids {
			delete(r.outbox, id)
		}
	case store.RecSeen:
		keys, err := decodeStrings("rseen", payload)
		if err != nil {
			return err
		}
		for _, k := range keys {
			r.seen[k] = struct{}{}
		}
	default:
		return fmt.Errorf("transport: journal record kind %#x is not an outbox record", kind)
	}
	return nil
}

func (c *journalConsumer) Opened() error { return nil }

// Compact re-emits the live set: every outbox record (durable or still
// being appended — a record skipped here could lose its only copy to the
// cut) and the dedup set in bounded chunks.
func (c *journalConsumer) Compact(emit func(kind store.RecordKind, payload []byte) error) error {
	r := (*Reliable)(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	for msgID, rec := range r.outbox {
		if err := emit(store.RecOutboxSave, marshalOutRecord(msgID, rec.to, rec.payload...)); err != nil {
			return err
		}
	}
	keys := make([]string, 0, min(len(r.seen), seenPerRecord))
	for k := range r.seen {
		keys = append(keys, k)
		if len(keys) == seenPerRecord {
			if err := emit(store.RecSeen, encodeStrings("rseen", keys)); err != nil {
				return err
			}
			keys = keys[:0]
		}
	}
	if len(keys) > 0 {
		return emit(store.RecSeen, encodeStrings("rseen", keys))
	}
	return nil
}

// marshalOutRecord encodes one outbox entry — payload is the concatenation
// of its parts — for the journal.
func marshalOutRecord(msgID, to string, payload ...[]byte) []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("rout")
		e.String(msgID)
		e.String(to)
		e.Bytes(payload...)
	})
}

func unmarshalOutRecord(buf []byte) (msgID, to string, payload []byte, err error) {
	d := canon.NewDecoder(buf)
	d.Struct("rout")
	msgID = d.String()
	to = d.String()
	payload = d.Bytes()
	err = d.Finish()
	return msgID, to, payload, err
}
