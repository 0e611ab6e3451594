package xfer

import (
	"fmt"

	"b2b/internal/canon"
	"b2b/internal/store"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// delta is one catch-up step of a deltas-mode payload: the §4.3.1 update
// bytes of an agreed run plus the tuples it transitions between. The
// requester folds each step through the application's ApplyUpdate and
// verifies the result against Tuple's state hash before trusting it.
type delta struct {
	Pred   tuple.State
	Tuple  tuple.State
	Update []byte
}

// encodePayload builds the transfer payload. A snapshot payload is the raw
// state bytes themselves — unit-aligned, so the requester can verify each
// chunk against the signed offer's Merkle unit hashes as it arrives. Delta
// and up-to-date payloads keep the canonical self-describing encoding (they
// are small; chunk CRCs plus the signed payload hash cover them).
func encodePayload(mode wire.XferMode, state []byte, deltas []store.Checkpoint) []byte {
	if mode == wire.XferSnapshot {
		return state
	}
	e := canon.NewEncoder()
	e.Struct("xfer-payload")
	e.Uint64(uint64(mode))
	e.Bytes(nil)
	e.List(len(deltas))
	for _, cp := range deltas {
		e.Struct("xfer-delta")
		cp.Pred.Encode(e)
		cp.Tuple.Encode(e)
		e.Bytes(cp.Update)
	}
	return e.Out()
}

// decodePayload parses a transfer payload under the signed offer's mode.
func decodePayload(offerMode wire.XferMode, buf []byte) (mode wire.XferMode, state []byte, deltas []delta, err error) {
	if offerMode == wire.XferSnapshot {
		return wire.XferSnapshot, buf, nil, nil
	}
	d := canon.NewDecoder(buf)
	d.Struct("xfer-payload")
	mode = wire.XferMode(d.Uint8())
	state = d.Bytes()
	n := d.List()
	if d.Err() == nil {
		for i := 0; i < n; i++ {
			d.Struct("xfer-delta")
			var dl delta
			dl.Pred = tuple.DecodeState(d)
			dl.Tuple = tuple.DecodeState(d)
			dl.Update = d.Bytes()
			if d.Err() != nil {
				break
			}
			deltas = append(deltas, dl)
		}
	}
	if ferr := d.Finish(); ferr != nil {
		return 0, nil, nil, fmt.Errorf("xfer: decoding payload: %w", ferr)
	}
	return mode, state, deltas, nil
}

// chunkCount returns the number of ChunkSize chunks covering n bytes.
func chunkCount(n, chunkSize int) uint64 {
	if n == 0 {
		return 0
	}
	return uint64((n + chunkSize - 1) / chunkSize)
}

// chunkAt slices chunk idx out of payload.
func chunkAt(payload []byte, idx uint64, chunkSize int) []byte {
	lo := int(idx) * chunkSize
	hi := lo + chunkSize
	if hi > len(payload) {
		hi = len(payload)
	}
	return payload[lo:hi]
}
