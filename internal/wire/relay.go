// Relay-plane messages: the store-and-forward mailbox exchange that lets
// protocol traffic reach members who are not always online. A depositor
// seals an end-to-end signed envelope to the recipient's per-epoch prekey
// and parks it at a relay; the recipient drains its mailbox on reconnect
// with a signed poll and acknowledges delivery cumulatively.
//
// Trust model (docs/ARCHITECTURE.md, "Relay plane"): the relay is
// UNTRUSTED. Deposited envelopes are already signed end-to-end, so the
// relay can forge nothing; the sealed hop means a relay disk compromise
// reveals nothing once the recipient rotates prekey epochs. The only relay
// message that carries a signature is the poll — mailbox deletion must be
// authorized by the mailbox owner — and the only party that verifies
// deposit interiors is the recipient after unsealing.
package wire

import (
	"errors"

	"b2b/internal/canon"
)

// Relay bounds: decode-time caps rejected before allocation proportional to
// a hostile claim (the gossip codec's discipline).
const (
	// MaxRelaySealed caps one sealed deposit blob. The largest envelopes
	// are overwrite proposals and commits, which carry a whole object state
	// (a Welcome carries none); a deposit over the cap is refused at decode.
	MaxRelaySealed = 4 << 20
	// MaxRelayBatchEntries caps one drain batch. Drains page: a mailbox
	// deeper than this takes several poll/batch rounds.
	MaxRelayBatchEntries = 64
	// MaxRelayPrekeyLen caps a published prekey public key (X25519 keys are
	// 32 bytes; the bound leaves room for algorithm agility).
	MaxRelayPrekeyLen = 64
)

// Errors of the relay codecs.
var (
	errRelayTooLarge = errors.New("wire: relay message exceeds bound")
)

// RelayDeposit parks one sealed, end-to-end signed envelope in the
// recipient's mailbox at a relay. The relay stores Sealed opaquely — it
// cannot open it (sealed to the recipient's epoch prekey) and does not
// verify it (the interior envelope is verified by the recipient after
// unsealing, like any other inbound protocol message).
type RelayDeposit struct {
	Recipient string
	Epoch     uint64 // prekey epoch Sealed was sealed under
	Sealed    []byte // relayseal blob: ephemeral pub || nonce || ciphertext
}

// Marshal returns the canonical bytes.
func (r RelayDeposit) Marshal() []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("rdeposit")
		e.String(r.Recipient)
		e.Uint64(r.Epoch)
		e.Bytes(r.Sealed)
	})
}

// UnmarshalRelayDeposit parses a RelayDeposit, rejecting oversized blobs.
func UnmarshalRelayDeposit(buf []byte) (RelayDeposit, error) {
	d := canon.NewDecoder(buf)
	d.Struct("rdeposit")
	r := RelayDeposit{Recipient: d.String(), Epoch: d.Uint64(), Sealed: d.Bytes()}
	if err := d.Finish(); err != nil {
		return RelayDeposit{}, err
	}
	if len(r.Sealed) > MaxRelaySealed {
		return RelayDeposit{}, errRelayTooLarge
	}
	return r, nil
}

// RelayPoll asks a relay for the contents of the sender's mailbox. It rides
// inside a wire.Signed signed by the mailbox owner: AckThrough
// cumulatively acknowledges (and authorizes deletion of) every entry with
// Seq <= AckThrough, and deletion on an unauthenticated message would let
// anyone empty anyone's mailbox. Max bounds the reply batch.
type RelayPoll struct {
	Recipient  string
	AckThrough uint64
	Max        uint64
}

// Marshal returns the canonical bytes (the Signed body).
func (r RelayPoll) Marshal() []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("rpoll")
		e.String(r.Recipient)
		e.Uint64(r.AckThrough)
		e.Uint64(r.Max)
	})
}

// UnmarshalRelayPoll parses a RelayPoll.
func UnmarshalRelayPoll(buf []byte) (RelayPoll, error) {
	d := canon.NewDecoder(buf)
	d.Struct("rpoll")
	r := RelayPoll{Recipient: d.String(), AckThrough: d.Uint64(), Max: d.Uint64()}
	if err := d.Finish(); err != nil {
		return RelayPoll{}, err
	}
	return r, nil
}

// RelayEntry is one parked deposit in a drain batch, tagged with its
// mailbox sequence number for cumulative acknowledgement.
type RelayEntry struct {
	Seq    uint64
	Epoch  uint64
	Sealed []byte
}

// RelayBatch answers a poll with a page of the mailbox, oldest first.
// Unsigned: every entry is sealed to the recipient and interior-signed by
// its depositor, so the batch framing carries nothing forgeable — a relay
// lying in Remaining can only cause an extra (empty) poll.
type RelayBatch struct {
	Recipient string
	Entries   []RelayEntry
	Remaining uint64 // entries still parked after this page
}

// Marshal returns the canonical bytes.
func (r RelayBatch) Marshal() []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("rbatch")
		e.String(r.Recipient)
		e.List(len(r.Entries))
		for _, en := range r.Entries {
			e.Uint64(en.Seq)
			e.Uint64(en.Epoch)
			e.Bytes(en.Sealed)
		}
		e.Uint64(r.Remaining)
	})
}

// UnmarshalRelayBatch parses a RelayBatch. The entry list is bounded: a
// count above MaxRelayBatchEntries fails before allocation.
func UnmarshalRelayBatch(buf []byte) (RelayBatch, error) {
	d := canon.NewDecoder(buf)
	d.Struct("rbatch")
	r := RelayBatch{Recipient: d.String()}
	n := d.List()
	if d.Err() == nil {
		if n > MaxRelayBatchEntries {
			return RelayBatch{}, errRelayTooLarge
		}
		for i := 0; i < n; i++ {
			en := RelayEntry{Seq: d.Uint64(), Epoch: d.Uint64(), Sealed: d.Bytes()}
			if d.Err() != nil {
				break
			}
			if len(en.Sealed) > MaxRelaySealed {
				return RelayBatch{}, errRelayTooLarge
			}
			r.Entries = append(r.Entries, en)
		}
	}
	r.Remaining = d.Uint64()
	if err := d.Finish(); err != nil {
		return RelayBatch{}, err
	}
	return r, nil
}

// RelayPrekey publishes one member's per-epoch sealing key: depositors seal
// to the highest-epoch prekey they hold for the recipient. It rides inside
// a wire.Signed signed by the member — a forged prekey would let its forger
// read the relay hop — and receivers only ever advance epochs (Learn is
// monotonic), so a replayed old prekey cannot roll a member's epoch back.
type RelayPrekey struct {
	Member string
	Epoch  uint64
	Pub    []byte // X25519 public key
}

// Marshal returns the canonical bytes (the Signed body).
func (r RelayPrekey) Marshal() []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("rprekey")
		e.String(r.Member)
		e.Uint64(r.Epoch)
		e.Bytes(r.Pub)
	})
}

// UnmarshalRelayPrekey parses a RelayPrekey, bounding the key length.
func UnmarshalRelayPrekey(buf []byte) (RelayPrekey, error) {
	d := canon.NewDecoder(buf)
	d.Struct("rprekey")
	r := RelayPrekey{Member: d.String(), Epoch: d.Uint64(), Pub: d.Bytes()}
	if err := d.Finish(); err != nil {
		return RelayPrekey{}, err
	}
	if len(r.Pub) > MaxRelayPrekeyLen {
		return RelayPrekey{}, errRelayTooLarge
	}
	return r, nil
}
