// Package canon implements a canonical, deterministic, prefix-free binary
// encoding used for every piece of signed material in the middleware.
//
// Signatures are only meaningful if both signer and verifier derive exactly
// the same byte string from a message. Generic serializers (JSON, gob) do not
// guarantee a unique representation, so B2BObjects encodes all signed
// structures with this package: every value is written as a one-byte type tag
// followed by a fixed-width or length-prefixed payload. A given Go value has
// exactly one encoding, and decoding is unambiguous.
//
// A message crosses this package with one copy per real boundary, because
// the largest messages carry a whole object state:
//
//   - Decoding copies nothing. Decoder.Bytes returns a sub-slice of the
//     input, capacity clipped to its length, so a decoded message — and the
//     evidence kept of it — aliases the one received frame. A received frame
//     is immutable: no layer writes it, and a caller that keeps a small
//     field of a large, short-lived buffer clones that field.
//   - Encoding writes each large field once. Encoder.Bytes references a
//     field of 4 KiB or more instead of appending it; Marshal hands back one
//     buffer of exactly the encoding's size, written directly from the
//     encoder's own bytes and the referenced fields, and MarshalSegments
//     hands back the pieces uncopied, so a wrapper (a signed message, an
//     envelope, a transport frame) is written around its body instead of
//     re-appending it. A referenced field must not change until the
//     encoding is materialised or sent.
package canon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Type tags. The tag octet precedes every encoded value so that a decoder can
// verify it is reading the kind of field it expects (a cheap structural
// checksum that turns most truncation/corruption into clean errors).
const (
	tagUint64 byte = 0x01
	tagInt64  byte = 0x02
	tagBool   byte = 0x03
	tagString byte = 0x04
	tagBytes  byte = 0x05
	tagTime   byte = 0x06
	tagStruct byte = 0x07
	tagList   byte = 0x08
)

// Errors returned by Decoder.
var (
	ErrTruncated = errors.New("canon: truncated input")
	ErrTag       = errors.New("canon: unexpected type tag")
	ErrTrailing  = errors.New("canon: trailing bytes after decode")
	ErrLength    = errors.New("canon: implausible length prefix")
)

// maxLen bounds any single length prefix a decoder will accept. It exists to
// stop a corrupted or hostile length prefix from triggering a huge
// allocation; protocol messages are far smaller than this.
const maxLen = 1 << 30

// Encoder accumulates a canonical encoding. The zero value is ready to use.
//
// A Bytes field of refMin bytes or more is not copied in: the encoder keeps
// a reference to it, and its bytes are copied exactly once, when the
// encoding is materialised (Out, Marshal) or by whoever consumes
// MarshalSegments' output. Such a field must not change until then.
type Encoder struct {
	buf  []byte
	refs []ref
}

// ref is a large Bytes field held by reference: its bytes follow buf[:at].
type ref struct {
	at int
	b  []byte
}

// refMin is the size from which a Bytes field is referenced rather than
// appended: a whole object state or update, never a hash or a name.
const refMin = 4 << 10

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// encPool recycles encoder buffers for the marshal-once hot paths (propose /
// respond / commit construction, envelope framing): the repeated
// append-growth of a fresh buffer per message becomes a single right-sized
// copy out of a warm buffer.
var encPool = sync.Pool{New: func() any { return new(Encoder) }}

// maxPooledBuf caps the buffer size returned to the pool, so one encoding
// with many mid-sized fields does not pin a giant buffer for the process
// lifetime.
const maxPooledBuf = 1 << 20

// Marshal encodes through a pooled encoder: fn writes the value, and the
// result is a fresh buffer of exactly the encoding's size, written once —
// the encoder's own bytes and each large field it references are copied
// into it directly, so a 1 MiB state costs one 1 MiB copy however deep the
// wrapper it sits in. Use for hot-path Marshal implementations; NewEncoder
// remains for incremental callers that keep the buffer.
func Marshal(fn func(*Encoder)) []byte {
	own, refs := marshal(fn)
	if len(refs) == 0 {
		return own
	}
	return bytes.Join(segments(own, refs), nil)
}

// MarshalSegments is Marshal for a caller that sends the encoding as
// consecutive segments (a vectored write, or one gathering copy further
// down): the encoder's own bytes are copied out of the pooled buffer, and
// each large field stays referenced, so a message wrapped around a large
// body never copies the body. The segments' concatenation is Marshal's
// output.
func MarshalSegments(fn func(*Encoder)) [][]byte {
	return segments(marshal(fn))
}

// marshal runs fn on a pooled encoder and returns an exact copy of its own
// bytes with the large fields it references.
func marshal(fn func(*Encoder)) (own []byte, refs []ref) {
	e := encPool.Get().(*Encoder)
	e.buf, e.refs = e.buf[:0], e.refs[:0]
	fn(e)
	own = append(make([]byte, 0, len(e.buf)), e.buf...)
	if len(e.refs) > 0 {
		refs = append([]ref(nil), e.refs...)
		clear(e.refs) // the pool must not keep the caller's buffers alive
	}
	if cap(e.buf) <= maxPooledBuf {
		encPool.Put(e)
	}
	return own, refs
}

// Out returns the encoded buffer, materialising any referenced fields into
// it first. The returned slice aliases the encoder's internal buffer;
// callers that keep encoding afterwards must copy it first.
func (e *Encoder) Out() []byte {
	if len(e.refs) > 0 {
		e.buf, e.refs = bytes.Join(segments(e.buf, e.refs), nil), nil
	}
	return e.buf
}

// segments returns an encoding as consecutive pieces, copying nothing: the
// encoder's own bytes buf interleaved with the large fields refs places in
// it. None of the pieces has spare capacity to append into.
func segments(buf []byte, refs []ref) [][]byte {
	segs := make([][]byte, 0, 2*len(refs)+1)
	prev := 0
	for _, r := range refs {
		if r.at > prev {
			segs = append(segs, buf[prev:r.at:r.at])
		}
		segs = append(segs, r.b[:len(r.b):len(r.b)])
		prev = r.at
	}
	if len(buf) > prev {
		segs = append(segs, buf[prev:len(buf):len(buf)])
	}
	return segs
}

// Len reports the number of encoded bytes so far.
func (e *Encoder) Len() int {
	n := len(e.buf)
	for _, r := range e.refs {
		n += len(r.b)
	}
	return n
}

// Uint64 appends an unsigned integer.
func (e *Encoder) Uint64(v uint64) {
	e.buf = append(e.buf, tagUint64)
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 appends a signed integer.
func (e *Encoder) Int64(v int64) {
	e.buf = append(e.buf, tagInt64)
	e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v))
}

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, tagBool, b)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.buf = append(e.buf, tagString)
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes32 appends a fixed 32-byte value (hashes) as a Bytes field.
func (e *Encoder) Bytes32(b [32]byte) {
	e.buf = append(e.buf, tagBytes, 0, 0, 0, 32)
	e.buf = append(e.buf, b[:]...)
}

// Bytes appends one length-prefixed byte-string field holding the
// concatenation of parts — usually a single slice; several when a wrapper
// carries an encoding it holds as Segments. nil and empty encode
// identically (length zero): canonical form does not distinguish them. A
// part of refMin bytes or more is referenced, not copied (see Encoder).
func (e *Encoder) Bytes(parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	e.buf = append(e.buf, tagBytes)
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	for _, p := range parts {
		if len(p) >= refMin {
			e.refs = append(e.refs, ref{at: len(e.buf), b: p})
		} else {
			e.buf = append(e.buf, p...)
		}
	}
}

// Time appends an instant with nanosecond precision in UTC. Monotonic clock
// readings and location are deliberately discarded: two equal instants encode
// identically.
func (e *Encoder) Time(t time.Time) {
	e.buf = append(e.buf, tagTime)
	e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(t.UTC().UnixNano()))
}

// Struct appends a named struct header. The name guards against cross-type
// signature confusion: a signed "propose" can never verify as a "respond".
func (e *Encoder) Struct(name string) {
	e.buf = append(e.buf, tagStruct)
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(name)))
	e.buf = append(e.buf, name...)
}

// List appends a list header carrying the element count. Elements follow as
// ordinary encoded values.
func (e *Encoder) List(n int) {
	e.buf = append(e.buf, tagList)
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
}

// Strings appends a list of strings.
func (e *Encoder) Strings(ss []string) {
	e.List(len(ss))
	for _, s := range ss {
		e.String(s)
	}
}

// Decoder consumes a canonical encoding produced by Encoder. Errors are
// sticky: after the first failure every subsequent read returns the zero
// value and Err reports the original cause.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error unless the input was fully and cleanly consumed.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) tag(want byte) bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return false
	}
	got := d.buf[d.off]
	if got != want {
		d.fail(fmt.Errorf("%w: got 0x%02x want 0x%02x at offset %d", ErrTag, got, want, d.off))
		return false
	}
	d.off++
	return true
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > maxLen {
		d.fail(ErrLength)
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) length() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxLen {
		d.fail(ErrLength)
		return 0
	}
	return int(n)
}

// Uint64 reads an unsigned integer.
func (d *Decoder) Uint64() uint64 {
	if !d.tag(tagUint64) {
		return 0
	}
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a signed integer.
func (d *Decoder) Int64() int64 {
	if !d.tag(tagInt64) {
		return 0
	}
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if !d.tag(tagBool) {
		return false
	}
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("canon: invalid bool byte 0x%02x", b[0]))
		return false
	}
}

// String reads a string.
func (d *Decoder) String() string {
	if !d.tag(tagString) {
		return ""
	}
	n := d.length()
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a byte slice. The result aliases the decoder's input — no
// copy is made — and its capacity is clipped to its length, so appending to
// it reallocates instead of overwriting the bytes that follow. The input
// must therefore stay unchanged while the result is in use; a caller that
// keeps a small field of a large, short-lived buffer clones it.
func (d *Decoder) Bytes() []byte {
	if !d.tag(tagBytes) {
		return nil
	}
	n := d.length()
	if n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	return b[:n:n]
}

// Bytes32 reads a fixed 32-byte value.
func (d *Decoder) Bytes32() [32]byte {
	var out [32]byte
	b := d.Bytes()
	if d.err != nil {
		return out
	}
	if len(b) != 32 {
		d.fail(fmt.Errorf("canon: expected 32-byte value, got %d", len(b)))
		return out
	}
	copy(out[:], b)
	return out
}

// Time reads an instant (UTC, nanosecond precision).
func (d *Decoder) Time() time.Time {
	if !d.tag(tagTime) {
		return time.Time{}
	}
	b := d.take(8)
	if b == nil {
		return time.Time{}
	}
	return time.Unix(0, int64(binary.BigEndian.Uint64(b))).UTC()
}

// Struct reads a struct header and verifies the expected name.
func (d *Decoder) Struct(name string) {
	if !d.tag(tagStruct) {
		return
	}
	n := d.length()
	b := d.take(n)
	if b == nil {
		return
	}
	if string(b) != name {
		d.fail(fmt.Errorf("canon: struct name %q, want %q", b, name))
	}
}

// List reads a list header and returns the element count.
func (d *Decoder) List() int {
	if !d.tag(tagList) {
		return 0
	}
	return d.length()
}

// Strings reads a list of strings.
func (d *Decoder) Strings() []string {
	n := d.List()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > maxLen/4 {
		d.fail(ErrLength)
		return nil
	}
	// Each element costs at least 5 encoded bytes (tag + length prefix), so
	// a count the remaining input cannot possibly hold is corrupt; checking
	// before the preallocation stops a hostile count from driving a
	// multi-gigabyte make (the corrupt multi-frame OOM of the transport
	// layer, reincarnated as a list header).
	if n > d.Remaining()/5 {
		d.fail(ErrLength)
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// Scan walks b as a sequence of canonical tokens without interpreting
// them: every token is a type tag and its payload, whatever value, struct
// or list it belongs to, so any encoding this package produces is such a
// sequence. For each Bytes token whose field holds refMin bytes or more —
// the fields an Encoder references rather than copies — it calls large with
// the token's span b[at:end], tag and length prefix included, and the field
// itself, a sub-slice of b. Scan reports whether b is one or more complete
// tokens; when it is not, large may already have been called.
func Scan(b []byte, large func(at, end int, field []byte)) bool {
	if len(b) == 0 {
		return false
	}
	for off := 0; off < len(b); {
		at := off
		var n int
		switch b[off] {
		case tagUint64, tagInt64, tagTime:
			n = 8
		case tagBool:
			n = 1
		case tagList:
			n = 4
		case tagString, tagBytes, tagStruct:
			if len(b)-off < 5 {
				return false
			}
			off += 4
			n = int(binary.BigEndian.Uint32(b[off-3:]))
		default:
			return false
		}
		off++
		if n > len(b)-off {
			return false
		}
		off += n
		if b[at] == tagBytes && n >= refMin {
			large(at, off, b[off-n:off])
		}
	}
	return true
}

// Uint8 reads an unsigned integer and rejects values outside [0, 255]:
// enums (message kinds, modes) must have exactly one encoding, so the
// wider-integer representations of the same small value are not accepted.
func (d *Decoder) Uint8() uint8 {
	v := d.Uint64()
	if d.err == nil && v > 0xff {
		d.fail(fmt.Errorf("canon: uint8 out of range: %d", v))
	}
	return uint8(v)
}
