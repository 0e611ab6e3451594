package canon

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder()
	e.Struct("demo")
	e.Uint64(42)
	e.Int64(-7)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Bytes([]byte{1, 2, 3})
	stamp := time.Date(2002, 6, 23, 12, 0, 0, 123, time.UTC)
	e.Time(stamp)

	d := NewDecoder(e.Out())
	d.Struct("demo")
	if got := d.Uint64(); got != 42 {
		t.Errorf("Uint64 = %d, want 42", got)
	}
	if got := d.Int64(); got != -7 {
		t.Errorf("Int64 = %d, want -7", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool #1 = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool #2 = true, want false")
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q, want hello", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Time(); !got.Equal(stamp) {
		t.Errorf("Time = %v, want %v", got, stamp)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(u uint64, i int64, b bool, s string, raw []byte, ss []string) bool {
		e := NewEncoder()
		e.Uint64(u)
		e.Int64(i)
		e.Bool(b)
		e.String(s)
		e.Bytes(raw)
		e.Strings(ss)

		d := NewDecoder(e.Out())
		gu := d.Uint64()
		gi := d.Int64()
		gb := d.Bool()
		gs := d.String()
		gr := d.Bytes()
		gss := d.Strings()
		if err := d.Finish(); err != nil {
			return false
		}
		if gu != u || gi != i || gb != b || gs != s {
			return false
		}
		if !bytes.Equal(gr, raw) {
			return false
		}
		if len(gss) != len(ss) {
			return false
		}
		for k := range ss {
			if gss[k] != ss[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder()
		e.Struct("x")
		e.Uint64(9)
		e.String("abc")
		e.Time(time.Unix(100, 5).In(time.FixedZone("weird", 3600)))
		return e.Out()
	}
	a, b := enc(), enc()
	if !bytes.Equal(a, b) {
		t.Fatal("identical inputs produced different encodings")
	}
}

func TestTimeZoneIndependent(t *testing.T) {
	instant := time.Unix(1234567, 890)
	e1 := NewEncoder()
	e1.Time(instant.UTC())
	e2 := NewEncoder()
	e2.Time(instant.In(time.FixedZone("plus5", 5*3600)))
	if !bytes.Equal(e1.Out(), e2.Out()) {
		t.Fatal("same instant in different zones encoded differently")
	}
}

func TestStructNameMismatch(t *testing.T) {
	e := NewEncoder()
	e.Struct("propose")
	d := NewDecoder(e.Out())
	d.Struct("respond")
	if d.Err() == nil {
		t.Fatal("expected struct-name mismatch error")
	}
}

func TestTagMismatch(t *testing.T) {
	e := NewEncoder()
	e.Uint64(1)
	d := NewDecoder(e.Out())
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("expected tag mismatch error")
	}
}

func TestTruncation(t *testing.T) {
	e := NewEncoder()
	e.String("some string payload")
	full := e.Out()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_ = d.String()
		if d.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestTrailingBytes(t *testing.T) {
	e := NewEncoder()
	e.Uint64(1)
	buf := append(append([]byte{}, e.Out()...), 0xff)
	d := NewDecoder(buf)
	d.Uint64()
	if err := d.Finish(); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestBytes32(t *testing.T) {
	var h [32]byte
	for i := range h {
		h[i] = byte(i)
	}
	e := NewEncoder()
	e.Bytes32(h)
	d := NewDecoder(e.Out())
	if got := d.Bytes32(); got != h {
		t.Fatalf("Bytes32 round-trip = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	// A non-32-byte payload must be rejected.
	e2 := NewEncoder()
	e2.Bytes([]byte{1, 2, 3})
	d2 := NewDecoder(e2.Out())
	d2.Bytes32()
	if d2.Err() == nil {
		t.Fatal("expected length error for short Bytes32")
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder(nil)
	_ = d.Uint64()
	first := d.Err()
	if first == nil {
		t.Fatal("expected error on empty input")
	}
	_ = d.String()
	if d.Err() != first {
		t.Fatal("error was overwritten; want sticky first error")
	}
}

func TestBoolInvalidByte(t *testing.T) {
	d := NewDecoder([]byte{tagBool, 7})
	_ = d.Bool()
	if d.Err() == nil {
		t.Fatal("expected invalid bool error")
	}
}

// Prefix-freedom: no encoding of one value sequence may be a strict prefix of
// another distinct sequence's encoding when both start with the same field
// type. Length prefixes guarantee this; the property test approximates it by
// checking that decode consumes exactly what encode produced.
func TestPrefixConsumption(t *testing.T) {
	f := func(a, b []byte) bool {
		e := NewEncoder()
		e.Bytes(a)
		e.Bytes(b)
		d := NewDecoder(e.Out())
		ga := d.Bytes()
		gb := d.Bytes()
		return d.Finish() == nil && bytes.Equal(ga, a) && bytes.Equal(gb, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyVsNilBytesCanonical(t *testing.T) {
	e1 := NewEncoder()
	e1.Bytes(nil)
	e2 := NewEncoder()
	e2.Bytes([]byte{})
	if !bytes.Equal(e1.Out(), e2.Out()) {
		t.Fatal("nil and empty byte slices must share one canonical form")
	}
}

func TestListHeader(t *testing.T) {
	e := NewEncoder()
	e.Strings([]string{"a", "bb", ""})
	d := NewDecoder(e.Out())
	got := d.Strings()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "bb", ""}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Strings[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestUint8StrictRange(t *testing.T) {
	e := NewEncoder()
	e.Uint64(200)
	d := NewDecoder(e.Out())
	if got := d.Uint8(); got != 200 || d.Err() != nil {
		t.Fatalf("Uint8 = %d err=%v", got, d.Err())
	}

	// The 9-bit encoding of the same low byte must be rejected: enums have
	// exactly one canonical representation.
	e2 := NewEncoder()
	e2.Uint64(0x101)
	d2 := NewDecoder(e2.Out())
	_ = d2.Uint8()
	if d2.Err() == nil {
		t.Fatal("out-of-range uint8 accepted")
	}
}

// TestPooledMarshal: pooled encoding must equal fresh encoding, outputs must
// not alias the recycled buffer, and concurrent use must be safe.
func TestPooledMarshal(t *testing.T) {
	enc := func(e *Encoder) {
		e.Struct("pooled")
		e.Uint64(7)
		e.String("hello")
		e.Bytes([]byte{1, 2, 3})
	}
	ref := NewEncoder()
	enc(ref)
	a := Marshal(enc)
	b := Marshal(func(e *Encoder) { e.Struct("other"); e.Uint64(9) })
	if !bytes.Equal(a, ref.Out()) {
		t.Fatal("pooled encoding differs from fresh encoding")
	}
	if bytes.Equal(a, b) {
		t.Fatal("distinct marshals alias one buffer")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if got := Marshal(enc); !bytes.Equal(got, ref.Out()) {
					t.Error("concurrent pooled marshal corrupted")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLargeFieldsWrittenOnce: a Bytes field of refMin bytes or more is
// referenced, not appended, yet every way of taking the encoding out —
// Marshal, MarshalSegments, Out — yields the bytes an appending encoder
// would, and a field given in parts encodes as their concatenation.
// MarshalSegments hands the large field back uncopied.
func TestLargeFieldsWrittenOnce(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, 3*refMin)
	enc := func(e *Encoder) {
		e.Struct("large")
		e.Bytes(big)
		e.String("between")
		e.Bytes(big[:refMin], big[refMin:2*refMin], []byte("tail"))
		e.Bytes([]byte("small"))
	}
	field := func(dst []byte, tag byte, b []byte) []byte {
		dst = append(dst, tag)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		return append(dst, b...)
	}
	want := field(nil, tagStruct, []byte("large"))
	want = field(want, tagBytes, big)
	want = field(want, tagString, []byte("between"))
	want = field(want, tagBytes, append(bytes.Clone(big[:2*refMin]), "tail"...))
	want = field(want, tagBytes, []byte("small"))

	if got := Marshal(enc); !bytes.Equal(got, want) {
		t.Fatal("Marshal differs from the appended encoding")
	}
	segs := MarshalSegments(enc)
	if got := bytes.Join(segs, nil); !bytes.Equal(got, want) {
		t.Fatal("MarshalSegments does not concatenate to the encoding")
	}
	referenced := false
	for _, s := range segs {
		if cap(s) != len(s) {
			t.Fatalf("segment of %d bytes has spare capacity %d", len(s), cap(s))
		}
		if len(s) == len(big) && &s[0] == &big[0] {
			referenced = true
		}
	}
	if !referenced {
		t.Fatal("MarshalSegments copied the large field")
	}
	e := NewEncoder()
	enc(e)
	if e.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", e.Len(), len(want))
	}
	if got := e.Out(); !bytes.Equal(got, want) {
		t.Fatal("Out differs from the appended encoding")
	}
	d := NewDecoder(want)
	d.Struct("large")
	if got := d.Bytes(); !bytes.Equal(got, big) || !within(got, want) {
		t.Fatal("decoded large field differs, was copied, or has spare capacity")
	}
}

// TestScan: every encoding is one or more complete tokens; Scan reports
// each Bytes field of refMin bytes or more with its token's span, in order,
// and refuses empty, truncated or foreign input.
func TestScan(t *testing.T) {
	big1, big2 := bytes.Repeat([]byte{1}, refMin), bytes.Repeat([]byte{2}, 3*refMin)
	enc := Marshal(func(e *Encoder) {
		e.Struct("scan")
		e.Uint64(1)
		e.Int64(-1)
		e.Bool(true)
		e.Time(time.Unix(5, 0))
		e.String("s")
		e.Bytes(big1)
		e.List(2)
		e.Bytes(bytes.Repeat([]byte{3}, refMin-1))
		e.Bytes(big2[:refMin], big2[refMin:])
		e.Strings([]string{"a", "b"})
	})
	var got [][]byte
	ok := Scan(enc, func(at, end int, field []byte) {
		if enc[at] != tagBytes || end-at != 5+len(field) || &enc[end-len(field)] != &field[0] {
			t.Fatalf("span [%d,%d) does not frame its %d-byte field", at, end, len(field))
		}
		got = append(got, field)
	})
	if !ok || len(got) != 2 || !bytes.Equal(got[0], big1) || !bytes.Equal(got[1], big2) {
		t.Fatalf("Scan = %v with %d large fields, want the two fields of refMin bytes or more", ok, len(got))
	}
	none := func(int, int, []byte) {}
	for name, in := range map[string][]byte{
		"empty":     nil,
		"truncated": enc[:len(enc)-1],
		"cut field": enc[:100],
		"text":      []byte("valid=true"),
	} {
		if Scan(in, none) {
			t.Errorf("%s input scanned as complete tokens", name)
		}
	}
}
