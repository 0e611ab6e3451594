package canon

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"
	"time"
)

// FuzzDecode drives the typed decoder over arbitrary bytes: the first input
// byte of each step selects the read operation, so the fuzzer explores every
// tag path, length prefix and bounds check. The decoder must never panic and
// never allocate unboundedly, whatever the input — a corrupt length prefix
// is exactly what a hostile peer would send. Decoding copies nothing, so it
// must also never write its input, and every Bytes result must lie inside
// the input with no spare capacity: appending to a decoded field can then
// never overwrite the frame it came from.
func FuzzDecode(f *testing.F) {
	golden := NewEncoder()
	golden.Struct("fuzz")
	golden.Uint64(42)
	golden.Int64(-7)
	golden.Bool(true)
	golden.String("hello")
	golden.Bytes([]byte{1, 2, 3})
	golden.Bytes32([32]byte{9})
	golden.Time(time.Unix(0, 1).UTC())
	golden.List(2)
	golden.Strings([]string{"a", "b"})
	f.Add(golden.Out())
	f.Add([]byte{})
	f.Add([]byte{tagList, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{tagString, 0x7f, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		sum := sha256.Sum256(data)
		defer func() {
			if sha256.Sum256(data) != sum {
				t.Fatal("decoding wrote its input")
			}
		}()
		d := NewDecoder(data)
		for i := 0; i < 64 && d.Err() == nil; i++ {
			op := byte(i)
			if i < len(data) {
				op = data[i]
			}
			switch op % 11 {
			case 0:
				d.Uint64()
			case 1:
				d.Int64()
			case 2:
				d.Bool()
			case 3:
				if s := d.String(); len(s) > len(data) {
					t.Fatalf("string longer than input: %d", len(s))
				}
			case 4:
				if b := d.Bytes(); len(b) > 0 && !within(b, data) {
					t.Fatalf("decoded %d bytes outside the input or with spare capacity %d", len(b), cap(b))
				}
			case 5:
				d.Bytes32()
			case 6:
				d.Time()
			case 7:
				d.Struct("fuzz")
			case 8:
				d.List()
			case 9:
				if ss := d.Strings(); len(ss) > len(data) {
					t.Fatalf("%d strings out of %d input bytes", len(ss), len(data))
				}
			case 10:
				d.Uint8()
			}
		}
		_ = d.Finish()
	})
}

// within reports whether b lies inside in and has no spare capacity.
func within(b, in []byte) bool {
	if cap(b) != len(b) || len(in) == 0 {
		return false
	}
	lo := reflect.ValueOf(in).Pointer()
	p := reflect.ValueOf(b).Pointer()
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(in))
}

// FuzzReadFrame feeds arbitrary bytes to the WAL frame reader: torn and
// corrupt frames must surface as ErrFrameTorn, never as a panic or an
// oversized slice, and intact prefixes must round-trip.
func FuzzReadFrame(f *testing.F) {
	var buf []byte
	buf = AppendFrame(buf, []byte("record-1"))
	buf = AppendFrame(buf, []byte("record-2"))
	f.Add(buf)
	f.Add(buf[:len(buf)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			payload, r, err := ReadFrame(rest)
			if err != nil {
				break
			}
			if len(payload) > len(rest) {
				t.Fatalf("payload longer than frame buffer")
			}
			// Round-trip: re-framing the payload reproduces the bytes read.
			reframed := AppendFrame(nil, payload)
			if !bytes.Equal(reframed, rest[:len(rest)-len(r)]) {
				t.Fatalf("frame round-trip mismatch")
			}
			rest = r
		}
	})
}
