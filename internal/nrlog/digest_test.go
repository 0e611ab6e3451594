package nrlog

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"b2b/internal/canon"
	"b2b/internal/crypto"
	"b2b/internal/store"
)

// signedLike encodes a payload shaped like a signed message: a small
// header, one body field, and a small trailer.
func signedLike(body []byte) []byte {
	return canon.Marshal(func(e *canon.Encoder) {
		e.Struct("signed")
		e.Uint64(1)
		e.Bytes(body)
		e.String("alice")
		e.Bytes(bytes.Repeat([]byte{0x5a}, 64))
	})
}

// largeField returns the payload's one field of 4 KiB or more.
func largeField(t testing.TB, payload []byte) []byte {
	t.Helper()
	var field []byte
	if !canon.Scan(payload, func(_, _ int, f []byte) { field = f }) || field == nil {
		t.Fatal("payload has no large field")
	}
	return field
}

func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// TestHintedAppendVerifies: an entry appended with the true digest of its
// large field stores the hash an unhinted append stores, verifies with no
// hint, and costs no hash over the field.
func TestHintedAppendVerifies(t *testing.T) {
	payload := signedLike(body(1 << 20))
	field := largeField(t, payload)
	hinted, plain := NewMemory(simClock()), NewMemory(simClock())
	crypto.ResetStats()
	e, err := hinted.AppendSeq("r", 1, "o", "propose", "p", DirSent, payload, Hint{Field: field, Sum: sha256.Sum256(field)})
	if err != nil {
		t.Fatal(err)
	}
	if n := crypto.Stats(); n >= uint64(len(field)) {
		t.Fatalf("a hinted append hashed %d bytes, want less than its %d-byte field", n, len(field))
	}
	p, _ := plain.AppendSeq("r", 1, "o", "propose", "p", DirSent, payload)
	if e.Hash != p.Hash {
		t.Fatal("a hinted and an unhinted append of one payload stored different hashes")
	}
	if err := hinted.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestWrongHintFailsVerify: a hint is trusted at append, so a wrong one
// stores a hash that verification — which takes no hints — rejects.
func TestWrongHintFailsVerify(t *testing.T) {
	payload := signedLike(body(8 << 10))
	field := largeField(t, payload)
	l := NewMemory(simClock())
	_, _ = l.Append("r", "o", "k", "p", DirSent, []byte("before"))
	if _, err := l.AppendSeq("r", 1, "o", "propose", "p", DirSent, payload, Hint{Field: field, Sum: sha256.Sum256([]byte("other"))}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("Verify after a wrong hint = %v, want ErrBadEntry", err)
	}
}

// TestLargeFieldAlteredAfterAppend: binding a large field by its digest
// keeps tamper-evidence — a byte of the field changed after a hinted append
// fails verification.
func TestLargeFieldAlteredAfterAppend(t *testing.T) {
	payload := signedLike(body(8 << 10))
	field := largeField(t, payload)
	l := NewMemory(simClock())
	if _, err := l.AppendSeq("r", 1, "o", "propose", "p", DirSent, payload, Hint{Field: field, Sum: sha256.Sum256(field)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify before tampering: %v", err)
	}
	field[len(field)/2] ^= 0x01 // the log keeps the payload it was handed
	if err := l.Verify(); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("Verify after altering the large field = %v, want ErrBadEntry", err)
	}
}

// TestHintForOtherMemoryIgnored: a hint is honoured only for the memory it
// names. Equal bytes elsewhere — here a copy, hinted with a wrong sum — do
// not take it, so the entry is hashed from its own bytes and verifies.
func TestHintForOtherMemoryIgnored(t *testing.T) {
	payload := signedLike(body(8 << 10))
	other := bytes.Clone(largeField(t, payload))
	l := NewMemory(simClock())
	if _, err := l.AppendSeq("r", 1, "o", "propose", "p", DirSent, payload, Hint{Field: other, Sum: [32]byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestNonCanonicalPayloadsVerify: payloads that are not canonical token
// streams — text, nil, a truncated or over-long encoding, a large blob —
// are hashed whole and verify, in memory and across a segmented reopen.
func TestNonCanonicalPayloadsVerify(t *testing.T) {
	full := signedLike(body(8 << 10))
	payloads := [][]byte{
		nil,
		[]byte("valid=true "),
		full[:len(full)-1],
		append(bytes.Clone(full), 0x00),
		bytes.Repeat([]byte{0xff}, 64<<10),
		full,
	}
	l := NewMemory(simClock())
	for _, p := range payloads {
		if _, err := l.Append("r", "o", "k", "p", DirLocal, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if payloadDigest(nil, nil) != sha256.Sum256([]byte{wholeTag}) {
		t.Fatal("nil is not hashed whole under its domain tag")
	}
	small := signedLike([]byte("a small body"))
	if payloadDigest(small, nil) != sha256.Sum256(small) {
		t.Fatal("a canonical payload with no large field is not hashed as itself")
	}

	dir := t.TempDir()
	pl, seg := openSegLog(t, dir, store.Policy{}, nil)
	for _, p := range payloads {
		var hints []Hint
		if canon.Scan(p, func(int, int, []byte) {}) && len(p) > 4<<10 {
			f := largeField(t, p)
			hints = []Hint{{Field: f, Sum: sha256.Sum256(f)}}
		}
		if _, err := seg.AppendSeq("r", 1, "o", "k", "p", DirLocal, p, hints...); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	pl, seg = openSegLog(t, dir, store.Policy{}, nil)
	defer pl.Close()
	if seg.Len() != len(payloads) {
		t.Fatalf("reopened log holds %d entries, want %d", seg.Len(), len(payloads))
	}
	if err := seg.Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
}

// TestPayloadDigestSmallIsOneHash: on a payload with no large field D is
// one SHA-256 of the payload and allocates nothing.
func TestPayloadDigestSmallIsOneHash(t *testing.T) {
	respond := signedLike(body(600))
	crypto.ResetStats()
	_ = payloadDigest(respond, nil)
	if n := crypto.Stats(); n != uint64(len(respond)) {
		t.Fatalf("D hashed %d bytes of a %d-byte payload", n, len(respond))
	}
	if a := testing.AllocsPerRun(100, func() { _ = payloadDigest(respond, nil) }); a != 0 {
		t.Fatalf("D allocated %.0f times on a small payload", a)
	}
}

// FuzzEvidenceDigest: on arbitrary input D never panics and is
// deterministic, equals itself computed with hints built from the input's
// own large fields, and changes when a byte of a large field flips (the
// fuzzer picks which, by at).
func FuzzEvidenceDigest(f *testing.F) {
	two := canon.Marshal(func(e *canon.Encoder) {
		e.Struct("commit")
		e.Bytes(body(4 << 10))
		e.List(1)
		e.Bytes(body(6 << 10))
	})
	for i, in := range [][]byte{nil, []byte("valid=true "), signedLike([]byte("small")),
		signedLike(body(5 << 10)), two, two[:len(two)-3]} {
		f.Add(in, uint32(i*4099))
	}
	f.Fuzz(func(t *testing.T, in []byte, at uint32) {
		d := payloadDigest(in, nil)
		if payloadDigest(in, nil) != d {
			t.Fatal("D is not deterministic")
		}
		var hints []Hint
		var fields [][]byte
		complete := canon.Scan(in, func(_, _ int, field []byte) {
			fields = append(fields, field)
			hints = append(hints, Hint{Field: field, Sum: sha256.Sum256(field)})
		})
		if got := payloadDigest(in, hints); got != d {
			t.Fatal("D with the input's own field hints differs from D without hints")
		}
		if !complete {
			return
		}
		for _, field := range fields {
			i := int(at % uint32(len(field)))
			field[i] ^= 0x01
			flipped := payloadDigest(in, nil)
			field[i] ^= 0x01
			if flipped == d {
				t.Fatalf("flipping byte %d of a %d-byte field left D unchanged", i, len(field))
			}
		}
	})
}

// TestHintedAppendCallers: a hint is trusted, so only code that computed it
// from the bytes it names may pass one. Production code constructs hints
// only in the coordinator's propose and commit paths, hands them to a log
// only through coord's evidence helpers, and the log hashes with them only
// in its append paths: Verify, segmented replay and ReadArchive call
// entryHash with no hint. Every non-test Go file in the module is scanned.
func TestHintedAppendCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// Where a Hint literal may be built, where AppendSeq/AppendDeferred may
	// be called with hints, and where entryHash may be given them.
	allowed := map[string]map[string]bool{
		"Hint": {
			"internal/coord/protocol.go:proposeAsync":  true,
			"internal/coord/protocol.go:handlePropose": true,
			"internal/coord/protocol.go:proposeHint":   true,
		},
		"append": {
			"internal/coord/coord.go:logEvidenceStaged": true,
			"internal/nrlog/nrlog.go:AppendDeferred":    true,
			"internal/nrlog/segmented.go:AppendSeq":     true,
		},
		"entryHash": {
			"internal/nrlog/nrlog.go:AppendSeq": true,
			"internal/nrlog/segmented.go:stage": true,
		},
	}
	found := map[string]map[string]bool{"Hint": {}, "append": {}, "entryHash": {}}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			site := filepath.ToSlash(rel) + ":" + fd.Name.Name
			note := func(what string, pos token.Pos) {
				if !allowed[what][site] {
					t.Errorf("%s: %s passes evidence hints (%s); only %v may", fset.Position(pos), fd.Name.Name, what, allowed[what])
				}
				found[what][site] = true
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if exprName(n.Type) == "Hint" {
						note("Hint", n.Pos())
					}
				case *ast.CallExpr:
					switch name := exprName(n.Fun); {
					case (name == "AppendSeq" || name == "AppendDeferred") && (len(n.Args) > 7 || n.Ellipsis.IsValid()):
						note("append", n.Pos())
					case name == "entryHash" && len(n.Args) > 1:
						note("entryHash", n.Pos())
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for what, sites := range allowed {
		for site := range sites {
			if !found[what][site] {
				t.Errorf("expected a hinted %s in %s, found none (scan broken?)", what, site)
			}
		}
	}
}

// exprName is the identifier an expression names — x, pkg.X, []pkg.X —
// or "".
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ArrayType:
		return exprName(e.Elt)
	}
	return ""
}
