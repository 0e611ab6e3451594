package wire

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSignedTamperMatrix: the signature and stamp bind the body only through
// its digest, so every change to the body — at either end, in the middle,
// or in its length — and every change to the wrapper's other fields must
// still fail verification, at every body size from empty to 1 MiB.
func TestSignedTamperMatrix(t *testing.T) {
	fx := newFixture(t)
	for _, size := range []int{0, 1, 4 << 10, 1 << 20} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i*7 + 3)
		}
		orig := Sign(KindPropose, body, fx.alice, fx.tsa)
		if err := orig.Verify(fx.v); err != nil {
			t.Fatalf("size %d: genuine message failed: %v", size, err)
		}
		withBody := func(f func([]byte) []byte) func(*Signed) {
			return func(s *Signed) { s.Body = f(append([]byte(nil), s.Body...)) }
		}
		flip := func(i int) func(*Signed) {
			return withBody(func(b []byte) []byte { b[i] ^= 0x01; return b })
		}
		cases := map[string]func(*Signed){
			"extend": withBody(func(b []byte) []byte { return append(b, 0) }),
			"kind":   func(s *Signed) { s.Kind = KindRespond },
			"signer": func(s *Signed) { s.Sig.Signer = "bob" },
			"sig": func(s *Signed) {
				s.Sig.Sig = append([]byte(nil), s.Sig.Sig...)
				s.Sig.Sig[0] ^= 0x01
			},
			"ts-hash": func(s *Signed) { s.TS.Hash[0] ^= 0x01 },
			"ts-time": func(s *Signed) { s.TS.Time = s.TS.Time.Add(time.Second) },
		}
		if size > 0 {
			cases["flip-first"] = flip(0)
			cases["flip-middle"] = flip(size / 2)
			cases["flip-last"] = flip(size - 1)
			cases["truncate"] = withBody(func(b []byte) []byte { return b[:len(b)-1] })
		}
		for name, mutate := range cases {
			s := orig
			mutate(&s)
			if err := s.Verify(fx.v); err == nil {
				t.Errorf("size %d: %s tamper verified", size, name)
			}
		}
		if err := orig.Verify(fx.v); err != nil {
			t.Fatalf("size %d: a tamper case altered the original: %v", size, err)
		}
	}
}

// TestSignInputIndependentOfBodySize: the Ed25519 input is the fixed-size
// (kind, len, digest) record, so signing a 1 MiB body feeds the signature
// scheme as many bytes as signing an empty one.
func TestSignInputIndependentOfBodySize(t *testing.T) {
	small := Signed{Kind: KindPropose}
	big := Signed{Kind: KindPropose, Body: make([]byte, 1<<20)}
	a := signInput(small.Kind, len(small.Body), small.BodyDigest())
	b := signInput(big.Kind, len(big.Body), big.BodyDigest())
	if len(a) != len(b) {
		t.Fatalf("signature input is %d B for an empty body and %d B for 1 MiB", len(a), len(b))
	}
	if len(a) > 128 {
		t.Fatalf("signature input is %d B, want a small fixed record", len(a))
	}
	if bytes.Equal(a, b) {
		t.Fatal("different bodies produced the same signature input")
	}
}

// FuzzSignedVerify: a signed message whose body or kind was replaced never
// verifies; the unmodified message always does.
func FuzzSignedVerify(f *testing.F) {
	fx := newFixture(f)
	f.Add([]byte(""), uint8(KindPropose), []byte("x"), uint8(KindPropose))
	f.Add([]byte("body"), uint8(KindPropose), []byte("body"), uint8(KindRespond))
	f.Add([]byte("body"), uint8(KindCommit), []byte("bodx"), uint8(KindCommit))
	f.Add([]byte("body"), uint8(KindCommit), []byte("body"), uint8(KindCommit))
	f.Add(bytes.Repeat([]byte{0xaa}, 4096), uint8(KindRespond), bytes.Repeat([]byte{0xaa}, 4095), uint8(KindRespond))
	f.Fuzz(func(t *testing.T, body []byte, kind uint8, body2 []byte, kind2 uint8) {
		s := Sign(Kind(kind), body, fx.alice, fx.tsa)
		if err := s.Verify(fx.v); err != nil {
			t.Fatalf("genuine message failed: %v", err)
		}
		s.Body, s.Kind = body2, Kind(kind2)
		same := bytes.Equal(body, body2) && kind == kind2
		if err := s.Verify(fx.v); same != (err == nil) {
			t.Fatalf("body changed=%v kind changed=%v: Verify err = %v",
				!bytes.Equal(body, body2), kind != kind2, err)
		}
	})
}

// TestVerifyDigestCallers: VerifyDigest trusts the digest it is handed, so
// only the two functions that compute it from Body in the same call may use
// it — Signed.Verify and the coordinator's memoised verifySigned. Every Go
// file in the module (tests included) is scanned.
func TestVerifyDigestCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"internal/wire/wire.go:Verify":           true,
		"internal/coord/sigmemo.go:verifySigned": true,
	}
	fset := token.NewFileSet()
	found := map[string]bool{}
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
		if !strings.HasSuffix(path, ".go") {
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
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "VerifyDigest" {
					site := filepath.ToSlash(rel) + ":" + fd.Name.Name
					if !allowed[site] {
						t.Errorf("%s calls VerifyDigest; only %v may", fset.Position(call.Pos()), allowed)
					}
					found[site] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site := range allowed {
		if !found[site] {
			t.Errorf("expected VerifyDigest call in %s not found (scan broken?)", site)
		}
	}
}
