package crypto

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"testing/quick"
	"time"

	"b2b/internal/canon"
	"b2b/internal/clock"
)

func testInfra(t *testing.T) (*CA, *TSA, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim(time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC))
	ca, err := NewCA("root-ca", clk, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	return ca, tsa, clk
}

func TestSignVerifyRoundTrip(t *testing.T) {
	ca, tsa, clk := testInfra(t)
	alice, err := NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	ca.Issue(alice)

	v := NewVerifier(ca, tsa)
	if err := v.AddCertificate(alice.Certificate()); err != nil {
		t.Fatalf("AddCertificate: %v", err)
	}

	msg := []byte("state transition proposal")
	sig := alice.Sign(msg)
	if err := v.VerifySignature(msg, sig, clk.Now()); err != nil {
		t.Fatalf("VerifySignature: %v", err)
	}
}

func TestTamperedMessageRejected(t *testing.T) {
	ca, tsa, clk := testInfra(t)
	alice, _ := NewIdentity("alice")
	ca.Issue(alice)
	v := NewVerifier(ca, tsa)
	if err := v.AddCertificate(alice.Certificate()); err != nil {
		t.Fatal(err)
	}

	msg := []byte("original")
	sig := alice.Sign(msg)
	if err := v.VerifySignature([]byte("tampered"), sig, clk.Now()); err == nil {
		t.Fatal("tampered message verified")
	}
}

func TestForgedSignerRejected(t *testing.T) {
	ca, tsa, clk := testInfra(t)
	alice, _ := NewIdentity("alice")
	mallory, _ := NewIdentity("mallory")
	ca.Issue(alice)
	ca.Issue(mallory)
	v := NewVerifier(ca, tsa)
	_ = v.AddCertificate(alice.Certificate())
	_ = v.AddCertificate(mallory.Certificate())

	msg := []byte("payment order")
	sig := mallory.Sign(msg)
	sig.Signer = "alice" // mallory claims alice signed it
	if err := v.VerifySignature(msg, sig, clk.Now()); err == nil {
		t.Fatal("forged signer attribution verified")
	}
}

func TestUnknownSignerRejected(t *testing.T) {
	ca, tsa, clk := testInfra(t)
	alice, _ := NewIdentity("alice")
	ca.Issue(alice)
	v := NewVerifier(ca, tsa)
	// Certificate deliberately not registered.
	if err := v.VerifySignature([]byte("x"), alice.Sign([]byte("x")), clk.Now()); err == nil {
		t.Fatal("unknown signer verified")
	}
}

func TestCertificateFromWrongCARejected(t *testing.T) {
	ca, tsa, _ := testInfra(t)
	clk2 := clock.NewSim(time.Unix(0, 0))
	rogueCA, err := NewCA("root-ca", clk2, time.Hour) // same name, different key
	if err != nil {
		t.Fatal(err)
	}
	eve, _ := NewIdentity("eve")
	rogueCA.Issue(eve)

	v := NewVerifier(ca, tsa)
	if err := v.AddCertificate(eve.Certificate()); err == nil {
		t.Fatal("certificate signed by rogue CA accepted")
	}
}

func TestExpiredCertificate(t *testing.T) {
	clk := clock.NewSim(time.Date(2002, 1, 1, 0, 0, 0, 0, time.UTC))
	ca, err := NewCA("ca", clk, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := NewIdentity("alice")
	ca.Issue(alice)
	v := NewVerifier(ca, tsa)
	if err := v.AddCertificate(alice.Certificate()); err != nil {
		t.Fatal(err)
	}

	msg := []byte("m")
	sig := alice.Sign(msg)
	if err := v.VerifySignature(msg, sig, clk.Now()); err != nil {
		t.Fatalf("in-validity signature rejected: %v", err)
	}
	// Two hours later the certificate has expired: signatures asserted at
	// that time must be rejected (signing key may have been compromised).
	late := clk.Advance(2 * time.Hour)
	if err := v.VerifySignature(msg, sig, late); err == nil {
		t.Fatal("signature accepted after certificate expiry")
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	ca, tsa, _ := testInfra(t)
	v := NewVerifier(ca, tsa)
	h := Hash([]byte("evidence"))
	ts := tsa.Stamp(h)
	if err := v.VerifyTimestamp(ts, h); err != nil {
		t.Fatalf("VerifyTimestamp: %v", err)
	}
	if err := v.VerifyTimestamp(ts, Hash([]byte("other"))); err == nil {
		t.Fatal("timestamp verified against wrong hash")
	}
}

func TestTimestampForgeryRejected(t *testing.T) {
	ca, tsa, _ := testInfra(t)
	v := NewVerifier(ca, tsa)
	h := Hash([]byte("evidence"))
	ts := tsa.Stamp(h)
	ts.Time = ts.Time.Add(time.Hour) // backdate/postdate attempt
	if err := v.VerifyTimestamp(ts, h); err == nil {
		t.Fatal("altered timestamp verified")
	}
}

func TestHashProperties(t *testing.T) {
	if Hash([]byte("a")) == Hash([]byte("b")) {
		t.Fatal("distinct inputs hash equal")
	}
	// Concatenation order matters.
	if Hash([]byte("ab")) != Hash([]byte("a"), []byte("b")) {
		t.Fatal("hash of parts differs from hash of concatenation")
	}
}

func TestNonceUnpredictable(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		n, err := Nonce()
		if err != nil {
			t.Fatal(err)
		}
		if len(n) != 32 {
			t.Fatalf("nonce length %d", len(n))
		}
		if seen[string(n)] {
			t.Fatal("duplicate nonce")
		}
		seen[string(n)] = true
	}
}

func TestCertificateEncodeDecode(t *testing.T) {
	ca, _, _ := testInfra(t)
	alice, _ := NewIdentity("alice")
	cert := ca.Issue(alice)

	e := canon.NewEncoder()
	cert.Encode(e)
	d := canon.NewDecoder(e.Out())
	got := DecodeCertificate(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.Subject != cert.Subject || got.Issuer != cert.Issuer ||
		!got.NotBefore.Equal(cert.NotBefore) || !got.NotAfter.Equal(cert.NotAfter) ||
		!bytes.Equal(got.PublicKey, cert.PublicKey) || !bytes.Equal(got.Sig, cert.Sig) {
		t.Fatalf("certificate round-trip mismatch: %+v vs %+v", got, cert)
	}
}

func TestSignatureEncodeDecode(t *testing.T) {
	alice, _ := NewIdentity("alice")
	sig := alice.Sign([]byte("payload"))
	e := canon.NewEncoder()
	sig.Encode(e)
	d := canon.NewDecoder(e.Out())
	got := DecodeSignature(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.Signer != sig.Signer || !bytes.Equal(got.Sig, sig.Sig) {
		t.Fatal("signature round-trip mismatch")
	}
}

func TestTimestampEncodeDecode(t *testing.T) {
	_, tsa, _ := testInfra(t)
	ts := tsa.Stamp(Hash([]byte("x")))
	e := canon.NewEncoder()
	ts.Encode(e)
	d := canon.NewDecoder(e.Out())
	got := DecodeTimestamp(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.Hash != ts.Hash || !got.Time.Equal(ts.Time) || got.Authority != ts.Authority || !bytes.Equal(got.Sig, ts.Sig) {
		t.Fatal("timestamp round-trip mismatch")
	}
}

// Property: any signed payload verifies, and any single-byte mutation fails.
func TestSignaturePropertyQuick(t *testing.T) {
	ca, tsa, clk := testInfra(t)
	alice, _ := NewIdentity("alice")
	ca.Issue(alice)
	v := NewVerifier(ca, tsa)
	if err := v.AddCertificate(alice.Certificate()); err != nil {
		t.Fatal(err)
	}

	f := func(payload []byte, flip uint) bool {
		sig := alice.Sign(payload)
		if v.VerifySignature(payload, sig, clk.Now()) != nil {
			return false
		}
		if len(payload) == 0 {
			return true
		}
		mutated := append([]byte{}, payload...)
		mutated[flip%uint(len(mutated))] ^= 0x01
		if bytes.Equal(mutated, payload) {
			return true
		}
		return v.VerifySignature(mutated, sig, clk.Now()) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHashEquivalence pins the optimised Hash (sha256.Sum256 single-slice
// fast path, allocation-free variadic sum) to the reference definition: one
// SHA-256 over the concatenation of the parts, for every arity including
// empty and nil slices.
func TestHashEquivalence(t *testing.T) {
	ref := func(parts ...[]byte) [32]byte {
		var cat []byte
		for _, p := range parts {
			cat = append(cat, p...)
		}
		return sha256.Sum256(cat)
	}
	cases := [][][]byte{
		{},
		{nil},
		{{}},
		{[]byte("a")},
		{[]byte("a"), []byte("b")},
		{nil, []byte("xyz"), {}},
		{make([]byte, 10000), []byte("tail")},
		{[]byte("x"), nil, nil, []byte("y"), []byte("z")},
	}
	for i, parts := range cases {
		if got, want := Hash(parts...), ref(parts...); got != want {
			t.Fatalf("case %d: Hash diverged from reference", i)
		}
	}
	f := func(a, b, c []byte) bool {
		return Hash(a, b, c) == ref(a, b, c) && Hash(a) == ref(a) && Hash(a, b) == ref(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHashCountsInput: Stats counts every byte Hash digests, one- and
// many-part calls alike, from the last ResetStats.
func TestHashCountsInput(t *testing.T) {
	ResetStats()
	Hash(make([]byte, 100))
	Hash([]byte("ab"), nil, make([]byte, 30))
	if got := Stats(); got != 132 {
		t.Fatalf("Stats = %d, want 132", got)
	}
	ResetStats()
	if got := Stats(); got != 0 {
		t.Fatalf("Stats after ResetStats = %d", got)
	}
}
