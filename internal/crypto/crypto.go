// Package crypto provides the cryptographic substrate assumed by the paper
// (§4.2): a verifiable, unforgeable signature scheme; a one-way,
// collision-resistant hash; unpredictable random values; identity
// certificates issued by a certification authority; and a trusted
// time-stamping service that binds signed evidence to the time of its
// generation (Zhou & Gollmann style time-stamps).
//
// Ed25519 and SHA-256 from the standard library realise the scheme. The CA
// and TSA are in-process services here; in a deployment they would be
// operated by parties all organisations trust, which is a configuration
// property, not a protocol one.
package crypto

import (
	"crypto/ed25519"
	crand "crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"b2b/internal/canon"
	"b2b/internal/clock"
)

// Errors reported by verification.
var (
	ErrBadSignature   = errors.New("crypto: signature verification failed")
	ErrUnknownSigner  = errors.New("crypto: unknown signer")
	ErrCertificate    = errors.New("crypto: certificate verification failed")
	ErrTimestamp      = errors.New("crypto: timestamp verification failed")
	ErrExpired        = errors.New("crypto: certificate expired at time of use")
	ErrWrongSubject   = errors.New("crypto: certificate subject mismatch")
	ErrShortKey       = errors.New("crypto: malformed public key")
	ErrShortSignature = errors.New("crypto: malformed signature")
)

// Hash is the protocol's secure hash (SHA-256) over the concatenation of the
// given byte slices. The single-slice form — the overwhelmingly common call —
// takes the stdlib's allocation-free fast path; the variadic form sums into a
// stack buffer instead of allocating through h.Sum(nil). Every call adds its
// input length to the process-wide counter Stats reports.
func Hash(parts ...[]byte) [32]byte {
	if len(parts) == 1 {
		statHashed.Add(uint64(len(parts[0])))
		return sha256.Sum256(parts[0])
	}
	h := sha256.New()
	n := 0
	for _, p := range parts {
		n += len(p)
		h.Write(p)
	}
	statHashed.Add(uint64(n))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// statHashed counts the bytes Hash has digested, process-wide.
var statHashed atomic.Uint64

// Stats returns the number of input bytes Hash has digested since the last
// ResetStats: the protocol's SHA-256 cost, independent of the host.
func Stats() (hashed uint64) { return statHashed.Load() }

// ResetStats zeroes the hashed-bytes counter (test and benchmark setup).
func ResetStats() { statHashed.Store(0) }

// Nonce returns 32 statistically random, unpredictable bytes (the paper's
// secure pseudo-random sequence generator).
func Nonce() ([]byte, error) {
	b := make([]byte, 32)
	if _, err := crand.Read(b); err != nil {
		return nil, fmt.Errorf("crypto: reading randomness: %w", err)
	}
	return b, nil
}

// MustNonce is Nonce for contexts where randomness failure is unrecoverable
// (test setup, example programs). It panics on failure.
func MustNonce() []byte {
	b, err := Nonce()
	if err != nil {
		panic(err)
	}
	return b
}

// Signature is a detached signature attributable to a named key holder.
type Signature struct {
	Signer string
	Sig    []byte
}

// Encode appends the signature to e.
func (s Signature) Encode(e *canon.Encoder) {
	e.Struct("sig")
	e.String(s.Signer)
	e.Bytes(s.Sig)
}

// DecodeSignature reads a Signature from d.
func DecodeSignature(d *canon.Decoder) Signature {
	d.Struct("sig")
	return Signature{Signer: d.String(), Sig: d.Bytes()}
}

// Certificate binds a subject identity to a public key, signed by the CA.
type Certificate struct {
	Subject   string
	PublicKey ed25519.PublicKey
	Issuer    string
	NotBefore time.Time
	NotAfter  time.Time
	Sig       []byte
}

func (c Certificate) signedBytes() []byte {
	e := canon.NewEncoder()
	e.Struct("cert")
	e.String(c.Subject)
	e.Bytes(c.PublicKey)
	e.String(c.Issuer)
	e.Time(c.NotBefore)
	e.Time(c.NotAfter)
	return e.Out()
}

// Encode appends the full certificate (including the CA signature) to e.
func (c Certificate) Encode(e *canon.Encoder) {
	e.Struct("certfull")
	e.String(c.Subject)
	e.Bytes(c.PublicKey)
	e.String(c.Issuer)
	e.Time(c.NotBefore)
	e.Time(c.NotAfter)
	e.Bytes(c.Sig)
}

// DecodeCertificate reads a Certificate from d.
func DecodeCertificate(d *canon.Decoder) Certificate {
	d.Struct("certfull")
	return Certificate{
		Subject:   d.String(),
		PublicKey: ed25519.PublicKey(d.Bytes()),
		Issuer:    d.String(),
		NotBefore: d.Time(),
		NotAfter:  d.Time(),
		Sig:       d.Bytes(),
	}
}

// Identity is a key holder: a named ed25519 key pair plus the certificate
// issued for it. The private key never leaves the Identity.
type Identity struct {
	id   string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	cert Certificate
}

// NewIdentity generates a fresh key pair for id. The identity has no
// certificate until a CA issues one via CA.Issue.
func NewIdentity(id string) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(crand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypto: generating key for %s: %w", id, err)
	}
	return &Identity{id: id, pub: pub, priv: priv}, nil
}

// ID returns the identity's name.
func (i *Identity) ID() string { return i.id }

// PublicKey returns the identity's public key.
func (i *Identity) PublicKey() ed25519.PublicKey { return i.pub }

// Certificate returns the certificate issued for this identity (zero value
// if none has been issued).
func (i *Identity) Certificate() Certificate { return i.cert }

// Sign produces a signature over data attributable to this identity.
func (i *Identity) Sign(data []byte) Signature {
	return Signature{Signer: i.id, Sig: ed25519.Sign(i.priv, data)}
}

// CA is a certification authority trusted by all parties. It issues identity
// certificates and is itself identified by a self-signed root key.
type CA struct {
	id    string
	pub   ed25519.PublicKey
	priv  ed25519.PrivateKey
	clk   clock.Clock
	valid time.Duration
}

// NewCA creates a certification authority. Certificates it issues are valid
// for the supplied duration from the moment of issue.
func NewCA(id string, clk clock.Clock, validity time.Duration) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(crand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypto: generating CA key: %w", err)
	}
	return &CA{id: id, pub: pub, priv: priv, clk: clk, valid: validity}, nil
}

// ID returns the CA's name.
func (ca *CA) ID() string { return ca.id }

// PublicKey returns the CA's root public key, which verifiers must hold.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.pub }

// Issue creates, signs and installs a certificate for the identity.
func (ca *CA) Issue(ident *Identity) Certificate {
	now := ca.clk.Now()
	cert := Certificate{
		Subject:   ident.id,
		PublicKey: ident.pub,
		Issuer:    ca.id,
		NotBefore: now,
		NotAfter:  now.Add(ca.valid),
	}
	cert.Sig = ed25519.Sign(ca.priv, cert.signedBytes())
	ident.cert = cert
	return cert
}

// Timestamp is evidence from a trusted time-stamping service that a hash
// existed at a given time: TS_s(h, t) = {h, t} signed by the TSA.
type Timestamp struct {
	Hash      [32]byte
	Time      time.Time
	Authority string
	Sig       []byte
}

func tsSignedBytes(h [32]byte, t time.Time, authority string) []byte {
	e := canon.NewEncoder()
	e.Struct("ts")
	e.Bytes32(h)
	e.Time(t)
	e.String(authority)
	return e.Out()
}

// Encode appends the timestamp to e.
func (t Timestamp) Encode(e *canon.Encoder) {
	e.Struct("tsfull")
	e.Bytes32(t.Hash)
	e.Time(t.Time)
	e.String(t.Authority)
	e.Bytes(t.Sig)
}

// DecodeTimestamp reads a Timestamp from d.
func DecodeTimestamp(d *canon.Decoder) Timestamp {
	d.Struct("tsfull")
	return Timestamp{
		Hash:      d.Bytes32(),
		Time:      d.Time(),
		Authority: d.String(),
		Sig:       d.Bytes(),
	}
}

// TSA is a trusted time-stamping service acceptable to all parties (§4.2).
type TSA struct {
	id   string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	clk  clock.Clock
}

// NewTSA creates a time-stamping service reading time from clk.
func NewTSA(id string, clk clock.Clock) (*TSA, error) {
	pub, priv, err := ed25519.GenerateKey(crand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypto: generating TSA key: %w", err)
	}
	return &TSA{id: id, pub: pub, priv: priv, clk: clk}, nil
}

// ID returns the TSA's name.
func (t *TSA) ID() string { return t.id }

// PublicKey returns the TSA's public key, which verifiers must hold.
func (t *TSA) PublicKey() ed25519.PublicKey { return t.pub }

// Stamp signs (h, now): evidence that h existed no later than now.
func (t *TSA) Stamp(h [32]byte) Timestamp {
	now := t.clk.Now().UTC()
	return Timestamp{
		Hash:      h,
		Time:      now,
		Authority: t.id,
		Sig:       ed25519.Sign(t.priv, tsSignedBytes(h, now, t.id)),
	}
}

// Verifier validates signatures, certificates and timestamps against a set
// of trusted roots and registered party certificates. It is safe for
// concurrent use after setup.
type Verifier struct {
	caID   string
	caPub  ed25519.PublicKey
	tsaID  string
	tsaPub ed25519.PublicKey
	certs  map[string]Certificate
}

// NewVerifier creates a verifier trusting the given CA and TSA roots.
func NewVerifier(ca *CA, tsa *TSA) *Verifier {
	return &Verifier{
		caID:   ca.ID(),
		caPub:  ca.PublicKey(),
		tsaID:  tsa.ID(),
		tsaPub: tsa.PublicKey(),
		certs:  make(map[string]Certificate),
	}
}

// AddCertificate verifies cert against the trusted CA and, if valid,
// registers the subject's public key for signature verification.
func (v *Verifier) AddCertificate(cert Certificate) error {
	if cert.Issuer != v.caID {
		return fmt.Errorf("%w: issuer %q not trusted", ErrCertificate, cert.Issuer)
	}
	if len(cert.PublicKey) != ed25519.PublicKeySize {
		return ErrShortKey
	}
	if !ed25519.Verify(v.caPub, cert.signedBytes(), cert.Sig) {
		return ErrCertificate
	}
	v.certs[cert.Subject] = cert
	return nil
}

// Certificate returns the registered certificate for a subject.
func (v *Verifier) Certificate(subject string) (Certificate, bool) {
	c, ok := v.certs[subject]
	return c, ok
}

// VerifySignature checks that sig is a valid signature over data by a
// registered party, and that the party's certificate was valid at time at.
func (v *Verifier) VerifySignature(data []byte, sig Signature, at time.Time) error {
	cert, ok := v.certs[sig.Signer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSigner, sig.Signer)
	}
	if at.Before(cert.NotBefore) || at.After(cert.NotAfter) {
		return fmt.Errorf("%w: signer %q at %v", ErrExpired, sig.Signer, at)
	}
	if len(sig.Sig) != ed25519.SignatureSize {
		return ErrShortSignature
	}
	if !ed25519.Verify(cert.PublicKey, data, sig.Sig) {
		return fmt.Errorf("%w: signer %q", ErrBadSignature, sig.Signer)
	}
	return nil
}

// VerifyTimestamp checks a TSA timestamp over h.
func (v *Verifier) VerifyTimestamp(ts Timestamp, h [32]byte) error {
	if ts.Authority != v.tsaID {
		return fmt.Errorf("%w: authority %q not trusted", ErrTimestamp, ts.Authority)
	}
	if ts.Hash != h {
		return fmt.Errorf("%w: hash mismatch", ErrTimestamp)
	}
	if !ed25519.Verify(v.tsaPub, tsSignedBytes(ts.Hash, ts.Time, ts.Authority), ts.Sig) {
		return ErrTimestamp
	}
	return nil
}

// NewIdentityFromSeed derives an identity deterministically from a 32-byte
// seed, for configuration-file based deployments where the same key must be
// reconstructed across restarts.
func NewIdentityFromSeed(id string, seed []byte) (*Identity, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("crypto: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Identity{id: id, pub: priv.Public().(ed25519.PublicKey), priv: priv}, nil
}

// NewCAFromSeed derives a CA deterministically from a seed (see
// NewIdentityFromSeed).
func NewCAFromSeed(id string, seed []byte, clk clock.Clock, validity time.Duration) (*CA, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("crypto: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &CA{id: id, pub: priv.Public().(ed25519.PublicKey), priv: priv, clk: clk, valid: validity}, nil
}

// NewTSAFromSeed derives a TSA deterministically from a seed (see
// NewIdentityFromSeed).
func NewTSAFromSeed(id string, seed []byte, clk clock.Clock) (*TSA, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("crypto: seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &TSA{id: id, pub: priv.Public().(ed25519.PublicKey), priv: priv, clk: clk}, nil
}
