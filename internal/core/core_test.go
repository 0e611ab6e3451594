package core_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/core"
	"b2b/internal/crypto"
	"b2b/internal/lab"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

func newParticipant(t *testing.T, nw *transport.Network, clk clock.Clock,
	ca *crypto.CA, tsa *crypto.TSA, id string, certs []crypto.Certificate) *core.Participant {
	t.Helper()
	ident, err := crypto.NewIdentity(id)
	if err != nil {
		t.Fatal(err)
	}
	ca.Issue(ident)
	v := crypto.NewVerifier(ca, tsa)
	if err := v.AddCertificate(ident.Certificate()); err != nil {
		t.Fatal(err)
	}
	for _, c := range certs {
		if err := v.AddCertificate(c); err != nil {
			t.Fatal(err)
		}
	}
	rel, err := transport.NewReliable(nw.Endpoint(id), transport.WithRetryInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{
		Ident:    ident,
		Verifier: v,
		TSA:      tsa,
		Conn:     rel,
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestParticipantBindErrors(t *testing.T) {
	clk := clock.Wall{}
	ca, err := crypto.NewCA("ca", clk, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := crypto.NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(1)
	t.Cleanup(nw.Close)

	p := newParticipant(t, nw, clk, ca, tsa, "solo", nil)
	if _, _, err := p.Bind("obj", lab.AcceptAllValidator(), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Bind("obj", lab.AcceptAllValidator(), nil); !errors.Is(err, core.ErrObjectBound) {
		t.Fatalf("double bind: %v", err)
	}
	if _, err := p.Engine("ghost"); !errors.Is(err, core.ErrObjectUnknown) {
		t.Fatalf("unknown engine: %v", err)
	}
	if _, err := p.Manager("ghost"); !errors.Is(err, core.ErrObjectUnknown) {
		t.Fatalf("unknown manager: %v", err)
	}
	if got := p.Objects(); len(got) != 1 || got[0] != "obj" {
		t.Fatalf("objects = %v", got)
	}
}

func TestParticipantMultiObjectRouting(t *testing.T) {
	// Two independent objects between the same pair of participants: runs
	// must not interfere.
	w, err := lab.NewWorld(lab.Options{Seed: 6}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, object := range []string{"orders", "contracts"} {
		if err := w.Bind(object, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Bootstrap(object, []byte(object+"-v0"), []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := w.Party("a").Engine("orders").Propose(ctx, []byte("orders-v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Party("b").Engine("contracts").Propose(ctx, []byte("contracts-v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitAgreed("orders", []string{"a", "b"}, []byte("orders-v1"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitAgreed("contracts", []string{"a", "b"}, []byte("contracts-v1"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestParticipantLogsUnboundObjectTraffic(t *testing.T) {
	w, err := lab.NewWorld(lab.Options{Seed: 6}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind("known", func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap("known", []byte("v0"), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	// Craft a message for an object b has not bound.
	env := wire.Envelope{
		MsgID:   "m1",
		From:    "a",
		To:      "b",
		Object:  "unbound-object",
		Kind:    wire.KindPropose,
		Payload: []byte("whatever"),
	}
	if err := w.Party("a").Rel.Send(context.Background(), "b", env.Marshal()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		entries, err := w.Party("b").Log.Entries()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Kind == "unbound-object" {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("traffic for unbound object left no evidence")
}

func TestParticipantMalformedTrafficEvidence(t *testing.T) {
	w, err := lab.NewWorld(lab.Options{Seed: 6}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind("obj", func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap("obj", []byte("v0"), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	// Kinds 15 and 16 (the removed §7 TTP abort) are reserved: a frame of
	// either kind is unknown traffic like any other.
	reserved := func(k wire.Kind) []byte {
		return wire.Envelope{MsgID: "m", From: "a", To: "b", Object: "obj", Kind: k, Payload: []byte("p")}.Marshal()
	}
	for _, tc := range []struct {
		frame []byte
		kind  string
	}{
		{[]byte("not an envelope"), "malformed-envelope"},
		{reserved(15), "unknown-kind"},
		{reserved(16), "unknown-kind"},
	} {
		if err := w.Party("a").Rel.Send(context.Background(), "b", tc.frame); err != nil {
			t.Fatal(err)
		}
		if !waitEvidence(w.Party("b").Log, tc.kind, tc.frame) {
			t.Fatalf("%q traffic left no %s evidence", tc.frame, tc.kind)
		}
	}
}

// waitEvidence reports whether log records an entry of kind with payload
// within 3 s.
func waitEvidence(log nrlog.Log, kind string, payload []byte) bool {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		entries, err := log.Entries()
		if err != nil {
			return false
		}
		for _, e := range entries {
			if e.Kind == kind && bytes.Equal(e.Payload, payload) {
				return true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func TestParticipantClosedIgnoresTraffic(t *testing.T) {
	w, err := lab.NewWorld(lab.Options{Seed: 6}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind("obj", func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap("obj", []byte("v0"), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Party("b").Part.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := w.Party("a").Engine("obj").Propose(ctx, []byte("v1")); err == nil {
		t.Fatal("proposal succeeded against a closed participant")
	}
}

func TestIncompleteConfigRejected(t *testing.T) {
	if _, err := core.New(core.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestIllegalPageSizeRejected: above 4 MiB a page size must be a multiple
// of 4 MiB, the unit a snapshot transfer verifies chunks in; a party refuses
// any other.
func TestIllegalPageSizeRejected(t *testing.T) {
	for _, ps := range []int{pagestate.MaxPageSize + 1, 3 * pagestate.MaxPageSize / 2} {
		if w, err := lab.NewWorld(lab.Options{Seed: 1, PageSize: ps}, "a"); err == nil {
			w.Close()
			t.Fatalf("page size %d accepted", ps)
		}
	}
}

// countingFS is the real filesystem, counting the segment files it holds
// open.
type countingFS struct {
	store.FS
	mu     sync.Mutex
	opened int
	open   int
}

func (c *countingFS) OpenAppend(path string) (store.SegmentFile, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.opened++
	c.open++
	c.mu.Unlock()
	return &countedFile{SegmentFile: f, fs: c}, nil
}

type countedFile struct {
	store.SegmentFile
	fs *countingFS
}

func (f *countedFile) Close() error {
	f.fs.mu.Lock()
	f.fs.open--
	f.fs.mu.Unlock()
	return f.SegmentFile.Close()
}

// TestNewClosesWhatItOpenedOnFailure: a relay-host directory that cannot be
// created fails New after the party's plane has opened and started; New
// must close that plane, leaving no file open.
func TestNewClosesWhatItOpenedOnFailure(t *testing.T) {
	clk := clock.Wall{}
	ca, err := crypto.NewCA("ca", clk, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := crypto.NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	ident, err := crypto.NewIdentity("solo")
	if err != nil {
		t.Fatal(err)
	}
	ca.Issue(ident)
	nw := transport.NewNetwork(1)
	t.Cleanup(nw.Close)
	rel, err := transport.NewReliable(nw.Endpoint("solo"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rel.Close() })

	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	fs := &countingFS{FS: store.OS}
	_, err = core.New(core.Config{
		Ident:     ident,
		Verifier:  crypto.NewVerifier(ca, tsa),
		TSA:       tsa,
		Conn:      rel,
		Clock:     clk,
		PlaneDir:  filepath.Join(dir, "solo"),
		FS:        fs,
		Relay:     "solo",
		RelayHost: &core.RelayHost{Dir: filepath.Join(blocker, "relay")},
	})
	if err == nil {
		t.Fatal("New succeeded with an uncreatable relay-host directory")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.opened == 0 {
		t.Fatal("the plane opened no segment before the relay host failed")
	}
	if fs.open != 0 {
		t.Fatalf("%d of %d segment files left open after New failed", fs.open, fs.opened)
	}
}
