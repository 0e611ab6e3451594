package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	b2b "b2b"
	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/store"
	"b2b/internal/transport"
)

// TestBlobObjectConcurrentAccess drives blobObject from the three goroutines
// a running node has: the control interface's set handler and the commit
// executor's install upcall both call ApplyState while Leave calls GetState.
// Under -race an unguarded state field is reported as a data race.
func TestBlobObjectConcurrentAccess(t *testing.T) {
	obj := &blobObject{state: []byte("{}")}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := obj.ApplyState([]byte(fmt.Sprintf(`{"writer":%d,"i":%d}`, w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			state, err := obj.GetState()
			if err != nil {
				t.Error(err)
				return
			}
			if err := obj.ValidateState("peer", state); err != nil {
				t.Errorf("read a torn state %q: %v", state, err)
				return
			}
		}
	}()
	wg.Wait()

	got, err := obj.GetState()
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'x'
	if again, _ := obj.GetState(); bytes.Equal(again, got) {
		t.Fatal("GetState returned the object's own buffer")
	}
}

// TestRestoreOrFound: only a node that has never been bootstrapped founds
// a group. A restore that fails for any other reason stops the node, so a
// rejected checkpoint chain is never overwritten by a fresh one.
func TestRestoreOrFound(t *testing.T) {
	rejected := errors.New("snapshot does not match its tuple")
	for _, tc := range []struct {
		name       string
		restoreErr error
		bootstraps int
		wantErr    error
	}{
		{"recovered", nil, 0, nil},
		{"never bootstrapped", fmt.Errorf("coord: restoring: %w: doc", store.ErrNoCheckpoint), 1, nil},
		{"rejected chain", rejected, 0, rejected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bootstraps := 0
			founded, err := restoreOrFound(
				func() error { return tc.restoreErr },
				func() error { bootstraps++; return nil })
			if founded != (tc.bootstraps == 1) || !errors.Is(err, tc.wantErr) {
				t.Fatalf("restoreOrFound = (%v, %v), want (%v, %v)", founded, err, tc.bootstraps == 1, tc.wantErr)
			}
			if bootstraps != tc.bootstraps {
				t.Fatalf("bootstrapped %d times, want %d", bootstraps, tc.bootstraps)
			}
		})
	}
}

// TestConfigRejectsUnknownKeys: a config that still names a TCP control
// address is refused, not silently run without it.
func TestConfigRejectsUnknownKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alice.json")
	raw := `{"id":"alice","listen":"127.0.0.1:7001","control":"127.0.0.1:7101","storage_dir":"data"}`
	if err := os.WriteFile(path, []byte(raw), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := readConfig(path); err == nil || !strings.Contains(err.Error(), `"control"`) {
		t.Fatalf("readConfig accepted a control key: %v", err)
	}
}

// TestControlSocketSetReachesPeer runs the node's own control server and
// client over the socket in a storage directory: the socket admits only the
// node's user, and a set through it is agreed by the peer's replica.
func TestControlSocketSetReachesPeer(t *testing.T) {
	dir := t.TempDir()
	ctl, err := listenControl(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ctl.Close() })
	fi, err := os.Stat(filepath.Join(dir, controlSocket))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeSocket == 0 || fi.Mode().Perm()&0o077 != 0 {
		t.Fatalf("control socket mode %v, want a socket with no group or other bits", fi.Mode())
	}

	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"alice", "bob"}
	idents := make(map[string]*crypto.Identity)
	var certs []crypto.Certificate
	eps := make(map[string]*transport.TCPEndpoint)
	for _, id := range ids {
		ident, err := td.Issue(id)
		if err != nil {
			t.Fatal(err)
		}
		idents[id] = ident
		certs = append(certs, ident.Certificate())
		if eps[id], err = transport.ListenTCP(id, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	eps["alice"].AddPeer("bob", eps["bob"].Addr())
	eps["bob"].AddPeer("alice", eps["alice"].Addr())

	storage := map[string]string{"alice": dir, "bob": t.TempDir()}
	parts := make(map[string]*b2b.Participant)
	ctrls := make(map[string]*b2b.Controller)
	objs := make(map[string]*blobObject)
	for _, id := range ids {
		rel, err := transport.NewReliable(eps[id], transport.WithRetryInterval(50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		p, err := b2b.NewParticipant(idents[id], td, rel,
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithFileStorage(storage[id]),
			b2b.WithOperationTimeout(15*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		objs[id] = &blobObject{state: []byte("{}")}
		if ctrls[id], err = p.Bind("document", objs[id], nil); err != nil {
			t.Fatal(err)
		}
		parts[id] = p
	}
	for _, id := range ids {
		if err := ctrls[id].Bootstrap(ids); err != nil {
			t.Fatal(err)
		}
	}
	go serveControl(ctl, controlHandler(parts["alice"], ctrls["alice"], objs["alice"]))

	cfg := writeConfig(t, dir)
	want := `{"hello":"world"}`
	res, err := callControl(cfg, "set", []byte(want))
	if err != nil || string(res) != "ok" {
		t.Fatalf("set via control socket = %q, %v", res, err)
	}
	if res, err := callControl(cfg, "get", nil); err != nil || string(res) != want {
		t.Fatalf("get via control socket = %q, %v; want %s", res, err, want)
	}
	if _, err := callControl(cfg, "nosuch", nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		state, _ := objs["bob"].GetState()
		if string(state) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("bob's replica = %q, want %s", state, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestControlSocketClaimsDirectory: while one server's socket answers, a
// second server on the same directory fails; a socket file whose listener
// is gone (a killed node's) is replaced; an oversized request is refused.
func TestControlSocketClaimsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, controlSocket)
	first, err := listenControl(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := listenControl(dir); err == nil || !strings.Contains(err.Error(), "another node is serving") {
		t.Fatalf("second server on a live directory: %v", err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("socket file after close: %v", err)
	}

	stale, err := listenControl(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale.(*net.UnixListener).SetUnlinkOnClose(false)
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("stale socket file: %v", err)
	}
	ctl, err := listenControl(dir)
	if err != nil {
		t.Fatalf("listen over a stale socket: %v", err)
	}
	t.Cleanup(func() { _ = ctl.Close() })
	go serveControl(ctl, func(method string, value []byte) ([]byte, error) {
		return append([]byte(method+":"), value...), nil
	})
	if res, err := callControl(writeConfig(t, dir), "echo", []byte("v")); err != nil || string(res) != "echo:v" {
		t.Fatalf("call over the replaced socket = %q, %v", res, err)
	}

	// A well-formed request just over the bound (its value's base64 alone
	// fills it), which the echo handler would answer if the server read it.
	big, err := json.Marshal(controlMsg{Method: "echo", Value: make([]byte, transport.MaxFrame*3/4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= transport.MaxFrame {
		t.Fatalf("request of %d bytes is within the bound", len(big))
	}
	c, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// The server stops reading at the bound and may close before the write
	// completes; its reply is already queued either way.
	_, _ = c.Write(big)
	var rep controlMsg
	if err := json.NewDecoder(c).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Result != nil || !strings.Contains(rep.Error, "at most") {
		t.Fatalf("oversized request answered a %d-byte result, error %q", len(rep.Result), rep.Error)
	}
}

// writeConfig writes a node config naming storage directory dir.
func writeConfig(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.json")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"id":"alice","storage_dir":%q}`, dir)), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}
