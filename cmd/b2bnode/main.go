// b2bnode runs one organisation's B2BObjects participant as a long-lived
// process over TCP, with a control interface on a Unix-domain socket in its
// storage directory.
//
// Generate shared demo trust material once:
//
//	b2bnode -gen-trust -parties alice,bob > trust.json
//
// Then start one node per party:
//
//	b2bnode -config alice.json
//
// with a config such as:
//
//	{
//	  "id": "alice",
//	  "listen": "127.0.0.1:7001",
//	  "peers": {"bob": "127.0.0.1:7002"},
//	  "object": "document",
//	  "members": ["alice", "bob"],
//	  "storage_dir": "./data/alice",
//	  "trust_file": "trust.json"
//	}
//
// Control clients use the same binary and config; the node serves them on
// <storage_dir>/control.sock, mode 0600, so only its user can connect:
//
//	b2bnode -call get      -config alice.json
//	b2bnode -call set      -config alice.json -value '{"hello":"world"}'
//	b2bnode -call members  -config alice.json
//	b2bnode -call evidence -config alice.json
//	b2bnode -call metrics  -config alice.json
//
// NOTE: the generated trust file contains every party's key seed; it is a
// single-trust-domain DEMO deployment aid, not a production PKI. In
// production each organisation holds its own key and exchanges certificates
// out of band.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	b2b "b2b"
	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/store"
	"b2b/internal/transport"
)

type trustFile struct {
	CASeed  string            `json:"ca_seed"`
	TSASeed string            `json:"tsa_seed"`
	Parties map[string]string `json:"parties"` // id -> identity seed
}

type nodeConfig struct {
	ID         string            `json:"id"`
	Listen     string            `json:"listen"`
	Peers      map[string]string `json:"peers"`
	Object     string            `json:"object"`
	Members    []string          `json:"members"`
	StorageDir string            `json:"storage_dir"`
	TrustFile  string            `json:"trust_file"`
	// Relay names the peer hosting the relay mailbox service: traffic for
	// unreachable peers parks there (sealed — the relay cannot read it) and
	// this node drains its own mailbox on startup and during catch-up.
	Relay string `json:"relay"`
	// RelayHost makes this node host the relay mailbox service, durable
	// under <storage_dir>/relay. Relay metrics appear in -call metrics.
	RelayHost bool `json:"relay_host"`
}

func main() {
	var (
		genTrust = flag.Bool("gen-trust", false, "generate demo trust material")
		parties  = flag.String("parties", "", "comma-separated party ids for -gen-trust")
		cfgPath  = flag.String("config", "", "node configuration file")
		call     = flag.String("call", "", "control call on the node -config names: get | set | members | evidence | metrics")
		value    = flag.String("value", "", "value for -call set")
	)
	flag.Parse()

	var err error
	switch {
	case *genTrust:
		err = runGenTrust(*parties)
	case *call != "" && *cfgPath != "":
		var res []byte
		if res, err = callControl(*cfgPath, *call, []byte(*value)); err == nil {
			fmt.Println(string(res))
		}
	case *cfgPath != "":
		err = runNode(*cfgPath)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "b2bnode: %v\n", err)
		os.Exit(1)
	}
}

func runGenTrust(parties string) error {
	if parties == "" {
		return errors.New("-gen-trust requires -parties a,b,c")
	}
	tf := trustFile{Parties: make(map[string]string)}
	caSeed, err := crypto.Nonce()
	if err != nil {
		return err
	}
	tsaSeed, err := crypto.Nonce()
	if err != nil {
		return err
	}
	tf.CASeed = base64.StdEncoding.EncodeToString(caSeed)
	tf.TSASeed = base64.StdEncoding.EncodeToString(tsaSeed)
	for _, p := range strings.Split(parties, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		seed, err := crypto.Nonce()
		if err != nil {
			return err
		}
		tf.Parties[p] = base64.StdEncoding.EncodeToString(seed)
	}
	out, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// buildTrust reconstructs the deterministic trust domain from the file.
func buildTrust(tf trustFile, clk clock.Clock) (*crypto.CA, *crypto.TSA, map[string]*crypto.Identity, error) {
	caSeed, err := base64.StdEncoding.DecodeString(tf.CASeed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ca seed: %w", err)
	}
	tsaSeed, err := base64.StdEncoding.DecodeString(tf.TSASeed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("tsa seed: %w", err)
	}
	ca, err := crypto.NewCAFromSeed("b2b-ca", seed32(caSeed), clk, 10*365*24*time.Hour)
	if err != nil {
		return nil, nil, nil, err
	}
	tsa, err := crypto.NewTSAFromSeed("b2b-tsa", seed32(tsaSeed), clk)
	if err != nil {
		return nil, nil, nil, err
	}
	idents := make(map[string]*crypto.Identity, len(tf.Parties))
	for id, seedB64 := range tf.Parties {
		seed, err := base64.StdEncoding.DecodeString(seedB64)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("seed for %s: %w", id, err)
		}
		ident, err := crypto.NewIdentityFromSeed(id, seed32(seed))
		if err != nil {
			return nil, nil, nil, err
		}
		ca.Issue(ident)
		idents[id] = ident
	}
	return ca, tsa, idents, nil
}

// seed32 normalises arbitrary seed material to the 32 bytes ed25519 needs.
func seed32(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

// blobObject is the node's generic shared object: an opaque JSON document;
// every syntactically valid change is accepted (policy plugs in here in a
// real application).
// Its state is written by the control interface's set handler and by the
// commit executor's install upcall, and read at every Leave, so mu guards it.
type blobObject struct {
	mu    sync.Mutex
	state []byte
}

func (o *blobObject) GetState() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]byte(nil), o.state...), nil
}

func (o *blobObject) ApplyState(state []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.state = append([]byte(nil), state...)
	return nil
}

func (o *blobObject) ValidateState(_ string, state []byte) error {
	if len(state) > 0 && !json.Valid(state) {
		return errors.New("state must be valid JSON")
	}
	return nil
}

func (o *blobObject) ValidateConnect(string) error { return nil }

func (o *blobObject) ValidateDisconnect(string, bool) error { return nil }

// controlSocket is the node's control socket, in its storage directory.
const controlSocket = "control.sock"

// readConfig decodes a node config. An unknown key, such as the "control"
// address older nodes read, is an error rather than silently ignored.
func readConfig(path string) (cfg nodeConfig, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("parsing config: %w", err)
	}
	return cfg, nil
}

func runNode(cfgPath string) error {
	cfg, err := readConfig(cfgPath)
	if err != nil {
		return err
	}
	// Bound before anything touches the storage directory or starts a
	// goroutine; closed last, so the directory stays claimed until then.
	ctl, err := listenControl(cfg.StorageDir)
	if err != nil {
		return err
	}
	defer func() { _ = ctl.Close() }()
	traw, err := os.ReadFile(cfg.TrustFile)
	if err != nil {
		return fmt.Errorf("reading trust file: %w", err)
	}
	var tf trustFile
	if err := json.Unmarshal(traw, &tf); err != nil {
		return fmt.Errorf("parsing trust file: %w", err)
	}

	clk := clock.Wall{}
	ca, tsa, idents, err := buildTrust(tf, clk)
	if err != nil {
		return err
	}
	ident, ok := idents[cfg.ID]
	if !ok {
		return fmt.Errorf("party %q not in trust file", cfg.ID)
	}
	td := &b2b.TrustDomain{CA: ca, TSA: tsa}

	// Protocol transport: TCP + journal-backed reliable delivery.
	tcp, err := transport.ListenTCP(cfg.ID, cfg.Listen)
	if err != nil {
		return err
	}
	for id, addr := range cfg.Peers {
		tcp.AddPeer(id, addr)
	}
	journal, err := transport.OpenFileJournal(cfg.StorageDir + "/reliable.journal")
	if err != nil {
		return err
	}
	// Deferred before the participant's Close, which closes the Reliable:
	// that must stop appending before its journal closes.
	defer func() { _ = journal.Close() }()
	rel, err := transport.NewReliable(tcp,
		transport.WithRetryInterval(100*time.Millisecond),
		transport.WithJournal(journal))
	if err != nil {
		return err
	}

	var peerCerts []crypto.Certificate
	for _, other := range idents {
		peerCerts = append(peerCerts, other.Certificate())
	}
	popts := []b2b.Option{
		b2b.WithPeerCertificates(peerCerts...),
		b2b.WithFileStorage(cfg.StorageDir),
		b2b.WithOperationTimeout(30 * time.Second),
	}
	if cfg.Relay != "" {
		popts = append(popts, b2b.WithRelay(cfg.Relay))
	}
	if cfg.RelayHost {
		popts = append(popts, b2b.WithRelayHost(cfg.StorageDir+"/relay"))
	}
	part, err := b2b.NewParticipant(ident, td, rel, popts...)
	if err != nil {
		return err
	}
	defer func() { _ = part.Close() }()

	if cfg.Relay != "" {
		// Announce our sealing prekey so peers can park traffic for us, then
		// collect whatever was parked while this node was down.
		var peers []string
		for id := range cfg.Peers {
			peers = append(peers, id)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := part.RelayPublishPrekey(ctx, peers...); err != nil {
			fmt.Printf("%s: relay prekey publication incomplete: %v\n", cfg.ID, err)
		}
		if n, err := part.RelayDrain(ctx); err != nil {
			fmt.Printf("%s: relay drain: %v\n", cfg.ID, err)
		} else if n > 0 {
			fmt.Printf("%s: drained %d parked envelopes from relay %s\n", cfg.ID, n, cfg.Relay)
		}
		cancel()
	}

	obj := &blobObject{state: []byte("{}")}
	ctrl, err := part.Bind(cfg.Object, obj, nil)
	if err != nil {
		return err
	}
	if founded, err := restoreOrFound(ctrl.Restore, func() error { return ctrl.Bootstrap(cfg.Members) }); err != nil {
		return err
	} else if founded {
		fmt.Printf("%s: founded group %v on object %q\n", cfg.ID, cfg.Members, cfg.Object)
	} else {
		fmt.Printf("%s: recovered state seq=%d, members %v\n", cfg.ID, ctrl.AgreedSeq(), ctrl.Members())
	}

	go serveControl(ctl, controlHandler(part, ctrl, obj))
	fmt.Printf("%s: protocol on %s, control on %s\n", cfg.ID, cfg.Listen, ctl.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("%s: shutting down\n", cfg.ID)
	return nil
}

// restoreOrFound recovers the node's object from its checkpoint chain, or
// founds the group if there is none. Any other restore error (a rejected
// chain, a failed install) is returned: a new group would bury the history.
func restoreOrFound(restore, found func() error) (founded bool, err error) {
	if err := restore(); !errors.Is(err, store.ErrNoCheckpoint) {
		return false, err
	}
	return true, found()
}

// controlHandler answers the node's control calls.
func controlHandler(part *b2b.Participant, ctrl *b2b.Controller, obj *blobObject) func(method string, value []byte) ([]byte, error) {
	return func(method string, value []byte) ([]byte, error) {
		switch method {
		case "get":
			return ctrl.AgreedState(), nil
		case "set":
			if err := ctrl.Settle(context.Background()); err != nil {
				return nil, err
			}
			ctrl.Enter()
			ctrl.Overwrite()
			if err := obj.ApplyState(value); err != nil {
				_ = ctrl.Leave()
				return nil, err
			}
			if err := ctrl.Leave(); err != nil {
				return nil, err
			}
			return []byte("ok"), nil
		case "members":
			return json.Marshal(ctrl.Members())
		case "evidence":
			entries, err := part.Log().Entries()
			if err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf(`{"entries":%d,"chain_ok":%t}`,
				len(entries), part.Log().Verify() == nil)), nil
		case "metrics":
			var buf bytes.Buffer
			if err := part.DumpMetrics(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	}
}

// listenControl binds dir's control socket, creating dir if need be. The
// socket claims dir: one that answers a dial is a live node's, and one that
// refuses it was left by a killed node and is replaced.
func listenControl(dir string) (net.Listener, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, controlSocket)
	if c, err := net.Dial("unix", path); err == nil {
		_ = c.Close()
		return nil, fmt.Errorf("another node is serving %s", dir)
	} else if errors.Is(err, syscall.ECONNREFUSED) {
		_ = os.Remove(path) // a killed node's; if it stays, the bind fails
	}
	// A 0o177 umask makes the socket 0600 from its first instant, unlike a
	// later chmod. It is process-wide: runNode binds before any goroutine.
	defer syscall.Umask(syscall.Umask(0o177))
	return net.Listen("unix", path)
}

// controlMsg is the control protocol's message: one JSON request per
// connection, {method, value} and at most transport.MaxFrame bytes,
// answered by one JSON reply, {result | error}.
type controlMsg struct {
	Method string `json:"method,omitempty"`
	Value  []byte `json:"value,omitempty"`
	Result []byte `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// serveControl answers control calls on l until l is closed.
func serveControl(l net.Listener, handle func(method string, value []byte) ([]byte, error)) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer func() { _ = c.Close() }()
			var req, rep controlMsg
			err := json.NewDecoder(io.LimitReader(c, transport.MaxFrame)).Decode(&req)
			if err != nil {
				err = fmt.Errorf("bad control request (at most %d bytes): %w", transport.MaxFrame, err)
			} else {
				rep.Result, err = handle(req.Method, req.Value)
			}
			if err != nil {
				rep.Error = err.Error()
			}
			_ = json.NewEncoder(c).Encode(rep) // fails only if the caller left
		}()
	}
}

// callControl makes one control call on the node configured at cfgPath.
func callControl(cfgPath, method string, value []byte) ([]byte, error) {
	cfg, err := readConfig(cfgPath)
	if err != nil {
		return nil, err
	}
	c, err := net.Dial("unix", filepath.Join(cfg.StorageDir, controlSocket))
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(time.Now().Add(30 * time.Second)) // fails only on a closed conn
	var rep controlMsg
	err = json.NewEncoder(c).Encode(controlMsg{Method: method, Value: value})
	if err == nil {
		err = json.NewDecoder(c).Decode(&rep)
	}
	if err == nil && rep.Error != "" {
		err = errors.New(rep.Error)
	}
	return rep.Result, err
}
