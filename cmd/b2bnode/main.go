// b2bnode runs one organisation's B2BObjects participant as a long-lived
// process over TCP, with a small RMI control interface for clients.
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
//	  "control": "127.0.0.1:7101",
//	  "peers": {"bob": "127.0.0.1:7002"},
//	  "object": "document",
//	  "members": ["alice", "bob"],
//	  "storage_dir": "./data/alice",
//	  "trust_file": "trust.json"
//	}
//
// Control clients use the same binary:
//
//	b2bnode -call get     -control 127.0.0.1:7101
//	b2bnode -call set     -control 127.0.0.1:7101 -value '{"hello":"world"}'
//	b2bnode -call members -control 127.0.0.1:7101
//	b2bnode -call metrics -control 127.0.0.1:7101
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
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	b2b "b2b"
	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/rmi"
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
	Control    string            `json:"control"`
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
		call     = flag.String("call", "", "control call: get | set | members | evidence | metrics")
		control  = flag.String("control", "", "control address of a running node")
		value    = flag.String("value", "", "value for -call set")
	)
	flag.Parse()

	var err error
	switch {
	case *genTrust:
		err = runGenTrust(*parties)
	case *call != "":
		err = runCall(*control, *call, *value)
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

func runNode(cfgPath string) error {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg nodeConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parsing config: %w", err)
	}
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
	// Deferred first, so it runs last: the participant's Close closes the
	// Reliable, which must stop appending before its journal closes.
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
	// Recover from a previous run if a checkpoint exists; otherwise found
	// the group.
	if err := ctrl.Restore(); err != nil {
		if err := ctrl.Bootstrap(cfg.Members); err != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
		fmt.Printf("%s: founded group %v on object %q\n", cfg.ID, cfg.Members, cfg.Object)
	} else {
		fmt.Printf("%s: recovered state seq=%d, members %v\n", cfg.ID, ctrl.AgreedSeq(), ctrl.Members())
	}

	// Control interface over RMI on its own TCP endpoint.
	ctl, err := transport.ListenTCP(cfg.ID+".control", cfg.Control)
	if err != nil {
		return err
	}
	reg := rmi.New(ctl)
	reg.Register("node", func(method string, args []byte) ([]byte, error) {
		switch method {
		case "get":
			return ctrl.AgreedState(), nil
		case "set":
			if err := ctrl.Settle(context.Background()); err != nil {
				return nil, err
			}
			ctrl.Enter()
			ctrl.Overwrite()
			if err := obj.ApplyState(args); err != nil {
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
	})

	fmt.Printf("%s: protocol on %s, control on %s\n", cfg.ID, cfg.Listen, cfg.Control)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("%s: shutting down\n", cfg.ID)
	return nil
}

func runCall(controlAddr, method, value string) error {
	if controlAddr == "" {
		return errors.New("-call requires -control host:port")
	}
	ep, err := transport.ListenTCP("cli", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = ep.Close() }()
	ep.AddPeer("node", controlAddr)
	reg := rmi.New(ep)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := reg.Call(ctx, "node", "node", method, []byte(value))
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}
