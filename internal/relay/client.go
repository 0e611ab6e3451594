package relay

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/metrics"
	"b2b/internal/wire"
)

// Errors of the relay client.
var (
	// ErrNoRelay: the endpoint has no relay configured — park requests
	// fall through to shed-with-evidence.
	ErrNoRelay = errors.New("relay: no relay configured")
)

// pollTimeout bounds one poll round before the client re-polls (the
// reliable layer retries the frames themselves; this covers a relay that
// restarted between our poll and its reply).
const pollTimeout = 2 * time.Second

// ClientConfig assembles a member's relay client.
type ClientConfig struct {
	// Ident signs polls and prekey publications.
	Ident *crypto.Identity
	// TSA stamps them.
	TSA wire.Stamper
	// Conn is the RAW endpoint connection — never the spill-wrapped one
	// the protocol engines use, or parking would recurse into itself.
	Conn Conn
	// Relay is the relay host's member id ("" disables the client).
	Relay string
	// Keys are this member's sealing keys; Dir is its prekey directory.
	Keys *SealKeys
	Dir  *Directory
	// Inject delivers one unsealed, still-marshalled envelope into the
	// hosting runtime's normal inbound dispatch — drained traffic is
	// verified by exactly the handlers that verify live traffic.
	Inject func(from string, envelope []byte)
	// Clock times drains and poll re-sends (nil: wall clock).
	Clock clock.Clock
	// Metrics, when set, receives the client's counters under "relay.*".
	Metrics *metrics.Registry
}

// Client is the member side of the relay plane: it parks outbound traffic
// for offline peers (Deposit), drains its own mailbox on reconnect
// (Drain), and publishes its sealing prekeys (PublishPrekey / Rotate).
type Client struct {
	cfg ClientConfig

	mu      sync.Mutex
	acked   uint64 // highest mailbox sequence drained and acknowledged
	pending chan wire.RelayBatch

	parked       *metrics.Counter
	parkedBytes  *metrics.Counter
	drainedMsgs  *metrics.Counter
	drainSkipped *metrics.Counter
	drainLatency *metrics.Gauge
}

// NewClient builds a client. cfg.Keys and cfg.Dir are required; cfg.Relay
// may be empty (Deposit then fails with ErrNoRelay, Drain is a no-op).
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Ident == nil || cfg.Keys == nil || cfg.Dir == nil || cfg.Conn == nil {
		return nil, fmt.Errorf("relay: client requires ident, keys, directory and conn")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	c := &Client{cfg: cfg}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c.parked = reg.Counter("relay.parked")
	c.parkedBytes = reg.Counter("relay.parked_bytes")
	c.drainedMsgs = reg.Counter("relay.drain_msgs")
	c.drainSkipped = reg.Counter("relay.drain_skipped")
	c.drainLatency = reg.Gauge("relay.drain_latency_us")
	reg.SetFunc("relay.prekey_epoch", func() int64 { return int64(cfg.Keys.Epoch()) })
	return c, nil
}

// Relay returns the configured relay host id.
func (c *Client) Relay() string { return c.cfg.Relay }

// Directory returns the client's prekey directory (the group plane hands
// it to Welcome construction/adoption).
func (c *Client) Directory() *Directory { return c.cfg.Dir }

// sendEnvelope wraps payload in a fresh relay-plane envelope (no object:
// the relay plane is object-agnostic) and transmits it.
func sendEnvelope(ctx context.Context, conn Conn, to string, kind wire.Kind, payload []byte) error {
	n, err := crypto.Nonce()
	if err != nil {
		return err
	}
	env := wire.Envelope{
		MsgID:   hex.EncodeToString(n[:12]),
		From:    conn.ID(),
		To:      to,
		Kind:    kind,
		Payload: payload,
	}
	return conn.Send(ctx, to, env.Marshal())
}

// Deposit seals one outbound envelope to the recipient's freshest prekey
// and parks it at the relay. The envelope is already end-to-end signed by
// the protocol layer that produced it; sealing only hides it from the
// relay. Fails with ErrNoRelay / ErrNoPrekey when parking is impossible —
// the caller sheds with evidence instead.
func (c *Client) Deposit(ctx context.Context, to string, envelope []byte) error {
	if c.cfg.Relay == "" {
		return ErrNoRelay
	}
	epoch, pub, ok := c.cfg.Dir.Lookup(to)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoPrekey, to)
	}
	sealed, err := Seal(pub, envelope)
	if err != nil {
		return err
	}
	dep := wire.RelayDeposit{Recipient: to, Epoch: epoch, Sealed: sealed}
	if err := sendEnvelope(ctx, c.cfg.Conn, c.cfg.Relay, wire.KindRelayDeposit, dep.Marshal()); err != nil {
		return err
	}
	c.parked.Inc()
	c.parkedBytes.Add(uint64(len(envelope)))
	return nil
}

// Drain empties this member's mailbox: signed polls page the mailbox down
// (each poll cumulatively acknowledges everything already delivered),
// every entry is unsealed and re-injected into the runtime's inbound
// dispatch, and the loop ends when the relay reports an empty mailbox —
// that final empty round doubles as the acknowledgement of the last page.
// Returns the number of envelopes delivered. Entries that fail to unseal
// (sealed under a discarded epoch, or corrupted by the relay) are counted,
// skipped and still acknowledged: state-transfer catch-up covers whatever
// they carried.
func (c *Client) Drain(ctx context.Context) (int, error) {
	if c.cfg.Relay == "" {
		return 0, nil
	}
	start := c.cfg.Clock.Now()
	delivered := 0
	for {
		batch, err := c.pollOnce(ctx)
		if err != nil {
			return delivered, err
		}
		for _, en := range batch.Entries {
			c.mu.Lock()
			if en.Seq > c.acked {
				c.acked = en.Seq
			}
			c.mu.Unlock()
			plain, err := c.cfg.Keys.Open(en.Epoch, en.Sealed)
			if err != nil {
				c.drainSkipped.Inc()
				continue
			}
			env, err := wire.UnmarshalEnvelope(plain)
			if err != nil || env.To != c.cfg.Ident.ID() {
				c.drainSkipped.Inc()
				continue
			}
			if c.cfg.Inject != nil {
				c.cfg.Inject(env.From, plain)
			}
			delivered++
			c.drainedMsgs.Inc()
		}
		if len(batch.Entries) == 0 && batch.Remaining == 0 {
			c.drainLatency.Set(c.cfg.Clock.Now().Sub(start).Microseconds())
			return delivered, nil
		}
	}
}

// pollOnce sends one signed poll and waits for its batch, re-polling on a
// timer until the context expires (the relay may have restarted and lost
// the in-flight reply; polls are idempotent — the ack bound is cumulative).
func (c *Client) pollOnce(ctx context.Context) (wire.RelayBatch, error) {
	ch := make(chan wire.RelayBatch, 1)
	c.mu.Lock()
	c.pending = ch
	acked := c.acked
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.pending == ch {
			c.pending = nil
		}
		c.mu.Unlock()
	}()

	poll := wire.RelayPoll{Recipient: c.cfg.Ident.ID(), AckThrough: acked, Max: wire.MaxRelayBatchEntries}
	signed := wire.Sign(wire.KindRelayPoll, poll.Marshal(), c.cfg.Ident, c.cfg.TSA)
	resend := c.cfg.Clock.NewTicker(pollTimeout)
	defer resend.Stop()
	for {
		if err := sendEnvelope(ctx, c.cfg.Conn, c.cfg.Relay, wire.KindRelayPoll, signed.Marshal()); err != nil {
			return wire.RelayBatch{}, err
		}
		select {
		case b := <-ch:
			return b, nil
		case <-ctx.Done():
			return wire.RelayBatch{}, ctx.Err()
		case <-resend.C:
		}
	}
}

// PublishPrekey signs the current epoch's prekey and sends it once to each
// of the given peers and the relay host; the publication is also learned
// into the local directory so sponsors forward it inside Welcomes.
func (c *Client) PublishPrekey(ctx context.Context, peers []string) error {
	epoch, pub := c.cfg.Keys.Public()
	pk := wire.RelayPrekey{Member: c.cfg.Ident.ID(), Epoch: epoch, Pub: pub}
	raw := wire.Sign(wire.KindRelayPrekey, pk.Marshal(), c.cfg.Ident, c.cfg.TSA).Marshal()
	if _, err := c.cfg.Dir.Learn(raw); err != nil {
		return err
	}
	targets := append([]string(nil), peers...)
	if c.cfg.Relay != "" {
		targets = append(targets, c.cfg.Relay)
	}
	sent := map[string]bool{c.cfg.Ident.ID(): true}
	var errs []error
	for _, to := range targets {
		if sent[to] {
			continue
		}
		sent[to] = true
		if err := sendEnvelope(ctx, c.cfg.Conn, to, wire.KindRelayPrekey, raw); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Rotate advances the sealing epoch and publishes the new prekey. Deposits
// sealed under epochs older than the new previous epoch become unreadable
// to everyone, including this member — forward secrecy for the relay hop.
func (c *Client) Rotate(ctx context.Context, peers []string) error {
	if _, _, err := c.cfg.Keys.Rotate(); err != nil {
		return err
	}
	return c.PublishPrekey(ctx, peers)
}

// HandleEnvelope routes one relay-kind envelope to the client. The hosting
// runtime calls it for KindRelayBatch and KindRelayPrekey traffic.
func (c *Client) HandleEnvelope(from string, env wire.Envelope) {
	switch env.Kind {
	case wire.KindRelayBatch:
		batch, err := wire.UnmarshalRelayBatch(env.Payload)
		if err != nil || batch.Recipient != c.cfg.Ident.ID() {
			return
		}
		c.mu.Lock()
		ch := c.pending
		c.pending = nil
		c.mu.Unlock()
		if ch != nil {
			ch <- batch
		}
	case wire.KindRelayPrekey:
		// Learn verifies the signed publication; a stale epoch is a no-op.
		_, _ = c.cfg.Dir.Learn(env.Payload)
	}
}
