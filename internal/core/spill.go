package core

// Relay-plane integration: the participant routes relay-kind envelopes to a
// pluggable handler (the relay client and/or server hosted next to it — see
// the top-level participant wiring) and spills outbound traffic for
// unreachable peers to a relay deposit function instead of letting the
// transport outbox grow without bound.

import (
	"bytes"
	"context"

	"b2b/internal/nrlog"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

// DepositFn parks one marshalled, end-to-end signed protocol envelope at a
// relay on behalf of an unreachable peer. It fails (typed errors from
// internal/relay) when no relay is configured or no sealing prekey is known
// for the recipient — the spill path then sheds with evidence instead.
type DepositFn func(ctx context.Context, to string, envelope []byte) error

// SetRelayHandler installs the sink for relay-kind envelopes
// (deposit/poll/batch/prekey). They are connection-scoped, not
// object-scoped — Object is empty — so they bypass binding dispatch
// entirely; without a handler they are dropped with evidence.
func (p *Participant) SetRelayHandler(fn func(from string, env wire.Envelope)) {
	p.mu.Lock()
	p.relayFn = fn
	p.mu.Unlock()
}

// SetRelayDeposit installs the spill target for outbound traffic to peers
// whose transport backlog crossed QuotaPolicy.MaxPendingToPeer.
func (p *Participant) SetRelayDeposit(fn DepositFn) {
	p.mu.Lock()
	p.deposit = fn
	p.mu.Unlock()
}

// relayKind reports whether k belongs to the connection-scoped relay plane.
func relayKind(k wire.Kind) bool {
	switch k {
	case wire.KindRelayDeposit, wire.KindRelayPoll, wire.KindRelayBatch, wire.KindRelayPrekey:
		return true
	}
	return false
}

// handleRelay forwards one relay-kind envelope to the installed handler.
func (p *Participant) handleRelay(from string, env wire.Envelope, payload []byte) {
	p.mu.Lock()
	fn := p.relayFn
	p.mu.Unlock()
	if fn == nil {
		_, _ = p.cfg.Log.Append("", "", "relay-unbound", p.cfg.Ident.ID(), nrlog.DirReceived, payload)
		return
	}
	fn(from, env)
}

// spillConn wraps the participant's connection on the OUTBOUND side: when a
// peer's transport backlog (un-acked frames queued for retransmission)
// crosses QuotaPolicy.MaxPendingToPeer, further sends to that peer are
// parked at the relay — the peer drains them on reconnect — or, with no
// relay reachable, shed with a "pending-shed" evidence entry. Either way the
// bounded outbox stays bounded and the protocol's own retries (plus
// state-transfer catch-up) restore liveness, exactly as inbound quota
// shedding relies on them. The relay client itself uses the UNWRAPPED
// connection, so a deposit can never recurse into another deposit.
type spillConn struct {
	Conn
	p *Participant
}

func (c *spillConn) Send(ctx context.Context, to string, payload []byte) error {
	if !c.over(to) {
		return c.Conn.Send(ctx, to, payload)
	}
	return c.spill(ctx, to, payload)
}

// SendFrame implements transport.FrameSender: within the bound the
// segments pass through as they are; a spilled payload is joined first.
func (c *spillConn) SendFrame(ctx context.Context, to string, frame [][]byte) error {
	if !c.over(to) {
		return transport.SendFrame(ctx, c.Conn, to, frame)
	}
	return c.spill(ctx, to, bytes.Join(frame, nil))
}

// over reports whether the peer's transport backlog has reached the
// per-peer bound.
func (c *spillConn) over(to string) bool {
	max := c.p.cfg.Quotas.MaxPendingToPeer
	if max <= 0 {
		return false
	}
	pp, ok := c.Conn.(pendingPeers)
	return ok && pp.PendingTo(to) >= max
}

// spill parks payload at the relay, or sheds it.
func (c *spillConn) spill(ctx context.Context, to string, payload []byte) error {
	p := c.p
	// Over the per-peer bound: the peer is unreachable or badly behind.
	// Evidence names the object so the shed is attributable per tenant.
	object := ""
	if env, err := wire.UnmarshalEnvelope(payload); err == nil {
		object = env.Object
	}
	p.mu.Lock()
	dep := p.deposit
	p.mu.Unlock()
	if dep != nil {
		if err := dep(ctx, to, payload); err == nil {
			_, _ = p.cfg.Log.Append("", object, "relay-park", to, nrlog.DirSent, nil)
			return nil
		}
	}
	_, _ = p.cfg.Log.Append("", object, "pending-shed", to, nrlog.DirSent, nil)
	return nil
}
