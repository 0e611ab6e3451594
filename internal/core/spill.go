package core

// Relay-plane integration: the participant routes relay-kind envelopes to
// the relay client and server New built next to it, and spills outbound
// traffic for unreachable peers to the client's Deposit instead of letting
// the transport outbox grow without bound.

import (
	"bytes"
	"context"

	"b2b/internal/nrlog"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

// relayKind reports whether k belongs to the connection-scoped relay plane.
func relayKind(k wire.Kind) bool {
	switch k {
	case wire.KindRelayDeposit, wire.KindRelayPoll, wire.KindRelayBatch, wire.KindRelayPrekey:
		return true
	}
	return false
}

// handleRelay routes one relay-kind envelope: deposits and polls to the
// hosted mailbox service, batches and prekey publications to the member's
// client. Relay traffic is connection-scoped, not object-scoped — Object is
// empty — so it bypasses binding dispatch entirely. A party with no relay
// role drops it with evidence; one with a role silently drops the kinds it
// has no sink for (a host that is no member still receives every member's
// prekey publication).
func (p *Participant) handleRelay(from string, env wire.Envelope, payload []byte) {
	switch {
	case p.relayCl == nil && p.relaySrv == nil:
		_, _ = p.log.Append("", "", "relay-unbound", p.cfg.Ident.ID(), nrlog.DirReceived, payload)
	case env.Kind == wire.KindRelayDeposit || env.Kind == wire.KindRelayPoll:
		if p.relaySrv != nil {
			p.relaySrv.HandleEnvelope(from, env)
		}
	case p.relayCl != nil:
		p.relayCl.HandleEnvelope(from, env)
	}
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

// The engines' transport.SendFrame asserts FrameSender on this wrapper; a
// wrapper without SendFrame would make them join every large payload.
var _ transport.FrameSender = (*spillConn)(nil)

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
	if p.relayCl != nil {
		if err := p.relayCl.Deposit(ctx, to, payload); err == nil {
			_, _ = p.log.Append("", object, "relay-park", to, nrlog.DirSent, nil)
			return nil
		}
	}
	_, _ = p.log.Append("", object, "pending-shed", to, nrlog.DirSent, nil)
	return nil
}
