// Package ttp implements the certified-termination service sketched in the
// paper's §7: a trusted third party that certifies the abort of a blocked
// run, or a decision derived from a complete response set, so that all
// honest parties terminate with the same view. RequestAbort is the
// party-side request. The Fig 6 trusted agent (indirect interaction with
// conditional state disclosure) is application code over the public API:
// see examples/tictactoe-ttp.
package ttp

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

// Errors returned by the terminator.
var (
	ErrNoEvidence   = errors.New("ttp: abort request carries no verifiable evidence")
	ErrUnknownGroup = errors.New("ttp: object has no registered membership")
)

// Terminator is the §7 termination TTP. Parties whose run is blocked submit
// an AbortRequest with the signed evidence they hold; the terminator
// answers with a signed AbortCert — certified abort if the response set is
// incomplete, or a certified decision when the evidence contains every
// response. The answer for a given run is fixed forever, so every honest
// party that asks terminates with the same view.
type Terminator struct {
	ident    *crypto.Identity
	tsa      wire.Stamper
	verifier *crypto.Verifier
	clk      clock.Clock
	log      nrlog.Log

	mu       sync.Mutex
	groups   map[string][]string // object -> membership
	resolved map[string]wire.Signed
}

// NewTerminator creates a termination TTP. Its identity's certificate must
// be registered with every party that will honour its certificates.
func NewTerminator(ident *crypto.Identity, tsa wire.Stamper, verifier *crypto.Verifier, clk clock.Clock, log nrlog.Log) *Terminator {
	return &Terminator{
		ident:    ident,
		tsa:      tsa,
		verifier: verifier,
		clk:      clk,
		log:      log,
		groups:   make(map[string][]string),
		resolved: make(map[string]wire.Signed),
	}
}

// RegisterGroup tells the terminator the membership for an object, enabling
// completeness checks on submitted evidence.
func (t *Terminator) RegisterGroup(object string, members []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.groups[object] = append([]string(nil), members...)
}

// Resolve processes an abort request and returns the signed certificate.
func (t *Terminator) Resolve(req wire.AbortRequest) (wire.Signed, error) {
	t.mu.Lock()
	if cert, done := t.resolved[req.RunID]; done {
		t.mu.Unlock()
		return cert, nil // certified answers never change
	}
	members := t.groups[req.Object]
	t.mu.Unlock()
	if members == nil {
		return wire.Signed{}, fmt.Errorf("%w: %s", ErrUnknownGroup, req.Object)
	}

	// Verify the evidence: we need at least the signed proposal.
	var prop *wire.Propose
	responds := make(map[string]wire.Respond)
	for _, ev := range req.Evidence {
		if err := ev.Verify(t.verifier); err != nil {
			continue // unverifiable evidence is ignored, not fatal
		}
		switch ev.Kind {
		case wire.KindPropose:
			if p, err := wire.UnmarshalPropose(ev.Body); err == nil && p.RunID == req.RunID {
				prop = &p
			}
		case wire.KindRespond:
			if r, err := wire.UnmarshalRespond(ev.Body); err == nil && r.RunID == req.RunID {
				responds[r.Responder] = r
			}
		}
	}
	if prop == nil {
		return wire.Signed{}, ErrNoEvidence
	}

	// Complete response set => certified decision; otherwise certified abort.
	complete := true
	unanimous := true
	for _, m := range members {
		if m == prop.Proposer {
			continue
		}
		r, ok := responds[m]
		if !ok {
			complete = false
			break
		}
		if !r.Decision.Accept {
			unanimous = false
		}
	}

	cert := wire.AbortCert{
		RunID:  req.RunID,
		Object: req.Object,
		TTP:    t.ident.ID(),
	}
	if complete {
		cert.Aborted = false
		if unanimous {
			cert.Decision = wire.Accepted
		} else {
			cert.Decision = wire.Rejected("certified decision: vetoed")
		}
	} else {
		cert.Aborted = true
		cert.Decision = wire.Rejected("certified abort: incomplete response set at deadline")
	}
	signed := wire.Sign(wire.KindAbortCert, cert.Marshal(), t.ident, t.tsa)

	t.mu.Lock()
	t.resolved[req.RunID] = signed
	t.mu.Unlock()
	if t.log != nil {
		_, _ = t.log.Append(req.RunID, req.Object, wire.KindAbortCert.String(), t.ident.ID(), nrlog.DirLocal, signed.Marshal())
	}
	return signed, nil
}

// Serve wires the terminator to a connection: inbound AbortRequests are
// resolved and the certificate is returned to the requester and broadcast to
// the registered group.
func (t *Terminator) Serve(conn coord.Conn, setHandler func(transport.Handler)) {
	setHandler(func(from string, payload []byte) {
		env, err := wire.UnmarshalEnvelope(payload)
		if err != nil || env.Kind != wire.KindAbortRequest {
			return
		}
		signedReq, err := wire.UnmarshalSigned(env.Payload)
		if err != nil {
			return
		}
		if err := signedReq.Verify(t.verifier); err != nil {
			return
		}
		req, err := wire.UnmarshalAbortRequest(signedReq.Body)
		if err != nil || req.Requester != signedReq.Signer() {
			return
		}
		cert, err := t.Resolve(req)
		if err != nil {
			return
		}
		t.mu.Lock()
		members := append([]string(nil), t.groups[req.Object]...)
		t.mu.Unlock()
		targets := members
		if !contains(targets, req.Requester) {
			targets = append(targets, req.Requester)
		}
		for _, m := range targets {
			n, err := crypto.Nonce()
			if err != nil {
				return
			}
			out := wire.Envelope{
				MsgID:   hex.EncodeToString(n[:12]),
				From:    t.ident.ID(),
				To:      m,
				Object:  req.Object,
				Kind:    wire.KindAbortCert,
				Payload: cert.Marshal(),
			}
			_ = conn.Send(context.Background(), m, out.Marshal())
		}
	})
}

// RequestAbort is the party-side helper: bundle held evidence for a blocked
// run and send it to the terminator.
func RequestAbort(ctx context.Context, conn coord.Conn, ident *crypto.Identity, tsa wire.Stamper,
	terminator, object, runID string, evidence []wire.Signed) error {
	req := wire.AbortRequest{
		RunID:     runID,
		Object:    object,
		Requester: ident.ID(),
		Evidence:  evidence,
	}
	signed := wire.Sign(wire.KindAbortRequest, req.Marshal(), ident, tsa)
	n, err := crypto.Nonce()
	if err != nil {
		return err
	}
	env := wire.Envelope{
		MsgID:   hex.EncodeToString(n[:12]),
		From:    ident.ID(),
		To:      terminator,
		Object:  object,
		Kind:    wire.KindAbortRequest,
		Payload: signed.Marshal(),
	}
	return conn.Send(ctx, terminator, env.Marshal())
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
