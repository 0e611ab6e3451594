package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"b2b/internal/canon"
	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/pagestate"
	"b2b/internal/store"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// Layer probes call one layer directly, after the window, at the sizes the
// workload uses. A probe's cost times the layer's operations per run bounds
// what a faster layer can save on the blocking path.

// probe reports the median time of one call of f in microseconds: at least
// five calls, then as many as fit in 50 ms. It stops at f's first error.
func probe(f func() error) (float64, error) {
	if err := f(); err != nil { // first call pays lazy set-up
		return 0, err
	}
	var xs []float64
	for begin := time.Now(); len(xs) < 5 || (time.Since(begin) < 50*time.Millisecond && len(xs) < 5000); {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, us(time.Since(t0)))
	}
	return median(xs), nil
}

// storeRecordLen is the probe's run-record size: a signed update-mode propose
// with its envelope is a little under 1 KiB.
const storeRecordLen = 1 << 10

func runProbes(w *workload, initial []byte, dir string) (map[string]float64, error) {
	// The closed fixtures' garbage would otherwise be collected on the
	// probes' time.
	runtime.GC()
	out := make(map[string]float64)
	run := func(name string, f func() error) error {
		v, err := probe(f)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		out[name] = v
		return nil
	}
	clk := clock.Wall{}
	ca, err := crypto.NewCA("probe-ca", clk, time.Hour)
	if err != nil {
		return nil, err
	}
	tsa, err := crypto.NewTSA("probe-tsa", clk)
	if err != nil {
		return nil, err
	}
	ident, err := crypto.NewIdentity("org00")
	if err != nil {
		return nil, err
	}
	ca.Issue(ident)
	vfr := crypto.NewVerifier(ca, tsa)
	if err := vfr.AddCertificate(ident.Certificate()); err != nil {
		return nil, err
	}

	// The workload's propose: the whole state in overwrite mode, the patch
	// in update mode.
	members := w.members()
	nonce, err := crypto.Nonce()
	if err != nil {
		return nil, err
	}
	agreed := tuple.NewStateRoot(1, nonce, pagestate.Root(initial[:patchLen], pagestate.DefaultPageSize))
	prop := wire.Propose{
		RunID: "org00-0123456789abcdef", Proposer: "org00", Object: objectName,
		Group: tuple.InitialGroup(members), Agreed: agreed, Pred: agreed, Proposed: agreed,
		Mode: wire.ModeOverwrite, NewState: initial,
	}
	if w.update {
		prop.Mode, prop.NewState = wire.ModeUpdate, nil
		prop.Update = op{off: patchLen}.encode()
		prop.UpdateHash = crypto.Hash(prop.Update)
	}
	body := prop.Marshal()

	var signed wire.Signed
	if err := run("crypto.sign_us", func() error {
		sig := ident.Sign(body)
		signed = wire.Signed{Kind: wire.KindPropose, Body: body, Sig: sig, TS: tsa.Stamp(crypto.Hash(body, sig.Sig))}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := run("crypto.verify_us", func() error {
		if err := vfr.VerifySignature(body, signed.Sig, signed.TS.Time); err != nil {
			return err
		}
		return vfr.VerifyTimestamp(signed.TS, crypto.Hash(body, signed.Sig.Sig))
	}); err != nil {
		return nil, err
	}

	if err := run("canon.marshal_us", func() error {
		_ = canon.Marshal(func(e *canon.Encoder) { e.Struct("probe"); e.Bytes(body) })
		return nil
	}); err != nil {
		return nil, err
	}
	if err := run("wire.codec_us", func() error {
		env := wire.Envelope{MsgID: "0123456789abcdef01234567", From: "org00", To: "org01",
			Object: objectName, Kind: wire.KindPropose, Payload: signed.Marshal()}
		got, err := wire.UnmarshalEnvelope(env.Marshal())
		if err != nil {
			return err
		}
		//b2b:unverified codec probe: times decoding of a message signed a few lines above; verification has its own probe
		s, err := wire.UnmarshalSigned(got.Payload)
		if err != nil {
			return err
		}
		_, err = wire.UnmarshalPropose(s.Body)
		return err
	}); err != nil {
		return nil, err
	}

	var paged *pagestate.Paged
	if err := run("pagestate.build_us", func() error {
		paged = pagestate.FromBytes(initial, pagestate.DefaultPageSize)
		return nil
	}); err != nil {
		return nil, err
	}
	patch := make([]byte, patchLen)
	if err := run("pagestate.apply_us", func() error {
		next := paged.Clone()
		if err := next.WriteAt(len(initial)/2, patch); err != nil {
			return err
		}
		_ = next.Root()
		return nil
	}); err != nil {
		return nil, err
	}

	record := make([]byte, storeRecordLen)
	mem := nrlog.NewMemory(clk)
	if err := run("nrlog.append_us", func() error {
		_, err := mem.Append(prop.RunID, objectName, "propose", "org01", nrlog.DirSent, record)
		return err
	}); err != nil {
		return nil, err
	}

	// How late a 1 ms timer fires in this otherwise idle process. Every
	// injected delay, batching window and fsync wait of a run pays it, and on
	// a VM it drifts with the host's idle policy: two reports whose values
	// differ are not comparable on the delay-bound workloads.
	if err := run("proc.timer_late_us", func() error { time.Sleep(time.Millisecond); return nil }); err != nil {
		return nil, err
	}
	out["proc.timer_late_us"] -= 1000

	// One record appended and made durable: what each protocol step of a
	// file-backed party waits for, here without anything to share the fsync.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	plane, err := store.OpenPlane(dir, store.Policy{}, nil)
	if err != nil {
		return nil, err
	}
	if err := plane.Start(); err != nil {
		return nil, err
	}
	err = run("store.append_sync_us", func() error { return plane.Append(store.RecRunSave, record) })
	if cerr := plane.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
