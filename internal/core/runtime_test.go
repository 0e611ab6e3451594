package core_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/coord"
	"b2b/internal/core"
	"b2b/internal/crypto"
	"b2b/internal/lab"
	"b2b/internal/nrlog"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

// newQuotaParticipant is the core_test harness with a quota policy attached.
func newQuotaParticipant(t *testing.T, nw *transport.Network, clk *clock.Sim,
	ca *crypto.CA, tsa *crypto.TSA, id string, certs []crypto.Certificate,
	q core.QuotaPolicy) *core.Participant {
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
		Log:      nrlog.NewMemory(clk),
		Store:    store.NewMemory(),
		Clock:    clk,
		Quotas:   q,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func testWorldDeps(t *testing.T) (*transport.Network, *clock.Sim, *crypto.CA, *crypto.TSA) {
	t.Helper()
	clk := clock.NewSim(time.Unix(0, 0))
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
	return nw, clk, ca, tsa
}

// TestIdleBindingsMemoryBound is the tentpole's memory bar: 10k lazily bound
// objects must cost at most ~1 KiB each (amortized) and zero goroutines —
// the O(active) property.
func TestIdleBindingsMemoryBound(t *testing.T) {
	nw, clk, ca, tsa := testWorldDeps(t)
	p := newQuotaParticipant(t, nw, clk, ca, tsa, "host", nil, core.QuotaPolicy{})

	const n = 10000
	v := lab.AcceptAllValidator()

	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	g0 := runtime.NumGoroutine()

	for i := 0; i < n; i++ {
		if err := p.BindLazy(fmt.Sprintf("tenant-%05d", i), v, nil); err != nil {
			t.Fatal(err)
		}
	}

	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	perObject := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("idle binding cost: %d B/object (%d objects)", perObject, n)
	if perObject > 1024 {
		t.Fatalf("idle binding costs %d B/object, over the 1 KiB bound", perObject)
	}
	if dg := runtime.NumGoroutine() - g0; dg > 2 {
		t.Fatalf("binding 10k idle objects grew goroutines by %d; idle objects must cost none", dg)
	}
	rs := p.RuntimeStats()
	if rs.Bound != n || rs.Materialized != 0 {
		t.Fatalf("RuntimeStats bound=%d materialized=%d, want %d/0", rs.Bound, rs.Materialized, n)
	}
}

// TestLazyBindingMaterializesOnTraffic: inbound traffic for a lazily bound
// object constructs its engines on the spot and routes the message.
func TestLazyBindingMaterializesOnTraffic(t *testing.T) {
	nw, clk, ca, tsa := testWorldDeps(t)
	identA, err := crypto.NewIdentity("a")
	if err != nil {
		t.Fatal(err)
	}
	ca.Issue(identA)
	relA, err := transport.NewReliable(nw.Endpoint("a"), transport.WithRetryInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = relA.Close() })

	p := newQuotaParticipant(t, nw, clk, ca, tsa, "b", []crypto.Certificate{identA.Certificate()}, core.QuotaPolicy{})
	if err := p.BindLazy("sleepy", lab.AcceptAllValidator(), nil); err != nil {
		t.Fatal(err)
	}
	if rs := p.RuntimeStats(); rs.Materialized != 0 {
		t.Fatalf("materialized before any traffic: %+v", rs)
	}

	env := wire.Envelope{
		MsgID:  "m1",
		From:   "a",
		To:     "b",
		Object: "sleepy",
		Kind:   wire.KindPropose,
		// Garbage payload: the engine records malformed-propose evidence and
		// drops it — materialization is what this test watches.
		Payload: []byte("not a signed propose"),
	}
	if err := relA.Send(context.Background(), "b", env.Marshal()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rs := p.RuntimeStats(); rs.Materialized == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("traffic did not materialize the lazy binding")
}

// TestLazyBindingFullProtocolRun: a lazily bound object, once materialized
// through an accessor, runs the ordinary coordination protocol — laziness is
// invisible to peers.
func TestLazyBindingFullProtocolRun(t *testing.T) {
	w, err := lab.NewWorld(lab.Options{Seed: 20}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Bind("eager", func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Bootstrap("eager", []byte("v0"), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// A second object registered with the world but bound lazily at both
	// parties: the Engine accessor (via Party.Engine → Part.Engine)
	// materializes the stubs, after which bootstrap and coordination behave
	// exactly as for the eager binding.
	w.RegisterBinder("lazy", func(string) coord.Validator { return lab.AcceptAllValidator() }, nil)
	for _, id := range []string{"a", "b"} {
		if err := w.BindLazyAt(id, "lazy"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Bootstrap("lazy", []byte("l0"), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, object := range []string{"eager", "lazy"} {
		if _, err := w.Party("a").Engine(object).Propose(ctx, []byte(object+"-v1")); err != nil {
			t.Fatal(err)
		}
		if err := w.WaitAgreed(object, []string{"a", "b"}, []byte(object+"-v1"), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmitRefusesOverResidentPages: admission control returns the typed
// quota error once a group's resident pagestate pages exceed the cap.
func TestAdmitRefusesOverResidentPages(t *testing.T) {
	nw, clk, ca, tsa := testWorldDeps(t)
	p := newQuotaParticipant(t, nw, clk, ca, tsa, "solo", nil, core.QuotaPolicy{MaxResidentPages: 1})
	en, _, err := p.Bind("obj", lab.AcceptAllValidator(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Default 4 KiB pages: 64 KiB of state is 16 resident pages, over the
	// 1-page cap.
	if err := en.Bootstrap(make([]byte, 64<<10), []string{"solo"}); err != nil {
		t.Fatal(err)
	}
	err = p.Admit(context.Background(), "obj")
	if !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("Admit over resident-page cap = %v, want ErrQuotaExceeded", err)
	}
	u, err := p.GroupUsage("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !u.Materialized || u.ResidentPages <= 1 {
		t.Fatalf("GroupUsage = %+v, want materialized with >1 resident pages", u)
	}

	// An unknown object is a distinct, typed condition.
	if err := p.Admit(context.Background(), "ghost"); !errors.Is(err, core.ErrObjectUnknown) {
		t.Fatalf("Admit(ghost) = %v, want ErrObjectUnknown", err)
	}
}

// TestFairnessUnderFlood is the multi-tenant fairness regression: a tenant
// flooding one object with traffic must not starve a sibling object's
// coordination runs on the same endpoint — the quiet tenant's throughput
// degrades by less than 2x. The flood fills only its own object's queues,
// never the shared delivery path.
func TestFairnessUnderFlood(t *testing.T) {
	// Party c is the flooding tenant's traffic source: it shares only b's
	// inbound dispatch with the quiet tenant (a's own outbound link must not
	// carry the flood, or the test would measure transport-level sharing
	// instead of the runtime's scheduling).
	w, err := lab.NewWorld(lab.Options{Seed: 21}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, object := range []string{"quiet", "noisy"} {
		if err := w.Bind(object, func(string) coord.Validator { return lab.AcceptAllValidator() }, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Bootstrap(object, []byte("v0"), []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const runsPerRep = 20
	en := w.Party("a").Engine("quiet")
	seq := 0
	measure := func() time.Duration {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			for i := 0; i < runsPerRep; i++ {
				seq++
				if _, err := en.Propose(ctx, []byte(fmt.Sprintf("v%d", seq))); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	baseline := measure()

	// Flood b's "noisy" object from c at a rate proportional to the machine
	// speed the baseline just measured: one burst per quiet-run duration.
	// A wall-clock-fixed rate would saturate a slower machine (the race
	// detector costs ~10x) and turn the test into a single-core CPU contest
	// rather than a check of the runtime's per-object isolation.
	partB := w.Party("b").Part
	before, err := partB.GroupUsage("noisy")
	if err != nil {
		t.Fatal(err)
	}
	burstEvery := baseline / runsPerRep
	if burstEvery < 100*time.Microsecond {
		burstEvery = 100 * time.Microsecond
	}
	stopFlood := make(chan struct{})
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		sent := 0
		for {
			select {
			case <-stopFlood:
				return
			default:
			}
			for i := 0; i < 16; i++ {
				sent++
				env := wire.Envelope{
					MsgID: fmt.Sprintf("flood-%d", sent), From: "c", To: "b",
					Object: "noisy", Kind: wire.KindPropose,
					Payload: []byte("garbage proposal payload"),
				}
				_ = w.Party("c").Rel.Send(context.Background(), "b", env.Marshal())
			}
			time.Sleep(burstEvery)
		}
	}()

	flooded := measure()
	close(stopFlood)
	<-floodDone

	after, err := partB.GroupUsage("noisy")
	if err != nil {
		t.Fatal(err)
	}
	floodHandled := after.Handled - before.Handled
	t.Logf("quiet tenant: baseline %v, under flood %v (%.2fx) for %d runs; flood messages handled: %d",
		baseline, flooded, float64(flooded)/float64(baseline), runsPerRep, floodHandled)
	if floodHandled < 100 {
		t.Fatalf("flood handled only %d messages; the noisy tenant never got busy", floodHandled)
	}
	if flooded > 2*baseline {
		t.Fatalf("quiet tenant degraded %.2fx under a sibling tenant's flood (bar: <2x): %v -> %v",
			float64(flooded)/float64(baseline), baseline, flooded)
	}
}

// TestQuotaShedIsNotSilent: inbound traffic over MaxPendingBytes is refused
// with evidence and counted — and protocol retry means shedding is only
// backpressure, not message loss, so a later under-quota delivery succeeds.
func TestQuotaShedIsNotSilent(t *testing.T) {
	nw, clk, ca, tsa := testWorldDeps(t)
	identA, err := crypto.NewIdentity("a")
	if err != nil {
		t.Fatal(err)
	}
	ca.Issue(identA)
	relA, err := transport.NewReliable(nw.Endpoint("a"), transport.WithRetryInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = relA.Close() })

	p := newQuotaParticipant(t, nw, clk, ca, tsa, "b", []crypto.Certificate{identA.Certificate()},
		core.QuotaPolicy{MaxPendingBytes: 1})
	if _, _, err := p.Bind("obj", lab.AcceptAllValidator(), nil); err != nil {
		t.Fatal(err)
	}
	env := wire.Envelope{
		MsgID: "m1", From: "a", To: "b", Object: "obj",
		Kind: wire.KindPropose, Payload: []byte("flood"),
	}
	if err := relA.Send(context.Background(), "b", env.Marshal()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		u, err := p.GroupUsage("obj")
		if err != nil {
			t.Fatal(err)
		}
		if u.Shed >= 1 {
			entries, err := p.Log().Entries()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Kind == "quota-shed" && e.Object == "obj" {
					return
				}
			}
			t.Fatal("traffic shed without a quota-shed evidence entry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("over-quota traffic was not shed")
}
