package b2b_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	b2b "b2b"
	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/pagestate"
)

// ledger is an UpdatableObject: an append-only list of postings where the
// update (one posting) travels instead of the whole ledger (§4.3.1).
type ledger struct {
	mu       sync.Mutex
	Postings []string `json:"postings"`
	pending  string
}

func (l *ledger) Post(entry string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Postings = append(l.Postings, entry)
	l.pending = entry
}

func (l *ledger) GetState() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return json.Marshal(struct {
		Postings []string `json:"postings"`
	}{l.Postings})
}

func (l *ledger) ApplyState(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s struct {
		Postings []string `json:"postings"`
	}
	if err := json.Unmarshal(state, &s); err != nil {
		return err
	}
	l.Postings = s.Postings
	return nil
}

func (l *ledger) ValidateState(string, []byte) error { return nil }

func (l *ledger) ValidateConnect(string) error { return nil }

func (l *ledger) ValidateDisconnect(string, bool) error { return nil }

func (l *ledger) GetUpdate() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending == "" {
		return nil, errors.New("no pending posting")
	}
	u := l.pending
	l.pending = ""
	return []byte(u), nil
}

func (l *ledger) ApplyUpdate(current, update []byte) ([]byte, error) {
	var s struct {
		Postings []string `json:"postings"`
	}
	if err := json.Unmarshal(current, &s); err != nil {
		return nil, err
	}
	s.Postings = append(s.Postings, string(update))
	return json.Marshal(s)
}

func (l *ledger) ValidateUpdate(_ string, _ []byte, update []byte) error {
	if strings.Contains(string(update), "forbidden") {
		return fmt.Errorf("posting not allowed: %s", update)
	}
	return nil
}

func TestPublicAPIUpdateMode(t *testing.T) {
	clk, td, net, idents, certs := updateFixture(t, []string{"a", "b"})
	ledgers := make(map[string]*ledger)
	ctrls := make(map[string]*b2b.Controller)
	for _, id := range []string{"a", "b"} {
		conn, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b2b.NewParticipant(idents[id], td, conn,
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		led := &ledger{}
		ctrl, err := p.Bind("ledger", led, nil)
		if err != nil {
			t.Fatal(err)
		}
		ledgers[id] = led
		ctrls[id] = ctrl
	}
	for _, id := range []string{"a", "b"} {
		if err := ctrls[id].Bootstrap([]string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}

	// A posts an entry via update coordination.
	ctrls["a"].Enter()
	ctrls["a"].Update()
	ledgers["a"].Post("debit 100")
	if err := ctrls["a"].Leave(); err != nil {
		t.Fatalf("update Leave: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ledgers["b"].mu.Lock()
		n := len(ledgers["b"].Postings)
		ledgers["b"].mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ledgers["b"].mu.Lock()
	got := append([]string(nil), ledgers["b"].Postings...)
	ledgers["b"].mu.Unlock()
	if len(got) != 1 || got[0] != "debit 100" {
		t.Fatalf("b's ledger = %v", got)
	}

	// A forbidden posting is vetoed and rolled back.
	if err := ctrls["a"].Settle(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctrls["a"].Enter()
	ctrls["a"].Update()
	ledgers["a"].Post("forbidden transfer")
	err := ctrls["a"].Leave()
	if !errors.Is(err, b2b.ErrVetoed) {
		t.Fatalf("err = %v", err)
	}
	ledgers["a"].mu.Lock()
	n := len(ledgers["a"].Postings)
	ledgers["a"].mu.Unlock()
	if n != 1 {
		t.Fatalf("a's ledger after rollback has %d postings", n)
	}
}

func TestPublicAPIUpdateOnNonUpdatable(t *testing.T) {
	d := newDeployment(t, []string{"a", "b"})
	ctrl := d.ctrls["a"]
	ctrl.Enter()
	ctrl.Update()
	d.docs["a"].Set("k", "v")
	if err := ctrl.Leave(); !errors.Is(err, b2b.ErrNotUpdatable) {
		t.Fatalf("err = %v, want ErrNotUpdatable", err)
	}
}

// patchBlob is a plain flat UpdatableObject over opaque bytes: its update
// is a 64 B patch, an 8-byte big-endian offset followed by the bytes to
// write there. It knows nothing of pages. A patch whose body starts with
// 'V' is vetoed by every recipient. With inPlace its ApplyUpdate patches
// current and returns it; with keep its ApplyState keeps the slice it is
// given as its state, which the next local Patch then writes into; with
// scribble its ApplyUpdate returns a patched copy and then, against the
// UpdatableObject contract, bumps current[scribbleAt].
type patchBlob struct {
	blobOpts
	scribbleAt int

	mu      sync.Mutex
	state   []byte
	pending []byte
}

const patchBody = 64

func (o *patchBlob) Patch(off int, body []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	copy(o.state[off:], body)
	o.pending = binary.BigEndian.AppendUint64(nil, uint64(off))
	o.pending = append(o.pending, body...)
}

func (o *patchBlob) GetState() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]byte(nil), o.state...), nil
}

func (o *patchBlob) ApplyState(state []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.keep {
		o.state = state
	} else {
		o.state = append(o.state[:0], state...)
	}
	return nil
}

func (o *patchBlob) ValidateState(string, []byte) error    { return nil }
func (o *patchBlob) ValidateConnect(string) error          { return nil }
func (o *patchBlob) ValidateDisconnect(string, bool) error { return nil }

func (o *patchBlob) GetUpdate() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pending == nil {
		return nil, errors.New("no pending patch")
	}
	u := o.pending
	o.pending = nil
	return u, nil
}

func decodePatch(current, update []byte) (int, []byte, error) {
	if len(update) != 8+patchBody {
		return 0, nil, fmt.Errorf("patch is %d bytes", len(update))
	}
	off := binary.BigEndian.Uint64(update)
	if off > uint64(len(current)-patchBody) {
		return 0, nil, fmt.Errorf("patch offset %d outside %d-byte state", off, len(current))
	}
	return int(off), update[8:], nil
}

func (o *patchBlob) ApplyUpdate(current, update []byte) ([]byte, error) {
	off, body, err := decodePatch(current, update)
	if err != nil {
		return nil, err
	}
	next := current
	if !o.inPlace {
		next = append([]byte(nil), current...)
	}
	copy(next[off:], body)
	if o.scribble {
		current[o.scribbleAt]++
	}
	return next, nil
}

func (o *patchBlob) ValidateUpdate(_ string, current, update []byte) error {
	_, body, err := decodePatch(current, update)
	if err != nil {
		return err
	}
	if body[0] == 'V' {
		return errors.New("vetoed patch")
	}
	return nil
}

// flatUpdatePair binds a patchBlob of size bytes at two members and returns
// run, which makes 64 B update i from "a" and settles both members, and
// agreedAt, which checks both members agree at seq want.
func flatUpdatePair(t *testing.T, size int) (run func(i int), agreedAt func(want uint64)) {
	ids := []string{"a", "b"}
	objs := make(map[string]*patchBlob)
	ctrls := boundPair(t, ids, func(id string) b2b.Object {
		objs[id] = &patchBlob{state: seededState(size)}
		return objs[id]
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	run = func(i int) {
		ctrls["a"].Enter()
		ctrls["a"].Update()
		objs["a"].Patch((i*40961)%(size-patchBody), []byte(fmt.Sprintf("patch-%058d", i)))
		if err := ctrls["a"].Leave(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for _, id := range ids {
			if err := ctrls[id].Settle(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	agreedAt = func(want uint64) {
		if got := ctrls["b"].AgreedSeq(); got != ctrls["a"].AgreedSeq() || got != want {
			t.Fatalf("b agreed seq %d, a %d, want %d", got, ctrls["a"].AgreedSeq(), want)
		}
	}
	return run, agreedAt
}

// TestFlatUpdateHashesODelta is the update path's bar at the public API: a
// flat UpdatableObject that knows nothing of pages still pays O(delta)
// hashing per 64 B update, because the engine rebases each flat ApplyUpdate
// result onto its base's pages instead of re-paging it. It also copies
// O(delta): after a first run, each member materialises the flat state its
// application is shown by patching the buffer its previous ApplyUpdate call
// left dead, and each member's install hands the application the buffer
// its own ApplyUpdate returned. The bars are on the pagestate counters,
// summed over both members (they are process-global), after one warm-up run.
func TestFlatUpdateHashesODelta(t *testing.T) {
	const runs = 12
	measure := func(size int) (hashed, copied float64) {
		t.Run(fmt.Sprintf("%dMiB", size>>20), func(t *testing.T) {
			run, agreedAt := flatUpdatePair(t, size)
			run(0) // the first run materialises each member's state in full
			pagestate.ResetStats()
			for i := 1; i <= runs; i++ {
				run(i)
			}
			h, c := pagestate.Stats()
			hashed, copied = float64(h)/runs, float64(c)/runs
			agreedAt(runs + 1)
		})
		return hashed, copied
	}
	hashed1, copied1 := measure(1 << 20)
	hashed16, copied16 := measure(16 << 20)
	t.Logf("hashed B/run %.0f -> %.0f, copied B/run %.0f -> %.0f (1 -> 16 MiB); at 16 MiB copied %.3f x S per run",
		hashed1, hashed16, copied1, copied16, copied16/(16<<20))
	if copied16 > 0.1*(16<<20) {
		t.Errorf("at 16 MiB a 64 B update copied %.3f x S per run, want <= 0.1 x S", copied16/(16<<20))
	}
	if hashed16 > 64<<10 {
		t.Errorf("at 16 MiB a 64 B update hashed %.0f B/run, want <= 64 KiB", hashed16)
	}
	if g := hashed16 / hashed1; g > 2 {
		t.Errorf("hashed bytes per run grew %.2fx from 1 to 16 MiB, want <= 2x", g)
	}
}

// TestFlatUpdateAllocs is the update path's allocation bar at the public
// API: every byte the process allocates while two members agree on 64 B
// updates of a 16 MiB flat UpdatableObject, divided by the run count. What
// is left is the application's own copy in each member's ApplyUpdate: 2 × S.
// The middleware materialises each state it shows the application into the
// buffer the previous run's ApplyUpdate left dead. The counter is
// process-global, so the test does not run in parallel.
func TestFlatUpdateAllocs(t *testing.T) {
	const (
		runs = 12
		size = 16 << 20
	)
	run, agreedAt := flatUpdatePair(t, size)
	run(0) // warm the pools and the engines' first-run paths
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("per run: allocated %.0f B (%.2f x S)", perRun, perRun/size)
	agreedAt(runs + 1)
	if perRun > 2.5*size {
		t.Errorf("a 64 B update on 16 MiB allocated %.2f x S per run, want <= 2.5 x S", perRun/size)
	}
}

// flatBlob is a plain Object (no update support) holding opaque bytes.
type flatBlob struct {
	mu    sync.Mutex
	state []byte
}

func (o *flatBlob) Flip(i int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.state[i] ^= 0xff
}

func (o *flatBlob) GetState() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]byte(nil), o.state...), nil
}

func (o *flatBlob) ApplyState(state []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.state = append(o.state[:0], state...)
	return nil
}

func (o *flatBlob) ValidateState(string, []byte) error    { return nil }
func (o *flatBlob) ValidateConnect(string) error          { return nil }
func (o *flatBlob) ValidateDisconnect(string, bool) error { return nil }

// flatOverwritePair binds a flatBlob of size bytes at two members and returns
// run, which makes overwrite i from "a" (flipping one byte) and settles
// both members, and agreedAt, which checks both members agree at seq want.
func flatOverwritePair(t *testing.T, size int) (run func(i int), agreedAt func(want uint64)) {
	ids := []string{"a", "b"}
	objs := make(map[string]*flatBlob)
	ctrls := boundPair(t, ids, func(id string) b2b.Object {
		objs[id] = &flatBlob{state: seededState(size)}
		return objs[id]
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	run = func(i int) {
		ctrls["a"].Enter()
		ctrls["a"].Overwrite()
		objs["a"].Flip((i * 40961) % size)
		if err := ctrls["a"].Leave(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for _, id := range ids {
			if err := ctrls[id].Settle(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	agreedAt = func(want uint64) {
		if got := ctrls["b"].AgreedSeq(); got != ctrls["a"].AgreedSeq() || got != want {
			t.Fatalf("b agreed seq %d, a %d, want %d", got, ctrls["a"].AgreedSeq(), want)
		}
	}
	return run, agreedAt
}

// TestFlatOverwriteCopies is the overwrite path's copy bar at the public
// API: each run overwrites a 1 MiB plain Object, changing one byte. The
// engine copies changed pages only; the adapter materialises a flat state
// only for an application call that takes one — the install upcall at each
// member — and each member's snapshot checkpoint keeps the state inside the
// signed proposal its evidence log already holds. Validating an overwrite
// reads no base state. The bar is on the process-global pagestate copy
// counter, summed over both members: 2 × S plus changed pages.
func TestFlatOverwriteCopies(t *testing.T) {
	const (
		runs = 12
		size = 1 << 20
	)
	run, agreedAt := flatOverwritePair(t, size)
	pagestate.ResetStats()
	for i := 0; i < runs; i++ {
		run(i)
	}
	h, c := pagestate.Stats()
	hashed, copied := float64(h)/runs, float64(c)/runs
	t.Logf("per run: copied %.0f B (%.2f x S), hashed %.0f B", copied, copied/size, hashed)
	agreedAt(runs)
	if copied > 2.5*size {
		t.Errorf("a 1 MiB overwrite copied %.2f x S per run, want <= 2.5 x S", copied/size)
	}
}

// TestFlatOverwriteHashes is the overwrite path's hashing bar at the public
// API: every byte SHA-256 digests while two members agree on 1 MiB
// overwrites, divided by the run count. The state is hashed once per
// member: the proposer's signature over the propose body, and the
// recipient's verification of it. The evidence log binds each entry that
// carries the state by that same digest, and the recipient roots the
// received state by rebasing it onto its base, rehashing changed pages
// only. The counter is process-global, so the test does not run in
// parallel.
func TestFlatOverwriteHashes(t *testing.T) {
	const (
		runs = 12
		size = 1 << 20
	)
	run, agreedAt := flatOverwritePair(t, size)
	run(0) // the engines' first-run paths
	crypto.ResetStats()
	for i := 1; i <= runs; i++ {
		run(i)
	}
	perRun := float64(crypto.Stats()) / runs
	t.Logf("per run: hashed %.0f B (%.2f x S)", perRun, perRun/size)
	agreedAt(runs + 1)
	if perRun > 2.2*size {
		t.Errorf("a 1 MiB overwrite hashed %.2f x S per run, want <= 2.2 x S", perRun/size)
	}
}

// TestFlatOverwriteAllocs is the overwrite path's allocation bar at the
// public API: every byte the process allocates while two members agree on
// 1 MiB overwrites, divided by the run count. A run's buffers are the
// application's GetState copy, the signed propose and the commit the
// proposer writes, the network's copy of each (the frames the recipient
// receives), and each member's install copy: 7 × S. The codec, the
// transport, the evidence log and the snapshot checkpoints add no copy of
// their own. The counter is process-global, so the test does not run in
// parallel.
func TestFlatOverwriteAllocs(t *testing.T) {
	const (
		runs = 12
		size = 1 << 20
	)
	run, agreedAt := flatOverwritePair(t, size)
	run(0) // warm the pools and the engines' first-run paths
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("per run: allocated %.0f B (%.2f x S)", perRun, perRun/size)
	agreedAt(runs + 1)
	if perRun > 8*size {
		t.Errorf("a 1 MiB overwrite allocated %.2f x S per run, want <= 8 x S", perRun/size)
	}
}

// keptState is a plain Object whose ValidateState keeps every slice it is
// shown, with a copy taken at the time — against the Object contract, to
// watch the bytes: the proposed state a recipient validates aliases the
// received message and its evidence.
type keptState struct {
	flatBlob
	seen, copies [][]byte
}

func (o *keptState) ValidateState(_ string, state []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seen = append(o.seen, state)
	o.copies = append(o.copies, bytes.Clone(state))
	return nil
}

// TestReceivedStateIsNotRewritten guards the aliasing contract of the
// receive path: decoding copies nothing, so the state ValidateState is
// shown is the received frame itself, and nothing — a recycled receive
// buffer, an owner writing what it was handed — may change those bytes
// while later 1 MiB overwrites flow through the same party. Both evidence
// logs must still verify.
func TestReceivedStateIsNotRewritten(t *testing.T) {
	const (
		runs = 8
		size = 1 << 20
	)
	ids := []string{"a", "b"}
	objs := make(map[string]*keptState)
	ctrls, parts := bindGroup(t, ids, func(id string) b2b.Object {
		objs[id] = &keptState{flatBlob: flatBlob{state: seededState(size)}}
		return objs[id]
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < runs; i++ {
		ctrls["a"].Enter()
		ctrls["a"].Overwrite()
		objs["a"].Flip((i * 40961) % size)
		if err := ctrls["a"].Leave(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for _, id := range ids {
		if err := ctrls[id].Settle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	b := objs["b"]
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.seen) != runs {
		t.Fatalf("b validated %d states, want %d", len(b.seen), runs)
	}
	for i := range b.seen {
		if !bytes.Equal(b.seen[i], b.copies[i]) {
			t.Errorf("the state b validated in run %d changed afterwards", i)
		}
	}
	for _, id := range ids {
		if err := parts[id].Log().Verify(); err != nil {
			t.Errorf("%s: evidence log: %v", id, err)
		}
	}
}

// seededState returns size deterministic bytes.
func seededState(size int) []byte {
	state := make([]byte, size)
	for i := range state {
		state[i] = byte(i * 31)
	}
	return state
}

// boundPair binds one object per id on its own participant over a shared
// in-memory network and bootstraps the group; it returns the controllers.
func boundPair(t *testing.T, ids []string, mk func(id string) b2b.Object) map[string]*b2b.Controller {
	t.Helper()
	ctrls, _ := bindGroup(t, ids, mk)
	return ctrls
}

// bindGroup is boundPair returning the participants too.
func bindGroup(t *testing.T, ids []string, mk func(id string) b2b.Object) (map[string]*b2b.Controller, map[string]*b2b.Participant) {
	t.Helper()
	clk, td, net, idents, certs := updateFixture(t, ids)
	ctrls := make(map[string]*b2b.Controller)
	parts := make(map[string]*b2b.Participant)
	for _, id := range ids {
		conn, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b2b.NewParticipant(idents[id], td, conn,
			b2b.WithClock(clk),
			b2b.WithPeerCertificates(certs...),
			b2b.WithOperationTimeout(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		parts[id] = p
		if ctrls[id], err = p.Bind("blob", mk(id), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if err := ctrls[id].Bootstrap(ids); err != nil {
			t.Fatal(err)
		}
	}
	return ctrls, parts
}

func updateFixture(t *testing.T, ids []string) (clock.Clock, *b2b.TrustDomain, *b2b.MemoryNetwork, map[string]*crypto.Identity, []crypto.Certificate) {
	t.Helper()
	clk := clock.Wall{}
	td, err := b2b.NewTrustDomain(clk)
	if err != nil {
		t.Fatal(err)
	}
	net := b2b.NewMemoryNetwork(9)
	t.Cleanup(net.Close)
	idents := make(map[string]*crypto.Identity)
	var certs []crypto.Certificate
	for _, id := range ids {
		ident, err := td.Issue(id)
		if err != nil {
			t.Fatal(err)
		}
		idents[id] = ident
		certs = append(certs, ident.Certificate())
	}
	return clk, td, net, idents, certs
}
