package coord

// Property test for the delta-checkpoint chain: for random update
// sequences, random SnapshotEvery cadences and random compaction points,
// folding the persisted chain back through Restore must reproduce — byte
// for byte — both the live replica's agreed state and the independently
// computed expected state. This is the invariant the state-transfer plane
// leans on: a delta suffix served from the chain is exactly what recovery
// would replay.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/crypto"
	"b2b/internal/nrlog"
	"b2b/internal/store"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

func TestRestoreFoldsDeltaChainProperty(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRestoreProperty(t, seed)
		})
	}
}

func runRestoreProperty(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	snapshotEvery := 1 + rng.IntN(8)
	runs := 5 + rng.IntN(25)

	clk := clock.Wall{}
	ca, err := crypto.NewCA("ca", clk, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tsa, err := crypto.NewTSA("tsa", clk)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(seed)
	defer net.Close()

	ids := []string{"alice", "bob"}
	idents := make(map[string]*crypto.Identity)
	for _, id := range ids {
		ident, err := crypto.NewIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		ca.Issue(ident)
		idents[id] = ident
	}
	verifier := func() *crypto.Verifier {
		v := crypto.NewVerifier(ca, tsa)
		for _, id := range ids {
			if err := v.AddCertificate(idents[id].Certificate()); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}

	dir := t.TempDir()
	openAliceStore := func() (*store.Plane, *store.Segmented) {
		pl, err := store.OpenPlane(filepath.Join(dir, "alice"), store.Policy{
			SegmentSize: 8 << 10, SnapshotEvery: snapshotEvery,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		seg := store.NewSegmented(pl)
		if err := pl.Start(); err != nil {
			t.Fatal(err)
		}
		return pl, seg
	}

	mkEngine := func(id string, st store.Store) (*Engine, *appValidator) {
		rel, err := transport.NewReliable(net.Endpoint(id), transport.WithRetryInterval(5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		val := &appValidator{}
		en, err := New(Config{
			Ident: idents[id], Object: "obj", Verifier: verifier(), TSA: tsa,
			Conn: rel, Log: nrlog.NewMemory(clk), Store: st, Clock: clk,
			Validator: val, RetryInterval: 20 * time.Millisecond,
			SnapshotEvery: snapshotEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		rel.SetHandler(func(from string, payload []byte) {
			if env, err := wire.UnmarshalEnvelope(payload); err == nil {
				en.HandleEnvelope(from, env)
			}
		})
		return en, val
	}

	plane, seg := openAliceStore()
	alice, _ := mkEngine("alice", seg)
	bob, _ := mkEngine("bob", store.NewMemory())

	initial := []byte(fmt.Sprintf("base-%d:", seed))
	for _, en := range []*Engine{alice, bob} {
		if err := en.Bootstrap(initial, ids); err != nil {
			t.Fatal(err)
		}
	}

	// Random mixed sequence: mostly update-mode runs (delta checkpoints at
	// alice), the occasional overwrite (forces a full snapshot into the
	// chain), with compaction fired at random points.
	expected := append([]byte(nil), initial...)
	ctx, cancel := ctxTO(60 * time.Second)
	defer cancel()
	for i := 0; i < runs; i++ {
		if rng.Float64() < 0.15 {
			next := append(append([]byte(nil), expected...), []byte(fmt.Sprintf("|ow%d", i))...)
			if _, err := alice.Propose(ctx, next); err != nil {
				t.Fatalf("run %d (overwrite): %v", i, err)
			}
			expected = next
		} else {
			u := []byte(fmt.Sprintf("+u%d.%d", seed, i))
			if _, err := alice.ProposeUpdate(ctx, u); err != nil {
				t.Fatalf("run %d (update): %v", i, err)
			}
			expected = append(expected, u...)
		}
		if rng.Float64() < 0.2 {
			if err := plane.Compact(); err != nil {
				t.Fatalf("compact after run %d: %v", i, err)
			}
		}
	}

	// Live replica state.
	_, live := alice.Agreed()
	if !bytes.Equal(live, expected) {
		t.Fatalf("live agreed state diverged from the model:\n live=%q\nwant=%q", live, expected)
	}

	// Crash alice; fold the chain back through Restore on a fresh plane.
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	plane2, seg2 := openAliceStore()
	defer func() { _ = plane2.Close() }()
	restored, err := New(Config{
		Ident: idents["alice"], Object: "obj", Verifier: verifier(), TSA: tsa,
		Conn: noopConn{}, Log: nrlog.NewMemory(clk), Store: seg2, Clock: clk,
		Validator: &appValidator{}, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(); err != nil {
		t.Fatalf("restore (SnapshotEvery=%d, runs=%d): %v", snapshotEvery, runs, err)
	}
	rt, rs := restored.Agreed()
	if !bytes.Equal(rs, expected) {
		t.Fatalf("restored state != full-snapshot model (SnapshotEvery=%d, runs=%d):\n got=%q\nwant=%q",
			snapshotEvery, runs, rs, expected)
	}
	if lt, _ := alice.Agreed(); lt != rt {
		t.Fatalf("restored tuple %v != live tuple %v", rt, lt)
	}
	// The chain itself is well-formed: one full snapshot, then deltas.
	chain, err := seg2.Chain("obj")
	if err != nil || len(chain) == 0 {
		t.Fatalf("chain: %v (%d entries)", err, len(chain))
	}
	if chain[0].Delta {
		t.Fatal("chain does not start at a full snapshot")
	}
	for i, cp := range chain[1:] {
		if !cp.Delta {
			t.Fatalf("full snapshot mid-chain at %d", i+1)
		}
		if cp.Pred != chain[i].Tuple {
			t.Fatalf("delta %d does not chain from its predecessor", i+1)
		}
	}
}

// noopConn satisfies Conn for an engine that only restores.
type noopConn struct{}

func (noopConn) ID() string { return "restored" }

func (noopConn) Send(context.Context, string, []byte) error { return nil }
