package lab

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"b2b/internal/coord"
	"b2b/internal/pagestate"
)

// newPatchWorld builds the large-object patch workload: a two-party world
// ("org00" proposes, "org01" receives) bound to one PatchValidator object of
// size bytes, bootstrapped and ready to drive. The caller closes it.
func newPatchWorld(opts Options, object string, size int) (*World, error) {
	w, err := NewWorld(opts, "org00", "org01")
	if err != nil {
		return nil, err
	}
	if err := w.Bind(object, func(string) coord.Validator { return PatchValidator() }, nil); err != nil {
		w.Close()
		return nil, err
	}
	base := make([]byte, size)
	for i := range base {
		base[i] = byte(i * 31)
	}
	if err := w.Bootstrap(object, base, []string{"org00", "org01"}); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// drivePatchRuns streams rounds pipelined update-mode runs of 64-byte
// patches (offset stride 64, wrapping) against object from org00 at the
// given pipeline window, awaits every outcome in order, and waits for org01
// to install the last commit.
func drivePatchRuns(ctx context.Context, w *World, object string, size, rounds, window int) error {
	en := w.Party("org00").Engine(object)
	en.SetWindow(window)
	var handles []*coord.RunHandle
	collect := func() error {
		h := handles[0]
		handles = handles[1:]
		_, err := h.Await(ctx)
		return err
	}
	for i := 0; i < rounds; i++ {
		upd := Patch((i*64)%(size-64), []byte(fmt.Sprintf("upd-%08d-%048d", i, i)))
		for {
			h, err := en.ProposeUpdateAsync(ctx, upd)
			if errors.Is(err, coord.ErrRunInFlight) && len(handles) > 0 {
				if err := collect(); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return err
			}
			handles = append(handles, h)
			break
		}
	}
	for len(handles) > 0 {
		if err := collect(); err != nil {
			return err
		}
	}
	return w.Party("org01").Engine(object).WaitQuiescent(ctx)
}

// TestPagedIdentityIsODelta is the paged Merkle state identity's bar: a
// 64-byte update costs O(delta) bytes hashed and copied, whatever the object
// size. The flat baseline is the same workload with one page spanning the
// whole object, so every run rehashes and recopies everything. The bars are
// on bytes, summed over both members (the pagestate counters are
// process-global), not on wall time.
func TestPagedIdentityIsODelta(t *testing.T) {
	const rounds = 12
	type cost struct{ hashed, copied float64 }
	measure := func(t *testing.T, size, pageSize int) cost {
		// SnapshotEvery 256 keeps the periodic full-snapshot materialization
		// (O(S) by design) out of the per-run numbers.
		w, err := newPatchWorld(Options{Seed: 19, PageSize: pageSize, SnapshotEvery: 256}, "obj", size)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		pagestate.ResetStats()
		if err := drivePatchRuns(ctx, w, "obj", size, rounds, 4); err != nil {
			t.Fatal(err)
		}
		hashed, copied := pagestate.Stats()
		return cost{float64(hashed) / rounds, float64(copied) / rounds}
	}
	paged1 := measure(t, 1<<20, 0)
	paged16 := measure(t, 16<<20, 0)
	flat1 := measure(t, 1<<20, 1<<20)
	flat16 := measure(t, 16<<20, 16<<20)
	t.Logf("hashed B/run: paged %.0f -> %.0f, flat %.0f -> %.0f (1 -> 16 MiB)", paged1.hashed, paged16.hashed, flat1.hashed, flat16.hashed)
	t.Logf("copied B/run: paged %.0f -> %.0f, flat %.0f -> %.0f (1 -> 16 MiB)", paged1.copied, paged16.copied, flat1.copied, flat16.copied)

	if r := flat16.hashed / paged16.hashed; r < 10 {
		t.Errorf("at 16 MiB flat/paged hashed bytes per run = %.1fx, want >= 10x", r)
	}
	if r := flat16.copied / paged16.copied; r < 10 {
		t.Errorf("at 16 MiB flat/paged copied bytes per run = %.1fx, want >= 10x", r)
	}
	if g := paged16.hashed / paged1.hashed; g > 2 {
		t.Errorf("paged hashed bytes per run grew %.2fx from 1 to 16 MiB, want <= 2x", g)
	}
	if g := flat16.hashed / flat1.hashed; g < 4 {
		t.Errorf("flat hashed bytes per run grew only %.2fx from 1 to 16 MiB, want >= 4x: baseline not object-bound", g)
	}
}
