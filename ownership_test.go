package b2b_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	b2b "b2b"
)

// runOwnedBlobs drives 40 deferred update runs of patchBlob objects (with
// the given inPlace and keep) from party a of a three-party group with a
// pipeline window of 4, every fifth run vetoed, and checks that every
// party's agreed state and application object equal the model (the
// committed patches applied in order) and that every evidence log verifies.
func runOwnedBlobs(t *testing.T, inPlace, keep bool) {
	const (
		size   = 64 << 10
		runs   = 40
		window = 4
	)
	ids := []string{"a", "b", "c"}
	d := newDeployment(t, ids, b2b.WithMode(b2b.DeferredSynchronous))
	objs := make(map[string]*patchBlob)
	ctrls := make(map[string]*b2b.Controller)
	for _, id := range ids {
		objs[id] = &patchBlob{inPlace: inPlace, keep: keep, state: seededState(size)}
		ctrl, err := d.parts[id].Bind("blob", objs[id], nil)
		if err != nil {
			t.Fatal(err)
		}
		ctrls[id] = ctrl
	}
	for _, id := range ids {
		if err := ctrls[id].Bootstrap(ids); err != nil {
			t.Fatal(err)
		}
	}
	ctrls["a"].SetPipelineWindow(window)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	type op struct {
		off  int
		body []byte
		veto bool
	}
	model := seededState(size)
	committed := 0
	var pend []op
	collect := func() {
		o, err := pend[0], ctrls["a"].CoordCommit(ctx)
		pend = pend[1:]
		if o.veto && err == nil {
			t.Fatalf("vetoed patch at %d committed", o.off)
		}
		if err == nil {
			copy(model[o.off:], o.body)
			committed++
		}
	}
	for i := 0; i < runs; i++ {
		o := op{off: (i * 4099) % (size - patchBody), veto: i%5 == 3}
		o.body = []byte(fmt.Sprintf("ok-%061d", i))
		if o.veto {
			o.body[0] = 'V'
		}
		ctrls["a"].Enter()
		ctrls["a"].Update()
		objs["a"].Patch(o.off, o.body)
		if err := ctrls["a"].Leave(); err != nil {
			t.Fatalf("run %d: Leave: %v", i, err)
		}
		if pend = append(pend, o); len(pend) == window {
			collect()
		}
	}
	for len(pend) > 0 {
		collect()
	}
	t.Logf("%d of %d runs committed, agreed seq %d", committed, runs, ctrls["a"].AgreedSeq())
	if committed == 0 {
		t.Fatal("no run committed")
	}
	for _, id := range ids {
		if err := ctrls[id].Settle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if got, want := ctrls[id].AgreedSeq(), ctrls["a"].AgreedSeq(); got != want {
			t.Errorf("%s: agreed seq %d, a has %d", id, got, want)
		}
		if !bytes.Equal(ctrls[id].AgreedState(), model) {
			t.Errorf("%s: agreed state differs from the model (%d of %d runs committed)", id, committed, runs)
		}
		if state, _ := objs[id].GetState(); !bytes.Equal(state, model) {
			t.Errorf("%s: application object differs from the model", id)
		}
		if err := d.parts[id].Log().Verify(); err != nil {
			t.Errorf("%s: evidence log: %v", id, err)
		}
	}
}

// TestInPlaceApplyUpdateConverges: an ApplyUpdate that patches the current
// buffer it is given and returns it converges every party on the model —
// the buffer is the application's for the call, whatever the middleware
// does with it before or after.
func TestInPlaceApplyUpdateConverges(t *testing.T) {
	runOwnedBlobs(t, true, false)
}

// TestApplyStateBufferBelongsToApplication: an application that keeps the
// ApplyState slice as its state and patches it in place for its next run
// never disturbs the middleware's replica, although that slice may be the
// very buffer its own ApplyUpdate returned.
func TestApplyStateBufferBelongsToApplication(t *testing.T) {
	runOwnedBlobs(t, false, true)
}
