package b2b_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	b2b "b2b"
)

// blobOpts selects how a patchBlob treats the buffers it is handed.
type blobOpts struct {
	inPlace, keep, scribble bool
}

// runOwnedBlobs drives 40 deferred update runs of patchBlob objects (with
// the given options) from party a of a three-party group with a pipeline
// window of 4, every fifth run vetoed, and checks that every evidence log
// verifies and that no two parties are ever seen holding different agreed
// states at one sequence number. Unless the objects scribble, it also
// checks that every party's agreed state and application object equal the
// model (the committed patches applied in order). A scribbling object
// breaks the ApplyUpdate contract, so its own state and the runs that
// commit are its business; agreement must still hold.
func runOwnedBlobs(t *testing.T, opts blobOpts) {
	const (
		size   = 64 << 10
		runs   = 40
		window = 4
	)
	ids := []string{"a", "b", "c"}
	d := newDeployment(t, ids, b2b.WithMode(b2b.DeferredSynchronous))
	offs := make([]int, runs)
	patched := make([]bool, size)
	for i := range offs {
		offs[i] = (i * 4099) % (size - patchBody)
		for j := 0; j < patchBody; j++ {
			patched[offs[i]+j] = true
		}
	}
	objs := make(map[string]*patchBlob)
	ctrls := make(map[string]*b2b.Controller)
	for k, id := range ids {
		at := k * size / len(ids) // each party scribbles on its own byte that no patch covers
		for patched[at] {
			at++
		}
		objs[id] = &patchBlob{blobOpts: opts, scribbleAt: at, state: seededState(size)}
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
	seen := watchAgreed(t, ctrls)

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
		o := op{off: offs[i], veto: i%5 == 3}
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
	if committed == 0 && !opts.scribble {
		t.Fatal("no run committed")
	}
	for _, id := range ids {
		if err := ctrls[id].Settle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	seen()
	for _, id := range ids {
		if got, want := ctrls[id].AgreedSeq(), ctrls["a"].AgreedSeq(); got != want {
			t.Errorf("%s: agreed seq %d, a has %d", id, got, want)
		}
		if !bytes.Equal(ctrls[id].AgreedState(), ctrls["a"].AgreedState()) {
			t.Errorf("%s: agreed state differs from a's", id)
		}
		if err := d.parts[id].Log().Verify(); err != nil {
			t.Errorf("%s: evidence log: %v", id, err)
		}
		if opts.scribble {
			continue
		}
		if !bytes.Equal(ctrls[id].AgreedState(), model) {
			t.Errorf("%s: agreed state differs from the model (%d of %d runs committed)", id, committed, runs)
		}
		if state, _ := objs[id].GetState(); !bytes.Equal(state, model) {
			t.Errorf("%s: application object differs from the model", id)
		}
	}
}

// watchAgreed samples every controller's agreed sequence number and state
// until the returned function is called, which then fails the test if two
// parties were seen holding different states at one sequence number. A
// sample counts only when the sequence number read before and after the
// state is the same: the state published between the two reads is that
// sequence number's.
func watchAgreed(t *testing.T, ctrls map[string]*b2b.Controller) (check func()) {
	t.Helper()
	type sample struct {
		party  string
		digest [32]byte
	}
	var (
		mu    sync.Mutex
		first = make(map[uint64]sample)
		bad   []string
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id, ctrl := range ctrls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := ctrl.AgreedSeq()
				state := ctrl.AgreedState()
				if ctrl.AgreedSeq() == seq {
					s := sample{id, sha256.Sum256(state)}
					mu.Lock()
					if f, ok := first[seq]; !ok {
						first[seq] = s
					} else if f.digest != s.digest {
						bad = append(bad, fmt.Sprintf("seq %d: %s and %s hold different states", seq, f.party, id))
					}
					mu.Unlock()
				}
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
		}()
	}
	return func() {
		close(stop)
		wg.Wait()
		t.Logf("agreed states sampled at %d sequence numbers", len(first))
		for _, b := range bad {
			t.Error(b)
		}
	}
}

// TestInPlaceApplyUpdateConverges: an ApplyUpdate that patches the current
// buffer it is given and returns it converges every party on the model —
// the buffer is the application's for the call, whatever the middleware
// does with it before or after.
func TestInPlaceApplyUpdateConverges(t *testing.T) {
	runOwnedBlobs(t, blobOpts{inPlace: true})
}

// TestApplyStateBufferBelongsToApplication: an application that keeps the
// ApplyState slice as its state and patches it in place for its next run
// never disturbs the middleware's replica, although that slice may be the
// very buffer its own ApplyUpdate returned.
func TestApplyStateBufferBelongsToApplication(t *testing.T) {
	runOwnedBlobs(t, blobOpts{keep: true})
}

// TestScribbledApplyUpdateNeverDiverges: an ApplyUpdate that returns a
// patched copy and then writes into the current it was given — the buffer
// the middleware reuses to materialise later states — hands its own party
// wrong bases later. The engine's check that an applied update yields the
// proposed root turns each into a veto: no two parties ever agree on
// different states at one sequence number, and every evidence log
// verifies.
func TestScribbledApplyUpdateNeverDiverges(t *testing.T) {
	runOwnedBlobs(t, blobOpts{scribble: true})
}
