package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	b2b "b2b"
)

// workload fixes one fixture and one traffic shape. The table below is the
// benchmark's definition: it is identical on every commit, and the middleware
// never sees a workload's name or the seed, only the inputs generated from
// them.
type workload struct {
	name string
	why  string

	parties   int
	window    int      // W: runs the driver keeps in flight (closed loop)
	mode      b2b.Mode // Synchronous at W=1, DeferredSynchronous above
	update    bool     // Update (the 64 B patch travels) vs Overwrite (the whole state travels)
	stateLen  int
	vetoEvery int           // every k-th proposal is one the recipients must veto (0: never)
	delay     time.Duration // fixed one-way delay on every memory-network link
	batch     bool          // BatchedDelivery(1ms, 0) on every endpoint
	tcp       bool          // assembled as cmd/b2bnode does: loopback TCP, file journal, file storage
	think     time.Duration // the driver's pause after each outcome
}

const patchLen = 64

var workloads = []workload{
	{
		name:    "lan3-small-w1",
		why:     "3 parties, no delay, no I/O, 256 B overwrite, 1 veto in 50: pure processor time of crypto, canon/wire, coord, core and the Controller",
		parties: 3, window: 1, mode: b2b.Synchronous, stateLen: 256, vetoEvery: 50,
	},
	{
		name:    "wan3-patch-w4",
		why:     "3 parties 5 ms apart, batched delivery, W=4 deferred 64 B updates on 64 KiB: latency is round trips x delay; CPU gains may move only cpu_ms_per_run",
		parties: 3, window: 4, mode: b2b.DeferredSynchronous, update: true, stateLen: 64 << 10,
		delay: 5 * time.Millisecond, batch: true,
	},
	{
		name:    "tcp3-durable-w8",
		why:     "3 parties assembled as b2bnode: loopback TCP, journalled reliable outbox, file storage with real fsync, W=8 updates on 1 MiB: store, journal and transport do the work",
		parties: 3, window: 8, mode: b2b.DeferredSynchronous, update: true, stateLen: 1 << 20, tcp: true,
	},
	{
		name:    "big16m-patch-w1",
		why:     "2 parties, no delay, 64 B updates at seeded offsets on 16 MiB: pagestate delta path and the flat/paged adaptation at the public API dominate",
		parties: 2, window: 1, mode: b2b.Synchronous, update: true, stateLen: 16 << 20,
	},
	{
		name:    "big1m-overwrite-w1",
		why:     "2 parties, no delay, each run changes 64 B and overwrites the whole 1 MiB, 100 ms think time: full rehash, 1 MiB frames and whole-state copies, the largest message",
		parties: 2, window: 1, mode: b2b.Synchronous, stateLen: 1 << 20,
		// Memory storage keeps about six copies of every overwritten state
		// for good. Back to back that is 240 MiB/s, and past 3 GiB this VM
		// hands out fresh memory ten times slower, so the window would
		// measure the host. The pause keeps the process near 1 GiB.
		think: 100 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) members() []string {
	ids := make([]string, w.parties)
	for i := range ids {
		ids[i] = fmt.Sprintf("org%02d", i)
	}
	return ids
}

// op is one generated state change: a 64 B patch at an offset. A veto op
// raises the policy flag (byte 0 of the state), which every recipient's
// validation rejects; valid ops never touch the first 64 bytes.
type op struct {
	off  int
	body [patchLen]byte
	veto bool
}

// encode is the update-mode wire form: 8-byte big-endian offset, then the body.
func (o op) encode() []byte {
	buf := make([]byte, 8+patchLen)
	binary.BigEndian.PutUint64(buf, uint64(o.off))
	copy(buf[8:], o.body[:])
	return buf
}

func decodeOp(update []byte, stateLen int) (op, error) {
	if len(update) != 8+patchLen {
		return op{}, fmt.Errorf("patch is %d bytes, want %d", len(update), 8+patchLen)
	}
	var o op
	off := binary.BigEndian.Uint64(update)
	if off > uint64(stateLen-patchLen) {
		return op{}, fmt.Errorf("patch offset %d outside %d-byte state", off, stateLen)
	}
	o.off = int(off)
	copy(o.body[:], update[8:])
	return o, nil
}

func (o op) applyTo(state []byte) { copy(state[o.off:], o.body[:]) }

// generator turns the seed into the initial state and the op sequence.
type generator struct {
	rng *rand.Rand
	w   *workload
	n   int
}

func newGenerator(seed uint64, w *workload) *generator {
	return &generator{rng: rand.New(rand.NewPCG(seed, 0x62326262656e6368)), w: w}
}

func (g *generator) initialState() []byte {
	state := make([]byte, g.w.stateLen)
	for i := 0; i+8 <= len(state); i += 8 {
		binary.LittleEndian.PutUint64(state[i:], g.rng.Uint64())
	}
	state[0] = 0 // policy flag clear
	return state
}

func (g *generator) next() op {
	g.n++
	var o op
	for i := 0; i < patchLen; i += 8 {
		binary.LittleEndian.PutUint64(o.body[i:], g.rng.Uint64())
	}
	if g.w.vetoEvery > 0 && g.n%g.w.vetoEvery == 0 {
		o.veto = true
		o.body[0] = 1
		return o // off 0: raises the flag
	}
	o.off = patchLen + g.rng.IntN(g.w.stateLen-2*patchLen+1)
	return o
}

var errPolicy = errors.New("policy flag set")

// blobObject is the application: an opaque byte state whose first byte is a
// policy flag that must stay clear. It is a plain b2b.Object (Overwrite only).
type blobObject struct {
	mu    sync.Mutex
	state []byte
}

func (o *blobObject) GetState() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]byte(nil), o.state...), nil
}

func (o *blobObject) ApplyState(state []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.state = append(o.state[:0], state...)
	return nil
}

func (o *blobObject) ValidateState(_ string, state []byte) error {
	if len(state) == 0 || state[0] != 0 {
		return errPolicy
	}
	return nil
}

func (o *blobObject) ValidateConnect(string) error          { return nil }
func (o *blobObject) ValidateDisconnect(string, bool) error { return nil }

// patch is the application's local write inside an Enter/Leave scope.
func (o *blobObject) patch(p op) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p.applyTo(o.state)
}

// patchObject adds delta coordination: the last local patch is the update.
type patchObject struct {
	blobObject
	pending []byte
}

func (o *patchObject) patch(p op) {
	o.blobObject.patch(p)
	o.mu.Lock()
	o.pending = p.encode()
	o.mu.Unlock()
}

func (o *patchObject) GetUpdate() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pending == nil {
		return nil, errors.New("no pending patch")
	}
	u := o.pending
	o.pending = nil
	return u, nil
}

func (o *patchObject) ApplyUpdate(current, update []byte) ([]byte, error) {
	p, err := decodeOp(update, len(current))
	if err != nil {
		return nil, err
	}
	next := append([]byte(nil), current...)
	p.applyTo(next)
	return next, nil
}

func (o *patchObject) ValidateUpdate(_ string, current, update []byte) error {
	p, err := decodeOp(update, len(current))
	if err != nil {
		return err
	}
	if p.off == 0 && p.body[0] != 0 {
		return errPolicy
	}
	return nil
}

// appObject is what the driver needs from either object type.
type appObject interface {
	b2b.Object
	patch(op)
}

func newAppObject(w *workload, initial []byte) appObject {
	state := append([]byte(nil), initial...)
	if w.update {
		o := &patchObject{}
		o.state = state
		return o
	}
	return &blobObject{state: state}
}
