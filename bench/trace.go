package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	b2b "b2b"
	"b2b/internal/canon"
	"b2b/internal/core"
	"b2b/internal/transport"
	"b2b/internal/wire"
)

// The traced run records events only from this package's interposers: a
// core.Conn wrapper above the reliable layer, a transport.Endpoint wrapper
// below it (TCP) and a b2b.Object wrapper around the application object.
// Nothing inside the middleware is edited. Events stay in memory; analysis
// and the span file happen after the window.

type evKind uint8

const (
	evSend evKind = iota
	evRecv
	evUpStart
	evUpEnd
)

type event struct {
	at   time.Duration // since tracer start
	kind evKind
	msg  wire.Kind // send, recv
	run  string    // send, recv: run id decoded from the envelope
	peer string    // send: to; recv: from
	size int       // send, recv: envelope bytes
	up   string    // upcall name
}

type partyLog struct {
	base   time.Time
	mu     sync.Mutex
	events []event
}

func (l *partyLog) add(e event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// root is the driver's span of one run: Leave to outcome.
type root struct{ start, end time.Duration }

type tracer struct {
	base  time.Time
	logs  map[string]*partyLog
	roots []root // driver goroutine only

	// Datagrams and bytes handed to the TCP endpoints, below Reliable.
	dgrams, wireBytes atomic.Uint64
}

func newTracer(ids []string) *tracer {
	t := &tracer{base: time.Now(), logs: make(map[string]*partyLog)}
	for _, id := range ids {
		t.logs[id] = &partyLog{base: t.base}
	}
	return t
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.base)
}

func (t *tracer) begin() int {
	if t == nil {
		return -1
	}
	t.roots = append(t.roots, root{start: t.now()})
	return len(t.roots) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.roots[i].end = t.now()
	}
}

// peek decodes what the trace needs from an envelope: its kind and, for the
// three coordination messages, the run id.
func peek(payload []byte) (wire.Kind, string) {
	env, err := wire.UnmarshalEnvelope(payload)
	if err != nil {
		return wire.KindInvalid, ""
	}
	d := canon.NewDecoder(env.Payload)
	switch env.Kind {
	case wire.KindPropose, wire.KindRespond:
		d.Struct("signed")
		d.Uint8()
		d = canon.NewDecoder(d.Bytes())
		d.Struct(env.Kind.String())
	case wire.KindCommit:
		d.Struct("commit")
	default:
		return env.Kind, ""
	}
	run := d.String()
	if d.Err() != nil {
		return env.Kind, ""
	}
	return env.Kind, run
}

type tracedConn struct {
	core.Conn
	log *partyLog
}

func (t *tracer) conn(id string, c core.Conn) core.Conn {
	return &tracedConn{Conn: c, log: t.logs[id]}
}

// Send stamps after decoding and the handler stamps before, so the decode
// cost lands in the build and admit stages, not in the network hop.
func (c *tracedConn) Send(ctx context.Context, to string, payload []byte) error {
	kind, run := peek(payload)
	c.log.add(event{at: time.Since(c.log.base), kind: evSend, msg: kind, run: run, peer: to, size: len(payload)})
	return c.Conn.Send(ctx, to, payload)
}

func (c *tracedConn) SetHandler(h transport.Handler) {
	c.Conn.SetHandler(func(from string, payload []byte) {
		at := time.Since(c.log.base)
		kind, run := peek(payload)
		c.log.add(event{at: at, kind: evRecv, msg: kind, run: run, peer: from, size: len(payload)})
		h(from, payload)
	})
}

// countedEndpoint counts what Reliable hands to the TCP endpoint.
type countedEndpoint struct {
	*transport.TCPEndpoint
	t *tracer
}

func (t *tracer) endpoint(ep *transport.TCPEndpoint) transport.Endpoint {
	return &countedEndpoint{TCPEndpoint: ep, t: t}
}

func (c *countedEndpoint) Send(ctx context.Context, to string, payload []byte) error {
	c.t.dgrams.Add(1)
	c.t.wireBytes.Add(uint64(len(payload)))
	return c.TCPEndpoint.Send(ctx, to, payload)
}

func (c *countedEndpoint) SendBatch(ctx context.Context, to string, payloads [][]byte) error {
	c.t.dgrams.Add(uint64(len(payloads)))
	for _, p := range payloads {
		c.t.wireBytes.Add(uint64(len(p)))
	}
	return c.TCPEndpoint.SendBatch(ctx, to, payloads)
}

// tracedObject times the application upcalls.
type tracedObject struct {
	inner b2b.Object
	log   *partyLog
}

type tracedUpdatable struct {
	tracedObject
	up b2b.UpdatableObject
}

func (t *tracer) object(id string, o b2b.Object) b2b.Object {
	to := tracedObject{inner: o, log: t.logs[id]}
	if up, ok := o.(b2b.UpdatableObject); ok {
		return &tracedUpdatable{tracedObject: to, up: up}
	}
	return &to
}

func (o *tracedObject) upcall(name string) func() {
	o.log.add(event{at: time.Since(o.log.base), kind: evUpStart, up: name})
	return func() { o.log.add(event{at: time.Since(o.log.base), kind: evUpEnd, up: name}) }
}

func (o *tracedObject) GetState() ([]byte, error) {
	defer o.upcall("GetState")()
	return o.inner.GetState()
}

func (o *tracedObject) ApplyState(state []byte) error {
	defer o.upcall("ApplyState")()
	return o.inner.ApplyState(state)
}

func (o *tracedObject) ValidateState(proposer string, state []byte) error {
	defer o.upcall("ValidateState")()
	return o.inner.ValidateState(proposer, state)
}

func (o *tracedObject) ValidateConnect(subject string) error { return o.inner.ValidateConnect(subject) }

func (o *tracedObject) ValidateDisconnect(subject string, voluntary bool) error {
	return o.inner.ValidateDisconnect(subject, voluntary)
}

func (o *tracedUpdatable) GetUpdate() ([]byte, error) {
	defer o.upcall("GetUpdate")()
	return o.up.GetUpdate()
}

func (o *tracedUpdatable) ApplyUpdate(current, update []byte) ([]byte, error) {
	defer o.upcall("ApplyUpdate")()
	return o.up.ApplyUpdate(current, update)
}

func (o *tracedUpdatable) ValidateUpdate(proposer string, current, update []byte) error {
	defer o.upcall("ValidateUpdate")()
	return o.up.ValidateUpdate(proposer, current, update)
}

// hop is one message on one link: handed to Conn.Send, handler entered.
type hop struct {
	send, recv time.Duration
	seen       uint8 // sent | received
}

const (
	sent     uint8 = 1
	received uint8 = 2
)

func (h hop) complete() bool { return h.seen == sent|received }

// runTrace joins one run's events across parties. Maps are keyed by the
// recipient (propose, commit, validate, install) or the responder (respond).
type runTrace struct {
	id       string
	root     root
	propose  map[string]hop
	respond  map[string]hop
	commit   map[string]hop
	validate map[string]root // first to last validation-time upcall
	install  map[string]time.Duration
}

// stages are the contiguous spans of the blocking path, in order, then the
// two off it.
var stages = [...]string{
	"propose.build", "net.propose", "recv.admit", "app.validate",
	"respond.build", "net.respond", "commit.build", "run.finalize",
	"net.commit", "commit.install",
}

const blockingStages = 8

// span is one line of the trace file.
type span struct {
	Name    string `json:"name"`
	Party   string `json:"party"`
	Run     string `json:"run"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

// analysis is what the trace yields for one measured window.
type analysis struct {
	runs       []*runTrace
	stageUs    map[string][]float64 // per run, by stage name
	hopUs      []float64            // every complete coordination hop
	msgs       int                  // coordination messages sent in the window, retries included
	bytes      uint64               // envelope bytes through the Conn wrappers
	upcallTime map[string]time.Duration
	incomplete int // measured runs whose events do not form a full path
}

func (t *tracer) analyse(proposer string, from, to time.Duration) *analysis {
	a := &analysis{stageUs: make(map[string][]float64), upcallTime: make(map[string]time.Duration)}
	byID := make(map[string]*runTrace)
	var order []*runTrace // by first propose send at the proposer
	get := func(id string) *runTrace {
		rt := byID[id]
		if rt == nil {
			rt = &runTrace{id: id, propose: map[string]hop{}, respond: map[string]hop{}, commit: map[string]hop{},
				validate: map[string]root{}, install: map[string]time.Duration{}}
			byID[id] = rt
		}
		return rt
	}
	mark := func(m map[string]hop, key string, at time.Duration, bit uint8) {
		h := m[key]
		if h.seen&bit != 0 {
			return // a retransmission: the first copy defines the hop
		}
		if bit == sent {
			h.send = at
		} else {
			h.recv = at
		}
		h.seen |= bit
		m[key] = h
	}

	ids := make([]string, 0, len(t.logs))
	for id := range t.logs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		l := t.logs[id]
		var val root          // validation upcalls since this party's last respond
		var awaiting []string // commits delivered, not yet covered by an install
		var awaitAt []time.Duration
		upStart := make(map[string]time.Duration)
		for _, e := range l.events {
			inWindow := e.at >= from && e.at <= to
			switch e.kind {
			case evSend:
				if inWindow {
					a.bytes += uint64(e.size)
				}
				if e.run == "" {
					continue
				}
				if inWindow {
					a.msgs++
				}
				rt := get(e.run)
				switch e.msg {
				case wire.KindPropose:
					if len(rt.propose) == 0 && id == proposer {
						order = append(order, rt)
					}
					mark(rt.propose, e.peer, e.at, sent)
				case wire.KindRespond:
					if rt.respond[id].seen&sent == 0 { // not the answer to a re-broadcast propose
						rt.validate[id] = val
					}
					val = root{}
					mark(rt.respond, id, e.at, sent)
				case wire.KindCommit:
					mark(rt.commit, e.peer, e.at, sent)
				}
			case evRecv:
				if e.run == "" {
					continue
				}
				rt := get(e.run)
				switch e.msg {
				case wire.KindPropose:
					mark(rt.propose, id, e.at, received)
				case wire.KindRespond:
					mark(rt.respond, e.peer, e.at, received)
				case wire.KindCommit:
					if rt.commit[id].seen&received == 0 {
						awaiting, awaitAt = append(awaiting, e.run), append(awaitAt, e.at)
					}
					mark(rt.commit, id, e.at, received)
				}
			case evUpStart:
				upStart[e.up] = e.at
			case evUpEnd:
				start := upStart[e.up]
				if inWindow {
					a.upcallTime[e.up] += e.at - start
				}
				switch e.up {
				case "ValidateState", "ValidateUpdate", "ApplyUpdate":
					if val.start == 0 {
						val.start = start
					}
					val.end = e.at
				case "ApplyState":
					// One install covers every commit delivered before it
					// began: a pipelined burst installs only its last state.
					n := 0
					for n < len(awaiting) && awaitAt[n] <= start {
						byID[awaiting[n]].install[id] = e.at
						n++
					}
					awaiting, awaitAt = awaiting[n:], awaitAt[n:]
				}
			}
		}
	}

	// The k-th Leave is the k-th run the proposer's engine announced.
	for k, rt := range order {
		if k >= len(t.roots) {
			break
		}
		rt.root = t.roots[k]
		if rt.root.start < from || rt.root.end > to || rt.root.end == 0 {
			continue
		}
		a.runs = append(a.runs, rt)
		st, ok := rt.stageTimes()
		if !ok {
			a.incomplete++
			continue
		}
		for i, name := range stages {
			if st[i] >= 0 {
				a.stageUs[name] = append(a.stageUs[name], us(st[i]))
			}
		}
		for _, m := range []map[string]hop{rt.propose, rt.respond, rt.commit} {
			for _, h := range m {
				if h.complete() {
					a.hopUs = append(a.hopUs, us(h.recv-h.send))
				}
			}
		}
	}
	return a
}

// slowest is the recipient whose respond reached the proposer last: under
// unanimity the run waits for it.
func (rt *runTrace) slowest() string {
	var who string
	var last time.Duration
	for r, h := range rt.respond {
		if h.complete() && h.recv >= last {
			who, last = r, h.recv
		}
	}
	return who
}

func (rt *runTrace) firstCommitSend() time.Duration {
	var first time.Duration
	for _, h := range rt.commit {
		if h.seen&sent != 0 && (first == 0 || h.send < first) {
			first = h.send
		}
	}
	return first
}

// stageTimes returns the run's stage durations in the order of stages; the
// first eight are contiguous and sum to the root span. The two off-path
// stages are -1 when the commit or install was not seen.
func (rt *runTrace) stageTimes() ([len(stages)]time.Duration, bool) {
	var st [len(stages)]time.Duration
	r := rt.slowest()
	p, resp, val := rt.propose[r], rt.respond[r], rt.validate[r]
	commit := rt.firstCommitSend()
	if r == "" || !p.complete() || val.start == 0 || commit == 0 {
		return st, false
	}
	st[0] = p.send - rt.root.start
	st[1] = p.recv - p.send
	st[2] = val.start - p.recv
	st[3] = val.end - val.start
	st[4] = resp.send - val.end
	st[5] = resp.recv - resp.send
	st[6] = commit - resp.recv
	st[7] = rt.root.end - commit
	st[8], st[9] = -1, -1
	if c := rt.commit[r]; c.complete() {
		st[8] = c.recv - c.send
		if at, ok := rt.install[r]; ok {
			st[9] = at - c.recv
		}
	}
	return st, true
}

// edges counts the distinct sender-to-receiver coordination messages of a
// run that were both sent and delivered.
func (rt *runTrace) edges() int {
	n := 0
	for _, m := range []map[string]hop{rt.propose, rt.respond, rt.commit} {
		for _, h := range m {
			if h.complete() {
				n++
			}
		}
	}
	return n
}

// writeSpans writes the measured runs as JSON lines: a root span per run,
// the blocking-path stages under it, and the off-path stages per recipient.
func (a *analysis) writeSpans(path, proposer string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	// Encode errors are write errors, which bufio keeps and Flush reports.
	for _, rt := range a.runs {
		_ = enc.Encode(span{Name: "run", Party: proposer, Run: rt.id,
			StartNs: int64(rt.root.start), EndNs: int64(rt.root.end)})
		st, ok := rt.stageTimes()
		if !ok {
			continue
		}
		r := rt.slowest()
		where := []string{proposer, r, r, r, r, proposer, proposer, proposer}
		at := rt.root.start
		for i := 0; i < blockingStages; i++ {
			_ = enc.Encode(span{Name: stages[i], Party: where[i], Run: rt.id,
				StartNs: int64(at), EndNs: int64(at + st[i]), Parent: "run"})
			at += st[i]
		}
		for rcpt, c := range rt.commit {
			if !c.complete() {
				continue
			}
			_ = enc.Encode(span{Name: "net.commit", Party: rcpt, Run: rt.id,
				StartNs: int64(c.send), EndNs: int64(c.recv), Parent: "run"})
			if at, ok := rt.install[rcpt]; ok {
				_ = enc.Encode(span{Name: "commit.install", Party: rcpt, Run: rt.id,
					StartNs: int64(c.recv), EndNs: int64(at), Parent: "net.commit"})
			}
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
