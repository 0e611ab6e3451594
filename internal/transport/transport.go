// Package transport provides the communication substrate assumed by the
// paper (§4.2): the protocol requires eventual, once-only, unordered message
// delivery between parties; where the underlying network does not provide
// those semantics, the middleware masks the difference.
//
// Three layers live here:
//
//   - Network/MemEndpoint: an in-memory datagram network with per-link fault
//     injection (drop, duplication, delay, partition) for tests, experiments
//     and failure-injection benchmarks;
//   - TCP (tcp.go): a real inter-process transport over net with
//     length-prefixed frames and lazy reconnection;
//   - Reliable (reliable.go): an acknowledgement/retransmission/deduplication
//     layer that turns either of the above into the eventual once-only
//     delivery the coordination protocol assumes.
package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"b2b/internal/clock"
)

// Handler consumes an inbound payload. Handlers for a given endpoint are
// invoked serially; implementations may send from inside a handler.
type Handler func(from string, payload []byte)

// Endpoint is a point-to-point datagram conduit. Send makes no delivery
// guarantee at this layer; the Reliable wrapper adds eventual once-only
// semantics.
type Endpoint interface {
	ID() string
	Send(ctx context.Context, to string, payload []byte) error
	SetHandler(h Handler)
	Close() error
}

// BatchSender is an optional Endpoint extension: transports that can hand
// several datagrams to the wire in one operation implement it (TCPEndpoint
// writes one vectored frame sequence per batch). The Reliable batching layer
// uses it when one flush produces multiple chunks.
type BatchSender interface {
	SendBatch(ctx context.Context, to string, payloads [][]byte) error
}

// FrameSender is implemented by a connection or endpoint that takes a
// payload as consecutive segments (canon.MarshalSegments) — their
// concatenation is the payload — so a message written around a large body
// travels down the stack without the body being copied: Reliable frames
// the segments, and the in-memory network gathers them in the one copy it
// makes of every datagram anyway. The segments must not change afterwards.
type FrameSender interface {
	SendFrame(ctx context.Context, to string, frame [][]byte) error
}

// Sender is the sending half of a connection or endpoint.
type Sender interface {
	Send(ctx context.Context, to string, payload []byte) error
}

// SendFrame sends the payload held as frame through s: as segments when s
// is a FrameSender, joined into one buffer otherwise.
func SendFrame(ctx context.Context, s Sender, to string, frame [][]byte) error {
	if fs, ok := s.(FrameSender); ok {
		return fs.SendFrame(ctx, to, frame)
	}
	return s.Send(ctx, to, join(frame))
}

// join returns segments contiguous: the segment itself when there is one, a
// joined copy otherwise.
func join(segs [][]byte) []byte {
	if len(segs) == 1 {
		return segs[0]
	}
	return bytes.Join(segs, nil)
}

// Errors returned by transports.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// Faults configures loss behaviour of a directional link.
type Faults struct {
	DropProb    float64       // probability a message is silently lost
	DupProb     float64       // probability a message is delivered twice
	MinDelay    time.Duration // uniform delivery delay lower bound
	MaxDelay    time.Duration // uniform delivery delay upper bound
	Partitioned bool          // all messages lost while set
}

// Stats counts traffic through a Network, for datagram counting and
// failure-injection reporting. The byte counters sum the payloads of the
// corresponding messages (duplicated deliveries count each copy), which is
// what the relay drain-amplification bar (lab's
// TestRelayDrainAmplification) is measured against.
type Stats struct {
	Sent           uint64
	Delivered      uint64
	Dropped        uint64
	Duplicate      uint64
	SentBytes      uint64
	DeliveredBytes uint64
}

// Network is an in-memory message network connecting MemEndpoints. It is
// safe for concurrent use. Faults are directional and set per link pair;
// unset links use the network default (no faults).
type Network struct {
	mu      sync.Mutex
	rng     *rand.Rand
	eps     map[string]*MemEndpoint
	faults  map[[2]string]Faults
	defFlt  Faults
	stats   Stats
	closed  bool
	deliver sync.WaitGroup
}

// NewNetwork creates a network whose fault decisions derive from seed, so
// failure-injection runs are reproducible.
func NewNetwork(seed uint64) *Network {
	return &Network{
		rng:    rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		eps:    make(map[string]*MemEndpoint),
		faults: make(map[[2]string]Faults),
	}
}

// Endpoint creates (or returns) the endpoint with the given id. A closed
// endpoint is replaced by a fresh one: a crashed party that restarts
// re-attaches to the network under the same id (its predecessor's queued,
// undelivered messages stay lost — they died with the process).
func (n *Network) Endpoint(id string) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.eps[id]; ok && !ep.isClosed() {
		return ep
	}
	ep := &MemEndpoint{id: id, net: n}
	ep.cond = sync.NewCond(&ep.mu)
	n.eps[id] = ep
	go ep.dispatch()
	return ep
}

// SetLinkFaults configures the directional link from -> to.
func (n *Network) SetLinkFaults(from, to string, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults[[2]string{from, to}] = f
}

// SetDefaultFaults configures faults applied to links without an explicit
// setting.
func (n *Network) SetDefaultFaults(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defFlt = f
}

// Partition splits the network into two sides: every cross-side link drops
// all traffic until Heal is called.
func (n *Network) Partition(sideA, sideB []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range sideA {
		for _, b := range sideB {
			fa := n.faults[[2]string{a, b}]
			fa.Partitioned = true
			n.faults[[2]string{a, b}] = fa
			fb := n.faults[[2]string{b, a}]
			fb.Partitioned = true
			n.faults[[2]string{b, a}] = fb
		}
	}
}

// Heal removes all partitions (other fault settings are preserved).
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k, f := range n.faults {
		f.Partitioned = false
		n.faults[k] = f
	}
}

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the traffic counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// Close shuts down all endpoints and waits for in-flight deliveries.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*MemEndpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	n.deliver.Wait()
}

// route decides the fate of one message — the concatenation of segs — and
// schedules delivery. The message is copied once, into the body every copy
// delivered shares: the receiver owns a buffer nobody else writes.
func (n *Network) route(from, to string, segs [][]byte) error {
	size := 0
	for _, s := range segs {
		size += len(s)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.eps[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	f, ok := n.faults[[2]string{from, to}]
	if !ok {
		f = n.defFlt
	}
	n.stats.Sent++
	n.stats.SentBytes += uint64(size)

	if f.Partitioned || (f.DropProb > 0 && n.rng.Float64() < f.DropProb) {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil // silent loss: that is the point
	}
	copies := 1
	if f.DupProb > 0 && n.rng.Float64() < f.DupProb {
		copies = 2
		n.stats.Duplicate++
	}
	delay := f.MinDelay
	if f.MaxDelay > f.MinDelay {
		delay += time.Duration(n.rng.Int64N(int64(f.MaxDelay - f.MinDelay)))
	}
	n.stats.Delivered += uint64(copies)
	n.stats.DeliveredBytes += uint64(copies) * uint64(size)
	if delay > 0 {
		// Registered while the lock is held, so Close (which sets closed
		// under the same lock before waiting) never races Add against Wait.
		n.deliver.Add(copies)
	}
	n.mu.Unlock()

	body := bytes.Join(segs, nil)
	for i := 0; i < copies; i++ {
		if delay > 0 {
			clock.Wall{}.AfterFunc(delay, func() {
				defer n.deliver.Done()
				dst.enqueue(from, body)
			})
		} else {
			dst.enqueue(from, body)
		}
	}
	return nil
}

// MemEndpoint is an endpoint attached to an in-memory Network.
type MemEndpoint struct {
	id  string
	net *Network

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []inbound
	handler Handler
	closed  bool
	done    chan struct{}
}

type inbound struct {
	from    string
	payload []byte
}

// ID returns the endpoint identity.
func (ep *MemEndpoint) ID() string { return ep.id }

// Send routes a datagram through the network's fault model.
func (ep *MemEndpoint) Send(ctx context.Context, to string, payload []byte) error {
	return ep.SendFrame(ctx, to, [][]byte{payload})
}

// SendFrame implements FrameSender: the datagram is the concatenation of
// segs, gathered in the network's copy.
func (ep *MemEndpoint) SendFrame(_ context.Context, to string, segs [][]byte) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	ep.mu.Unlock()
	return ep.net.route(ep.id, to, segs)
}

// SetHandler installs the inbound message handler.
func (ep *MemEndpoint) SetHandler(h Handler) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handler = h
	ep.cond.Broadcast()
}

// Close stops the endpoint; queued but undelivered messages are discarded.
func (ep *MemEndpoint) Close() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil
	}
	ep.closed = true
	ep.cond.Broadcast()
	return nil
}

func (ep *MemEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

func (ep *MemEndpoint) enqueue(from string, payload []byte) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ep.queue = append(ep.queue, inbound{from: from, payload: payload})
	ep.cond.Signal()
}

// dispatch serially drains the queue into the handler. Running handlers
// outside the lock lets a handler send (even to itself) without deadlock.
func (ep *MemEndpoint) dispatch() {
	for {
		ep.mu.Lock()
		for !ep.closed && (len(ep.queue) == 0 || ep.handler == nil) {
			ep.cond.Wait()
		}
		if ep.closed {
			ep.mu.Unlock()
			return
		}
		msg := ep.queue[0]
		ep.queue = ep.queue[1:]
		h := ep.handler
		ep.mu.Unlock()
		h(msg.from, msg.payload)
	}
}
