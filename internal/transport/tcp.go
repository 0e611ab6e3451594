package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxFrame bounds a single TCP frame (16 MiB) to stop a corrupt length
// prefix from exhausting memory. It is also the hard ceiling any one
// protocol message may occupy on a real link — the reason a joiner receives
// the object state as a chunked transfer session (internal/xfer) — and the
// bound on overwrite proposals and commits, which carry a whole state.
const MaxFrame = 16 << 20

// TCPEndpoint is a real inter-process Endpoint. Each endpoint listens on an
// address and lazily dials peers from a static id->address directory. The
// first frame on every outgoing connection announces the dialer's identity.
//
// TCP gives in-order delivery per connection, but connection loss drops
// queued messages and process crashes lose everything in flight, so the
// Reliable wrapper is still required for the protocol's once-only semantics.
type TCPEndpoint struct {
	id string
	ln net.Listener

	mu      sync.Mutex
	peers   map[string]string // id -> address
	conns   map[string]*lockedConn
	inbound map[net.Conn]struct{}
	handler Handler
	closed  bool
	wg      sync.WaitGroup
}

// lockedConn serialises frame writes: concurrent Sends to one peer must not
// interleave header and payload bytes.
type lockedConn struct {
	net.Conn

	wmu sync.Mutex
}

func (lc *lockedConn) writeFrame(payload []byte) error {
	return lc.writeFrames([][]byte{payload})
}

// writeFrames writes several frames, each behind its 4-byte length, under
// one lock acquisition as one vectored write (writev): a batch costs one
// syscall instead of one per frame, and no payload is copied to sit behind
// its header.
func (lc *lockedConn) writeFrames(payloads [][]byte) error {
	hdrs := make([]byte, 4*len(payloads))
	bufs := make(net.Buffers, 0, 2*len(payloads))
	for i, p := range payloads {
		if len(p) > MaxFrame {
			return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(p))
		}
		hdr := hdrs[4*i : 4*i+4]
		binary.BigEndian.PutUint32(hdr, uint32(len(p)))
		bufs = append(bufs, hdr, p)
	}
	lc.wmu.Lock()
	defer lc.wmu.Unlock()
	_, err := bufs.WriteTo(lc.Conn)
	return err
}

// ListenTCP starts an endpoint listening on addr (e.g. "127.0.0.1:0").
func ListenTCP(id, addr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{
		id:      id,
		ln:      ln,
		peers:   make(map[string]string),
		conns:   make(map[string]*lockedConn),
		inbound: make(map[net.Conn]struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// ID returns the endpoint identity.
func (ep *TCPEndpoint) ID() string { return ep.id }

// Addr returns the bound listen address.
func (ep *TCPEndpoint) Addr() string { return ep.ln.Addr().String() }

// AddPeer registers the address for a peer id.
func (ep *TCPEndpoint) AddPeer(id, addr string) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.peers[id] = addr
}

// SetHandler installs the inbound message handler.
func (ep *TCPEndpoint) SetHandler(h Handler) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handler = h
}

// Send transmits one frame to the peer, dialing if necessary. A write error
// tears down the cached connection; the next Send re-dials. Loss on failure
// is acceptable — the Reliable layer retransmits.
func (ep *TCPEndpoint) Send(ctx context.Context, to string, payload []byte) error {
	conn, err := ep.conn(ctx, to)
	if err != nil {
		return err
	}
	if err := conn.writeFrame(payload); err != nil {
		ep.dropConn(to, conn)
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

// SendBatch transmits several frames to the peer in one buffered write
// (BatchSender). Loss on failure is acceptable — the Reliable layer
// retransmits.
func (ep *TCPEndpoint) SendBatch(ctx context.Context, to string, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	conn, err := ep.conn(ctx, to)
	if err != nil {
		return err
	}
	if err := conn.writeFrames(payloads); err != nil {
		ep.dropConn(to, conn)
		return fmt.Errorf("transport: batch send to %s: %w", to, err)
	}
	return nil
}

func (ep *TCPEndpoint) conn(ctx context.Context, to string) (*lockedConn, error) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := ep.conns[to]; ok {
		ep.mu.Unlock()
		return c, nil
	}
	addr, ok := ep.peers[to]
	ep.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}

	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
	}
	c := &lockedConn{Conn: raw}
	// Hello frame: announce our identity so the acceptor can attribute
	// inbound traffic.
	if err := c.writeFrame([]byte(ep.id)); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("transport: hello to %s: %w", to, err)
	}

	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		_ = raw.Close()
		return nil, ErrClosed
	}
	if existing, ok := ep.conns[to]; ok {
		// Lost a dial race; use the established connection.
		ep.mu.Unlock()
		_ = raw.Close()
		return existing, nil
	}
	ep.conns[to] = c
	// Read replies arriving on this outgoing connection: peers answer over
	// the connection we opened rather than dialing back.
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		ep.readLoop(raw, to)
		ep.dropConn(to, c)
	}()
	ep.mu.Unlock()
	return c, nil
}

func (ep *TCPEndpoint) dropConn(to string, c *lockedConn) {
	ep.mu.Lock()
	if ep.conns[to] == c {
		delete(ep.conns, to)
	}
	ep.mu.Unlock()
	_ = c.Conn.Close()
}

// Close stops the listener and all connections.
func (ep *TCPEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	conns := make([]net.Conn, 0, len(ep.conns)+len(ep.inbound))
	for _, c := range ep.conns {
		conns = append(conns, c.Conn)
	}
	for c := range ep.inbound {
		conns = append(conns, c)
	}
	ep.conns = make(map[string]*lockedConn)
	ep.inbound = make(map[net.Conn]struct{})
	ep.mu.Unlock()

	err := ep.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	ep.wg.Wait()
	return err
}

func (ep *TCPEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		c, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.wg.Add(1)
		go ep.serveConn(c)
	}
}

func (ep *TCPEndpoint) serveConn(c net.Conn) {
	defer ep.wg.Done()
	defer func() { _ = c.Close() }()

	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.inbound[c] = struct{}{}
	ep.mu.Unlock()
	defer func() {
		ep.mu.Lock()
		delete(ep.inbound, c)
		ep.mu.Unlock()
	}()

	hello, err := readFrame(c)
	if err != nil {
		return
	}
	from := string(hello)

	// Register the inbound connection as the reply path to this peer, so
	// endpoints can answer peers they have no dial address for (e.g. a
	// peer that dialled from an ephemeral port). The hello is unverified,
	// so a peer with a configured address is always answered over the
	// connection this endpoint dials: a dialer claiming its id cannot
	// capture its replies. An existing outgoing connection keeps
	// precedence.
	lc := &lockedConn{Conn: c}
	ep.mu.Lock()
	_, configured := ep.peers[from]
	if _, exists := ep.conns[from]; !exists && !configured {
		ep.conns[from] = lc
	}
	ep.mu.Unlock()
	defer func() {
		ep.mu.Lock()
		if ep.conns[from] == lc {
			delete(ep.conns, from)
		}
		ep.mu.Unlock()
	}()

	ep.readLoop(c, from)
}

// readLoop delivers inbound frames from one connection until it fails.
func (ep *TCPEndpoint) readLoop(c net.Conn, from string) {
	for {
		frame, err := readFrame(c)
		if err != nil {
			return
		}
		ep.mu.Lock()
		h := ep.handler
		closed := ep.closed
		ep.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(from, frame)
		}
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, errors.New("transport: oversized frame")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
