package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	b2b "b2b"
	"b2b/internal/core"
	"b2b/internal/crypto"
	"b2b/internal/transport"
)

const objectName = "doc"

// party is one organisation of a workload: its participant, the controller
// of the shared object and the application object behind it.
type party struct {
	id   string
	part *b2b.Participant
	ctrl *b2b.Controller
	obj  appObject
}

// fixture is every party of one workload, all inside this process.
type fixture struct {
	w       *workload
	parties []*party
	closers []func() error

	// below reports datagrams and bytes handed to the network below the
	// reliable layer; nil over TCP unless traced.
	below func() (dgrams, bytes uint64)
}

func (fx *fixture) onClose(f func() error) { fx.closers = append(fx.closers, f) }

// close releases everything setup opened, newest first.
func (fx *fixture) close() error {
	var errs []error
	for i := len(fx.closers) - 1; i >= 0; i-- {
		errs = append(errs, fx.closers[i]())
	}
	fx.closers = nil
	return errors.Join(errs...)
}

// setup builds the workload's fixture through the public API until the first
// run can be proposed: keys, endpoints, storage, Bind, Bootstrap. dataDir is
// where the TCP workload keeps its journals and WALs. tr is nil unless this
// is the traced run.
func setup(w *workload, initial []byte, dataDir string, tr *tracer) (fx *fixture, err error) {
	fx = &fixture{w: w}
	defer func() {
		if err != nil {
			_ = fx.close()
		}
	}()

	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		return nil, err
	}
	ids := w.members()
	idents := make([]*crypto.Identity, len(ids))
	certs := make([]crypto.Certificate, len(ids))
	for i, id := range ids {
		if idents[i], err = td.Issue(id); err != nil {
			return nil, err
		}
		certs[i] = idents[i].Certificate()
	}

	var conns []core.Conn
	if w.tcp {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		fx.onClose(func() error { return os.RemoveAll(dataDir) })
		conns, err = fx.tcpConns(ids, dataDir, tr)
	} else {
		conns, err = fx.memoryConns(ids)
	}
	if err != nil {
		return nil, err
	}

	for i, id := range ids {
		conn := conns[i]
		if tr != nil {
			conn = tr.conn(id, conn)
		}
		opts := []b2b.Option{
			b2b.WithPeerCertificates(certs...),
			b2b.WithMode(w.mode),
			b2b.WithOperationTimeout(30 * time.Second),
		}
		if w.tcp {
			opts = append(opts, b2b.WithFileStorage(filepath.Join(dataDir, id)))
		}
		part, err := b2b.NewParticipant(idents[i], td, conn, opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		fx.onClose(part.Close)

		p := &party{id: id, part: part, obj: newAppObject(w, initial)}
		var bound b2b.Object = p.obj
		if tr != nil {
			bound = tr.object(id, p.obj)
		}
		if p.ctrl, err = part.Bind(objectName, bound, nil); err != nil {
			return nil, fmt.Errorf("%s: bind: %w", id, err)
		}
		fx.parties = append(fx.parties, p)
	}
	for _, p := range fx.parties {
		if err := p.ctrl.Bootstrap(ids); err != nil {
			return nil, fmt.Errorf("%s: bootstrap: %w", p.id, err)
		}
	}
	fx.parties[0].ctrl.SetPipelineWindow(w.window)
	return fx, nil
}

func (fx *fixture) memoryConns(ids []string) ([]core.Conn, error) {
	// The network seed only feeds drop/duplicate decisions; none are configured.
	net := b2b.NewMemoryNetwork(1)
	fx.onClose(func() error { net.Close(); return nil })
	if fx.w.delay > 0 {
		net.Underlying().SetDefaultFaults(transport.Faults{MinDelay: fx.w.delay, MaxDelay: fx.w.delay})
	}
	fx.below = func() (uint64, uint64) {
		st := net.Underlying().Stats()
		return st.Sent, st.SentBytes
	}
	var opts []b2b.EndpointOption
	if fx.w.batch {
		opts = append(opts, b2b.BatchedDelivery(time.Millisecond, 0))
	}
	conns := make([]core.Conn, len(ids))
	for i, id := range ids {
		conn, err := net.Endpoint(id, opts...)
		if err != nil {
			return nil, err
		}
		fx.onClose(conn.Close)
		conns[i] = conn
	}
	return conns, nil
}

// tcpConns assembles each party's transport the way cmd/b2bnode does.
func (fx *fixture) tcpConns(ids []string, dataDir string, tr *tracer) ([]core.Conn, error) {
	if tr != nil {
		fx.below = func() (uint64, uint64) { return tr.dgrams.Load(), tr.wireBytes.Load() }
	}
	eps := make([]*transport.TCPEndpoint, len(ids))
	for i, id := range ids {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		fx.onClose(ep.Close)
		eps[i] = ep
	}
	conns := make([]core.Conn, len(ids))
	for i, id := range ids {
		for j, peer := range ids {
			if i != j {
				eps[i].AddPeer(peer, eps[j].Addr())
			}
		}
		journal, err := transport.OpenFileJournal(filepath.Join(dataDir, id, "reliable.journal"))
		if err != nil {
			return nil, err
		}
		fx.onClose(journal.Close)
		var ep transport.Endpoint = eps[i]
		if tr != nil {
			ep = tr.endpoint(eps[i])
		}
		rel, err := transport.NewReliable(ep,
			transport.WithRetryInterval(100*time.Millisecond),
			transport.WithJournal(journal))
		if err != nil {
			return nil, err
		}
		fx.onClose(rel.Close)
		conns[i] = rel
	}
	return conns, nil
}
