package livenet

// The TCP fabric: stations are partitioned across Nodes that exchange
// the wire messages of internal/message over real TCP connections.
//
// Topology: every Node listens on one TCP address and hosts a set of
// cells. A routing table (cell → address) is distributed out of band
// (it is static configuration, like the cell plan itself). Connections
// between nodes are dialed lazily and kept open; per-connection writes
// are serialized, and TCP ordering gives per-link FIFO.
//
// The routing fabric is a transport.Transport (tcpFabric) under the
// station host, so the same Faulty and Reliable decorators that degrade
// and repair the in-process fabric stack directly over the sockets.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/transport"
)

// Node hosts a subset of the stations and speaks TCP to its peers.
type Node struct {
	host
	ln     net.Listener
	fabric *tcpFabric

	connMu   sync.Mutex
	accepted []net.Conn
	closed   bool

	// netMu guards the routing table and peer set; the per-message send
	// path only ever takes it in read mode.
	netMu  sync.RWMutex
	routes map[hexgrid.CellID]string // cell → peer address
	peers  map[string]*peerConn

	wg sync.WaitGroup
}

// peerConn is one outgoing TCP link. Senders enqueue decoded messages;
// a dedicated writer goroutine (Node.writeLoop) encodes them with a
// reused scratch buffer and flushes once per drained batch, so
// concurrent senders never serialize on a connection mutex and a burst
// of messages costs one syscall, not one per message.
type peerConn struct {
	conn net.Conn
	q    chan message.Message
	done chan struct{} // closed by close(); unblocks senders and the writer

	closeOnce sync.Once
}

// close tears the link down exactly once (Node.Close and the dial/close
// race in Node.peer can both reach it).
func (p *peerConn) close() {
	p.closeOnce.Do(func() {
		close(p.done)
		p.conn.Close()
	})
}

// peerQueueDepth bounds each outgoing link's send queue; a full queue
// applies backpressure to senders, but only once the link is genuinely
// saturated.
const peerQueueDepth = 1024

// NewNode builds a node hosting cells of grid, starts their stations,
// and listens on addr ("127.0.0.1:0" for an ephemeral port). Routes for
// remote cells must be installed with SetRoutes before the stations send
// to them. It returns an error for an invalid fault or reliability
// configuration or a failed listen.
func NewNode(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, addr string, cells []hexgrid.CellID, opts Options) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: %w", err)
	}
	n := &Node{
		ln:     ln,
		routes: make(map[hexgrid.CellID]string),
		peers:  make(map[string]*peerConn),
	}
	mail := transport.NewLive(0, 0)
	n.fabric = &tcpFabric{n: n, mail: mail}
	if err := n.init(grid, assign, factory, cells, mail, n.fabric, opts); err != nil {
		ln.Close()
		return nil, err
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetRoutes installs the cell → address table for remote cells.
func (n *Node) SetRoutes(routes map[hexgrid.CellID]string) {
	n.netMu.Lock()
	defer n.netMu.Unlock()
	for c, a := range routes {
		n.routes[c] = a
	}
}

// FabricStats returns the raw fabric accounting (message and wire-byte
// counts below the reliability layer), for benchmark harnesses.
func (n *Node) FabricStats() transport.Stats { return n.fabric.Stats() }

// Close shuts the node down: reliability timers first (so nothing
// retransmits into a dead fabric), then listener, peer connections,
// stations. Safe to call more than once.
func (n *Node) Close() {
	n.connMu.Lock()
	if n.closed {
		n.connMu.Unlock()
		return
	}
	n.closed = true
	n.connMu.Unlock()
	if n.rel != nil {
		n.rel.Close()
	}
	n.ln.Close()
	n.netMu.Lock()
	for _, p := range n.peers {
		p.close() // unblock senders and tell the writer to exit
	}
	n.netMu.Unlock()
	n.connMu.Lock()
	for _, c := range n.accepted {
		c.Close() // unblock readLoops waiting on remote peers
	}
	n.connMu.Unlock()
	n.wg.Wait()
	n.host.Close()
}

func (n *Node) isClosed() bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return n.closed
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.connMu.Lock()
		if n.closed {
			n.connMu.Unlock()
			conn.Close()
			return
		}
		n.accepted = append(n.accepted, conn)
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	dec := message.NewReader(bufio.NewReader(conn))
	for {
		m, err := dec.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !n.isClosed() {
				// Connection torn down mid-message during shutdown is
				// expected; anything else indicates a wire bug.
				fmt.Printf("livenet: read error: %v\n", err)
			}
			return
		}
		if !n.hosts(m.To) {
			fmt.Printf("livenet: misrouted message for cell %d\n", m.To)
			continue
		}
		// Incoming wire messages enter the mailboxes through the
		// stack-wrapped handlers, so the reliability layer (if any)
		// sees their sequence numbers.
		n.fabric.mail.Send(m)
	}
}

// tcpFabric adapts the node's routing fabric — the hosted cells'
// mailboxes plus lazily-dialed TCP peers — to transport.Transport, so
// Faulty and Reliable stack over the sockets exactly as over the
// in-process fabric. Attach is called through the stack top, so the
// handlers registered with the mailboxes already carry the reliability
// layer's receive side.
type tcpFabric struct {
	n    *Node
	mail *transport.Live

	// Traffic accounting is atomic: one counter update per message, no
	// critical sections on the send path.
	total  atomic.Uint64
	bytes  atomic.Uint64
	byKind [message.NumKinds]atomic.Uint64
	// wirePending counts messages accepted for a peer queue but not yet
	// written out, so Idle covers the writer pipelines.
	wirePending atomic.Int64
}

// Attach implements transport.Transport: h runs on the hosted cell's
// mailbox goroutine.
func (t *tcpFabric) Attach(id hexgrid.CellID, h transport.Handler) { t.mail.Attach(id, h) }

// Send implements transport.Transport: hosted destinations go straight
// into their mailboxes, remote ones onto the peer writer's queue.
func (t *tcpFabric) Send(m message.Message) {
	t.total.Add(1)
	if int(m.Kind) < len(t.byKind) {
		t.byKind[m.Kind].Add(1)
	}
	n := t.n
	if n.hosts(m.To) {
		t.mail.Send(m)
		return
	}
	n.netMu.RLock()
	addr, ok := n.routes[m.To]
	n.netMu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("livenet: no route to cell %d", m.To))
	}
	p, err := n.peer(addr)
	if err != nil {
		if n.isClosed() {
			return
		}
		panic(fmt.Sprintf("livenet: dial %s: %v", addr, err))
	}
	t.wirePending.Add(1)
	select {
	case p.q <- m:
	case <-p.done:
		t.wirePending.Add(-1) // shutdown race: message dropped
	}
}

// Stats implements transport.Transport.
func (t *tcpFabric) Stats() transport.Stats {
	var s transport.Stats
	s.Total = t.total.Load()
	s.Bytes = t.bytes.Load()
	for i := range s.ByKind {
		s.ByKind[i] = t.byKind[i].Load()
	}
	return s
}

// Idle implements transport.Idler: mailboxes drained and no message
// parked in a peer writer queue.
func (t *tcpFabric) Idle() bool {
	return t.wirePending.Load() == 0 && t.mail.Idle()
}

// peer returns the connection to addr, dialing it on first use. Dials
// run outside the lock, so concurrent first senders may race; the loser
// closes its extra connection and adopts the winner's.
func (n *Node) peer(addr string) (*peerConn, error) {
	n.netMu.RLock()
	p, ok := n.peers[addr]
	n.netMu.RUnlock()
	if ok {
		return p, nil
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	p = &peerConn{
		conn: conn,
		q:    make(chan message.Message, peerQueueDepth),
		done: make(chan struct{}),
	}
	n.netMu.Lock()
	if existing, ok := n.peers[addr]; ok {
		n.netMu.Unlock()
		conn.Close() // lost the dial race
		return existing, nil
	}
	n.peers[addr] = p
	n.netMu.Unlock()
	// The closed check and wg.Add must be atomic with respect to Close
	// (which sets closed before waiting on wg), or the writer could be
	// spawned after the final wg.Wait.
	n.connMu.Lock()
	if n.closed {
		n.connMu.Unlock()
		p.close() // raced with Close after registration
		return p, nil
	}
	n.wg.Add(1)
	n.connMu.Unlock()
	go n.writeLoop(p)
	return p, nil
}

// writeLoop is the single writer for one peer link: it encodes queued
// messages into a reused scratch buffer and flushes once per drained
// batch. TCP ordering plus the single consumer preserve per-link FIFO.
func (n *Node) writeLoop(p *peerConn) {
	defer n.wg.Done()
	defer p.conn.Close()
	w := bufio.NewWriter(p.conn)
	buf := make([]byte, 0, 512)
	for {
		var m message.Message
		select {
		case m = <-p.q:
		case <-p.done:
			w.Flush()
			return
		}
		for {
			buf = message.Encode(buf[:0], m)
			if _, err := w.Write(buf); err != nil {
				n.fabric.wirePending.Add(-1)
				n.drainPeer(p)
				return
			}
			n.fabric.bytes.Add(uint64(len(buf)))
			n.fabric.wirePending.Add(-1)
			// Coalesce: keep encoding whatever is already queued and
			// pay for one Flush per batch instead of one per message.
			select {
			case m = <-p.q:
				continue
			default:
			}
			break
		}
		if err := w.Flush(); err != nil {
			n.drainPeer(p)
			return
		}
	}
}

// drainPeer discards queued traffic for a dead link until shutdown so
// senders never block on a connection that stopped writing. Losses are
// the reliability layer's problem, exactly like losses on the wire.
func (n *Node) drainPeer(p *peerConn) {
	if !n.isClosed() {
		fmt.Printf("livenet: write error on peer link; dropping queued traffic\n")
	}
	for {
		select {
		case <-p.q:
			n.fabric.wirePending.Add(-1)
		case <-p.done:
			return
		}
	}
}
