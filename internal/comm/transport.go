// The wire: every cross-rank message is encoded as one frame and handed to a
// Transport, the byte-moving substrate under a rank.
//
// There is one delivery path. Each local rank owns one transport endpoint;
// transmit encodes a message into a 40-byte-header frame and Sends it, and the
// endpoint's deliver callback (deliverFrame) decodes each inbound frame and
// dispatches it at once, under the rank's receive lock, on the goroutine that
// delivered it. NewWorld runs n local ranks over one in-memory network
// (MemTransport); NewNetWorld runs one local rank over any Transport —
// internal/comm/tcptransport is the real network backend (TCP with dial
// backoff, deadlines, reconnect and socket fault injection). Only self-sends
// skip the transport: they are queued for the receive lock's holder
// (enqueue), as are the frames that arrive before the rank starts.
//
// Transports are best-effort (a frame queued while a connection is down is
// simply dropped, and World.SetFaultPlan layers seeded frame faults over any
// of them), so every World runs the sequence-number + cumulative-ack +
// retransmit link layer above: it recovers losses, deduplicates, and restores
// order — including across transparent reconnects, because the per-link
// sequence state lives in the Proc, not the connection.
package comm

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Transport moves framed wire bytes between ranks. Implementations are
// best-effort: frames may be lost, duplicated, or reordered; the reliable
// link layer above recovers. Send and the deliver callback must be safe for
// concurrent use; ownership of a frame passes with the call (the sender must
// not reuse a sent frame, the transport hands each delivered frame to the
// receiver for keeps).
//
// deliver dispatches the frame in place, under the receiving rank's receive
// lock, and the handlers it runs Send. Two rules follow. A transport never
// calls deliver from within Send: the sender holds a link lock across Send,
// and the receive lock's holder may be waiting for that link lock. And Send
// never parks: workers call it, and so does whichever goroutine holds the
// receive lock. A transport delivers from goroutines of its own — one per
// connection, or one per endpoint as MemTransport does.
type Transport interface {
	// Self returns the local rank this transport is bound to.
	Self() int
	// Size returns the world size (number of ranks).
	Size() int
	// Start begins delivery: inbound frames are handed to deliver (possibly
	// concurrently from several peer connections, never from within Send),
	// and per-peer connection lifecycle transitions are reported through
	// events (may be nil).
	Start(deliver func(frame []byte), events func(PeerEvent)) error
	// Send hands one frame over for best-effort delivery to rank dst. It
	// never parks and never calls deliver.
	Send(dst int, frame []byte) error
	// Close tears down all connections and background goroutines.
	Close() error
}

// TransportStats is optionally implemented by transports that track
// connection-lifecycle statistics (surfaced as comm.reconnects).
type TransportStats interface {
	// Reconnects counts re-established outbound connections: successful
	// dials after a previously working connection to that peer was lost.
	Reconnects() int64
}

// PeerMarker is optionally implemented by transports that can stop pursuing
// a peer: once a rank is confirmed dead by the failure detector, reconnect
// attempts toward it are pointless noise.
type PeerMarker interface {
	MarkDead(peer int)
}

// PeerEventKind labels a per-peer connection lifecycle transition.
type PeerEventKind uint8

const (
	// PeerDialFailed: one dial attempt toward the peer failed; the transport
	// backs off and will retry.
	PeerDialFailed PeerEventKind = iota
	// PeerUp: an outbound connection to the peer was established.
	PeerUp
	// PeerDown: an established connection to the peer was lost.
	PeerDown
	// PeerGaveUp: the transport stopped pursuing the peer (marked dead or
	// transport closed).
	PeerGaveUp
)

var peerEventNames = [...]string{PeerDialFailed: "dial-failed", PeerUp: "up", PeerDown: "down", PeerGaveUp: "gave-up"}

// String returns the event kind's label.
func (k PeerEventKind) String() string {
	if int(k) < len(peerEventNames) {
		return peerEventNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PeerEvent is one per-peer connection lifecycle transition.
type PeerEvent struct {
	Peer    int
	Kind    PeerEventKind
	Attempt int   // dial attempts in the current outage (PeerDialFailed/PeerUp)
	Err     error // the triggering error (PeerDialFailed/PeerDown), if any
}

// MemTransport is one rank's endpoint of an in-memory network
// (NewMemNetwork). Send queues the frame on the destination endpoint, whose
// delivery goroutine hands it to the deliver callback — the in-memory
// analogue of a socket's reader. It never loses, duplicates or reorders a
// frame, so all it adds to a message is the frame encoding and one goroutine
// hand-off. A frame toward an endpoint that is not started, or already
// closed, is dropped, as a socket toward a process that is not up would drop
// it.
type MemTransport struct {
	eps  []*memEndpoint // shared by the network's endpoints, by rank
	self int
}

// memEndpoint is one endpoint's inbound side: an unbounded MPSC frame queue
// with a wakeup channel, drained by the delivery goroutine Start launches
// and Close joins.
type memEndpoint struct {
	mu      sync.Mutex
	queue   [][]byte
	live    bool // started and not closed: Send queues, else drops
	closed  bool
	deliver func([]byte)
	note    chan struct{}
	quit    chan struct{}
	done    chan struct{}
}

// NewMemNetwork returns the n endpoints of one in-memory network, endpoint r
// bound to rank r. Give each to its own NewNetWorld (or use NewWorld, which
// runs all n ranks in one World).
func NewMemNetwork(n int) []*MemTransport {
	eps := make([]*memEndpoint, n)
	for i := range eps {
		eps[i] = &memEndpoint{note: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	}
	trs := make([]*MemTransport, n)
	for i := range trs {
		trs[i] = &MemTransport{eps: eps, self: i}
	}
	return trs
}

// Self returns the rank this endpoint is bound to.
func (t *MemTransport) Self() int { return t.self }

// Size returns the number of endpoints in the network.
func (t *MemTransport) Size() int { return len(t.eps) }

// Start attaches deliver and launches the endpoint's delivery goroutine:
// frames sent to this endpoint from now on reach it. There are no
// connections, hence no peer events.
func (t *MemTransport) Start(deliver func([]byte), _ func(PeerEvent)) error {
	ep := t.eps[t.self]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.live || ep.closed {
		return fmt.Errorf("comm: memory endpoint %d started twice", t.self)
	}
	ep.deliver, ep.live = deliver, true
	go ep.run()
	return nil
}

// Send queues frame on dst's endpoint for its delivery goroutine.
func (t *MemTransport) Send(dst int, frame []byte) error {
	ep := t.eps[dst]
	ep.mu.Lock()
	if !ep.live {
		ep.mu.Unlock()
		return nil
	}
	ep.queue = append(ep.queue, frame)
	ep.mu.Unlock()
	select {
	case ep.note <- struct{}{}:
	default:
	}
	return nil
}

// run delivers queued frames in arrival order until Close.
func (ep *memEndpoint) run() {
	defer close(ep.done)
	var buf [][]byte
	for {
		select {
		case <-ep.quit:
			return
		case <-ep.note:
		}
		ep.mu.Lock()
		buf, ep.queue = ep.queue, buf[:0]
		ep.mu.Unlock()
		for _, f := range buf {
			ep.deliver(f)
		}
		clear(buf) // the receiver owns the frames now
	}
}

// Close detaches the endpoint — frames sent to it are dropped from now on —
// and joins its delivery goroutine. Idempotent.
func (t *MemTransport) Close() error {
	ep := t.eps[t.self]
	ep.mu.Lock()
	started, first := ep.live, !ep.closed
	ep.live, ep.closed, ep.queue = false, true, nil
	ep.mu.Unlock()
	if first {
		close(ep.quit)
		if started {
			<-ep.done
		}
	}
	return nil
}

// wireFrameHdr is the fixed header of an encoded wire frame:
//
//	[4B src][4B tag][8B a][8B b][8B ep][8B seq][payload...]   (little-endian)
//
// The destination is implicit (the transport routes the frame); the payload
// runs to the end of the frame. Length framing — and everything below it —
// is the transport's concern.
const wireFrameHdr = 40

// appendWireFrame encodes m after buf.
func appendWireFrame(buf []byte, m message) []byte {
	var h [wireFrameHdr]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(int32(m.src)))
	binary.LittleEndian.PutUint32(h[4:], uint32(int32(m.tag)))
	binary.LittleEndian.PutUint64(h[8:], uint64(m.a))
	binary.LittleEndian.PutUint64(h[16:], uint64(m.b))
	binary.LittleEndian.PutUint64(h[24:], uint64(m.ep))
	binary.LittleEndian.PutUint64(h[32:], uint64(m.seq))
	buf = append(buf, h[:]...)
	return append(buf, m.payload...)
}

// decodeWireFrame decodes one frame. The payload aliases the frame (the
// transport passed ownership with the deliver call).
func decodeWireFrame(frame []byte) (message, error) {
	if len(frame) < wireFrameHdr {
		return message{}, fmt.Errorf("comm: wire frame too short (%d bytes)", len(frame))
	}
	m := message{
		src: int(int32(binary.LittleEndian.Uint32(frame[0:]))),
		tag: int(int32(binary.LittleEndian.Uint32(frame[4:]))),
		a:   int64(binary.LittleEndian.Uint64(frame[8:])),
		b:   int64(binary.LittleEndian.Uint64(frame[16:])),
		ep:  int64(binary.LittleEndian.Uint64(frame[24:])),
		seq: int64(binary.LittleEndian.Uint64(frame[32:])),
	}
	if len(frame) > wireFrameHdr {
		m.payload = frame[wireFrameHdr:]
	}
	return m, nil
}

// NewNetWorld creates a world whose only local rank is tr.Self(): the other
// ranks live behind tr (in other processes, or other Worlds of this one).
// The transport is started immediately so peers can connect while the graph
// is still being built — inbound frames wait until the rank starts.
func NewNetWorld(tr Transport) (*World, error) {
	n, self := tr.Size(), tr.Self()
	if n < 1 {
		return nil, fmt.Errorf("comm: transport world size %d < 1", n)
	}
	if self < 0 || self >= n {
		return nil, fmt.Errorf("comm: transport self rank %d out of [0,%d)", self, n)
	}
	w := newWorld(n)
	if err := w.attach(tr); err != nil {
		return nil, fmt.Errorf("comm: transport start: %w", err)
	}
	return w, nil
}

// attach materializes the local rank tr is bound to and starts tr.
func (w *World) attach(tr Transport) error {
	p := newProc(w, tr)
	w.procs[p.rank] = p
	w.local = append(w.local, p)
	return tr.Start(p.deliverFrame, w.peerEvent)
}

// transmit puts one message on the wire toward dst: a self-send is queued
// for the receive lock's holder, anything else is encoded and handed to the
// transport (best effort: the link layer retransmits). Called for originals,
// retransmissions, and acks. After Shutdown, and to or from a fail-stopped
// rank, the wire is down and the message is discarded.
func (p *Proc) transmit(dst int, m message) {
	w := p.world
	if w.closed.Load() {
		return
	}
	if dst == p.rank {
		p.enqueue(m)
		return
	}
	if w.wireDead(p.rank, dst) {
		return
	}
	p.framesMu.Lock()
	frame := p.frames.Make(wireFrameHdr + len(m.payload))
	p.framesMu.Unlock()
	_ = p.tr.Send(dst, appendWireFrame(frame[:0], m))
}

// FrameAlloc hands out wire frame buffers without an allocation per frame:
// a frame of up to 1 KiB — an ack, a small batch — is carved out of a shared
// 8 KiB chunk, a larger one gets its own. A carved frame is a 3-index slice
// no other frame overlaps, so ownership still passes with it as Transport
// requires; a chunk is never reused, and the GC frees it with the last
// frame carved from it. The zero value is ready; not safe for concurrent
// use.
type FrameAlloc struct{ chunk []byte }

const (
	frameChunkSize = 8 << 10
	frameChunkMax  = 1 << 10
)

// Make returns a frame buffer of length n.
func (a *FrameAlloc) Make(n int) []byte {
	if n > frameChunkMax {
		return make([]byte, n)
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]byte, 0, frameChunkSize)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+n]
	return a.chunk[off : off+n : off+n]
}

// deliverFrame is the transport's inbound callback: decode the frame and run
// it through the link layer and its handler right here, under the receive
// lock, on the goroutine that delivered it. A frame that arrives before Start
// is queued until Start. Malformed or misaddressed frames are dropped —
// remote bytes must never be able to take a rank down — and so is anything
// arriving after Shutdown or touching a fail-stopped rank.
func (p *Proc) deliverFrame(frame []byte) {
	m, err := decodeWireFrame(frame)
	w := p.world
	if err != nil || m.src < 0 || m.src >= len(w.procs) || m.src == p.rank ||
		w.closed.Load() || w.wireDead(m.src, p.rank) {
		return
	}
	if !p.launched.Load() {
		p.enqueue(m) // for Start to dispatch
		return
	}
	p.rx.Lock()
	p.receive(m)
	p.unlockRx()
}

// SetPeerEventHook installs an observer for transport peer lifecycle events
// (events may arrive on any transport goroutine). Safe to call at any time.
func (w *World) SetPeerEventHook(f func(PeerEvent)) { w.peerHook.Store(&f) }

func (w *World) peerEvent(ev PeerEvent) {
	if f := w.peerHook.Load(); f != nil && *f != nil {
		(*f)(ev)
	}
}

// Reconnects reports how many times the local transports re-established a
// lost peer connection (comm.reconnects; 0 over memory).
func (w *World) Reconnects() int64 {
	var n int64
	for _, p := range w.local {
		if s, ok := p.tr.(TransportStats); ok {
			n += s.Reconnects()
		}
	}
	return n
}
